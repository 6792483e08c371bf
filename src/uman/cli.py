"""Command-line experiment runner.

Three verbs operate on a JSON config file:

* ``uman validate <config>`` checks the file and prints the realized class
  layout and Jaccard table;
* ``uman run <config>`` trains every configured (method, seed) pair, the
  seeds of one method as one batch and the method batches in parallel
  worker processes (at most one per method and per CPU), and writes
  per-run artifacts plus a summary CSV;
* ``uman sweep <config> --axis <name> --values a,b,c [--jobs N]`` repeats
  the run along one axis and aggregates the results. Every cell's method
  batches go to one pool of at most N worker processes (and at most one
  per batch and per CPU); a batch never starts a pool of its own.

The environment variable UMAN_SEED_OFFSET (integer, default 0) is added to
every seed, which relocates an entire experiment to a fresh seed
neighbourhood without touching the config file. Outputs are deterministic:
the same config, seeds, and offset produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, replace
from pathlib import Path

from .config import (
    SWEEP_AXES,
    ExperimentConfig,
    config_hash,
    cost_problems,
    derive_sweep_cell,
    load_config,
)
from .core import train_runs
from .evaluate import evaluate
from .labelspace import (
    jaccard_source_source,
    jaccard_source_target,
    partition_from_matrix,
)
from .synth import generate

__all__ = ["main", "execute_run", "execute_sweep", "seed_offset"]


def seed_offset() -> int:
    raw = os.environ.get("UMAN_SEED_OFFSET", "0").strip() or "0"
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"UMAN_SEED_OFFSET must be an integer, got {raw!r}")


def _seed_problems(config: ExperimentConfig, offset: int) -> list[str]:
    """Why a config cannot run at ``offset``, if its lowest effective seed
    (a config seed plus the offset) is negative."""
    low = min(config.synthetic.seed, config.hyperparams.seed) + min(config.seeds) + offset
    return [f"seed offset {offset} makes the effective seed {low}; every seed must be >= 0"] if low < 0 else []


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def cmd_validate(path) -> int:
    config, problems = load_config(path)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return 1
    partition = partition_from_matrix(config.matrix)
    print(f"config {config_hash(config)} is valid")
    print(f"{partition.n_sources} sources, {partition.total_classes} classes total")
    for i in range(1, partition.n_sources + 1):
        print(
            f"source {i}: shared {_fmt_set(partition.common_per_source[i - 1])} "
            f"private {_fmt_set(partition.private_per_source[i - 1])}"
        )
    print(
        f"target: shared {_fmt_set(partition.common_union)} "
        f"private {_fmt_set(partition.target_private)}"
    )
    for i in range(1, partition.n_sources + 1):
        a = set(partition.source_labels[i - 1])
        b = set(partition.target_labels)
        print(f"xi_{i} = {len(a & b)}/{len(a | b)} = {jaccard_source_target(partition, i):.4f}")
    for i in range(1, partition.n_sources + 1):
        for j in range(i + 1, partition.n_sources + 1):
            a = set(partition.source_labels[i - 1])
            b = set(partition.source_labels[j - 1])
            print(
                f"xi_{i}{j} = {len(a & b)}/{len(a | b)} = "
                f"{jaccard_source_source(partition, i, j):.4f}"
            )
    return 0


def _summary_row(partition, chash, method, seed, report=None) -> list:
    if report is None:
        return [chash, method, seed, "failed", ""] + [""] * (len(partition.common_union) + 1)
    cells = [report.per_class_accuracy.get(str(c), "") for c in partition.common_union]
    cells.append(report.per_class_accuracy.get("unknown", ""))
    return [chash, method, seed, "ok", report.mean_per_class_accuracy] + cells


def execute_run(config: ExperimentConfig, offset: int = 0, quiet: bool = False):
    """Run every (method, seed) pair of a config; returns the summary rows.

    The seeds of one method train as one batch (:func:`uman.core.train_runs`),
    each run exactly as it would alone. The method batches run in worker
    processes, at most one per method and per CPU; a single worker runs
    them in this process. Each batch generates its own data, writes its own
    artifacts and returns only its summary rows and the lines it reports;
    rows come back and lines are printed in config order, so neither the
    output nor any artifact depends on the number of workers.

    Per-run artifacts land in <output_dir>/runs/<method>_<seed>/: the
    training trace, the final margin-register values, and the evaluation
    report. A run that diverges is recorded as a failed row, its directory
    gets only a report.json with status "failed", the error and the step,
    and the remaining runs still execute.
    """
    if problems := _seed_problems(config, offset):
        raise ValueError(problems[0])
    tasks = [(config, method, offset) for method in config.methods]
    rows = []
    for batch_rows, lines in _map_in_pool(_run_method_batch, tasks, len(tasks)):
        rows += batch_rows
        if not quiet:
            for line in lines:
                print(line)
    return rows


def _run_method_batch(task):
    """Train every seed of one method as one batch, then score and write
    each run in seed order; returns the summary rows and the report lines.
    Top-level so process pools can pickle it. The batch and its traces are
    freed on return."""
    config, method, offset = task
    partition = partition_from_matrix(config.matrix)
    chash = config_hash(config)
    runs, tests = [], []
    for seed in config.seeds:
        spec = replace(config.synthetic, seed=config.synthetic.seed + offset + seed)
        hp = replace(config.hyperparams, seed=config.hyperparams.seed + offset + seed)
        runs.append((generate(spec, partition), hp))
        tests.append(generate(spec, partition, draw=1)[-1])
    rows, lines = [], []
    outcomes = train_runs(runs, partition, method=method)
    for seed, (_, hp), test_target, result in zip(config.seeds, runs, tests, outcomes):
        run_dir = Path(config.output_dir) / "runs" / f"{method}_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(result, Exception):
            # a failed run's directory holds its report only, not the
            # artifacts an earlier run into the same directory left
            for stale in ("trace.csv", "tmr.csv"):
                (run_dir / stale).unlink(missing_ok=True)
            _write_json(run_dir / "report.json", {
                "config_hash": chash,
                "error": str(result),
                "method": method,
                "seed": seed,
                "status": "failed",
                "step": result.step,
            })
            rows.append(_summary_row(partition, chash, method, seed))
            lines.append(f"{method} seed {seed}: FAILED ({result})")
            continue
        report = evaluate(
            result.feature_net, result.classifier, test_target, partition, hp.w0,
            method=method, config_hash=chash, seed=seed,
        )
        _write_trace(run_dir / "trace.csv", result.trace, partition.n_sources)
        _write_register(run_dir / "tmr.csv", result.register)
        _write_json(run_dir / "report.json", asdict(report))
        rows.append(_summary_row(partition, chash, method, seed, report))
        lines.append(f"{method} seed {seed}: mean accuracy {report.mean_per_class_accuracy:.4f}")
    return rows, lines


def _map_in_pool(fn, tasks, jobs):
    """Yield ``fn(task)`` for every task, in order, from at most ``jobs``
    worker processes and never more than there are tasks or CPUs. A single
    worker maps in this process, so nothing is pickled.

    A worker gets the next task as soon as it finishes one, whatever the
    order in which results are due, so a long task at the head never
    leaves another worker idle. After a task raises no further task is
    handed out, as none would be in this process; its error reaches the
    caller when its result is due, once the tasks still running finish.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers < 2:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures, running, failed = [], set(), False
        for head in range(len(tasks)):
            while True:
                finished = {f for f in running if f.done()}
                running -= finished
                failed = failed or any(f.exception() is not None for f in finished)
                while not failed and len(running) < workers and len(futures) < len(tasks):
                    futures.append(pool.submit(fn, tasks[len(futures)]))
                    running.add(futures[-1])
                if futures[head].done():
                    break
                wait(running, return_when=FIRST_COMPLETED)
            yield futures[head].result()


def _write_atomic(path, write):
    """Stream a file through ``write(fh)`` into ``<name>.tmp`` beside
    ``path`` and move it into place, so a write that fails leaves the
    previous file intact and no partial one behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, obj):
    _write_atomic(path, lambda fh: fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n"))


def _write_csv(path, header, rows):
    _write_atomic(path, lambda fh: csv.writer(fh).writerows(itertools.chain([header], rows)))


def _write_trace(path, trace, n_sources: int):
    header = (
        ["step", "class_loss", "domain_loss"]
        + [f"err_source_{i + 1}" for i in range(n_sources)]
        + ["mean_weight_common", "mean_weight_private", "mean_weight_target", "tmr_updated"]
    )
    _write_csv(path, header, (
        [r.step, r.class_loss, r.domain_loss]
        + list(r.source_errors)
        + [r.mean_weight_common, r.mean_weight_private, r.mean_weight_target, int(r.tmr_updated)]
        for r in trace
    ))


def _write_register(path, register):
    _write_csv(path, ["class_index", "value"], enumerate(register.values.tolist()))


def _write_summary(config: ExperimentConfig, rows) -> Path:
    """Write a run's summary rows to <output_dir>/summary.csv; returns the path."""
    common = partition_from_matrix(config.matrix).common_union
    header = ["config_hash", "method", "seed", "status", "mean_per_class_accuracy"]
    out = Path(config.output_dir) / "summary.csv"
    _write_csv(out, header + [f"acc_{c}" for c in common] + ["acc_unknown"], rows)
    return out


def _runnable(path):
    """The config at ``path`` and the seed offset to run it with, or None
    after printing every problem that keeps it from running."""
    config, problems = load_config(path)
    if not problems:
        offset = seed_offset()
        problems = _seed_problems(config, offset)
    for p in problems:
        print(f"invalid: {p}")
    return None if problems else (config, offset)


def cmd_run(path) -> int:
    if (loaded := _runnable(path)) is None:
        return 2
    config, offset = loaded
    rows = execute_run(config, offset)
    print(f"wrote {_write_summary(config, rows)}")
    return 0


def _repeat(values):
    """The first value that occurs twice in ``values``, or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def _sweep_cells(config: ExperimentConfig, axis: str, values):
    """The config of every feasible cell of a sweep, by value, writing under
    <output_dir>/sweep/<axis>_<value>/; and the problems of the cells whose
    runs would not fit in memory (:func:`~uman.config.cost_problems`)."""
    base = Path(config.output_dir)
    cells = {}
    for value in values:
        cell, _ = derive_sweep_cell(config, axis, value)
        if cell is not None:
            cells[value] = replace(cell, output_dir=str(base / "sweep" / f"{axis}_{value}"))
    return cells, [f"{axis} {value}: {p}" for value, cell in cells.items() for p in cost_problems(cell)]


def execute_sweep(config: ExperimentConfig, axis: str, values, jobs: int = 1, offset: int = 0):
    """Run the config once per axis value; returns the aggregated rows.

    Every cell writes its own artifacts under <output_dir>/sweep/<axis>_<value>/
    and the aggregate (with per-seed accuracies, their mean, and the
    transfer gain over source_only where available) is returned for a
    single final write. Infeasible values become marked rows; a repeated
    value, or a cell over the cost bound, is rejected before any work
    starts. Every cell's method batches
    go to one pool of at most ``jobs`` workers, and never more than there
    are batches or CPUs; a cell's summary.csv is written here.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if (repeat := _repeat(values)) is not None:
        raise ValueError(f"sweep value {repeat} repeats")
    cells, problems = _sweep_cells(config, axis, values)
    if problems := _seed_problems(config, offset) or problems:
        raise ValueError(problems[0])
    return _run_sweep(config, axis, values, cells, jobs, offset)


def _run_sweep(config: ExperimentConfig, axis: str, values, cells: dict, jobs: int, offset: int):
    """:func:`execute_sweep` over the checked cells of :func:`_sweep_cells`."""
    tasks = [(cell, method, offset) for cell in cells.values() for method in cell.methods]
    batches = _map_in_pool(_run_method_batch, tasks, jobs)
    agg_rows = []
    for value in values:
        if value not in cells:
            blank = [""] * (len(config.seeds) + 2)
            agg_rows += [[axis, value, method, "infeasible"] + blank for method in config.methods]
            continue
        cell_rows, per_seed, means = [], {}, {}
        for method in cells[value].methods:
            rows, _ = next(batches)
            cell_rows += rows
            per_seed[method] = [row[4] if row[3] == "ok" else "" for row in rows]
            ok = [v for v in per_seed[method] if v != ""]
            means[method] = sum(ok) / len(ok) if ok else ""
        _write_summary(cells[value], cell_rows)
        baseline = means.get("source_only", "")
        for method, accs in per_seed.items():
            mean, status = means[method], "ok" if "" not in accs else "partial"
            gain = mean - baseline if method != "source_only" and "" not in (mean, baseline) else ""
            agg_rows.append([axis, value, method, status] + accs + [mean, gain])
    return agg_rows


def cmd_sweep(path, axis, values, jobs) -> int:
    if (loaded := _runnable(path)) is None:
        return 2
    config, offset = loaded
    cells, problems = _sweep_cells(config, axis, values)
    for p in problems:
        print(f"invalid: {p}")
    if problems:
        return 2
    rows = _run_sweep(config, axis, values, cells, jobs, offset)
    seeds = [f"acc_seed_{s}" for s in config.seeds]
    header = ["axis", "value", "method", "status"] + seeds + ["acc_mean", "transfer_gain"]
    out = Path(config.output_dir) / f"sweep_{axis}.csv"
    _write_csv(out, header, rows)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uman",
        description="multi-source adaptation experiments on synthetic domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check a config and print the class layout")
    p_val.add_argument("config")
    p_run = sub.add_parser("run", help="train and evaluate every (method, seed) pair")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="repeat a run along one config axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated integer axis values, e.g. 0,3,6",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel method batches")
    args = parser.parse_args(argv)

    if args.command == "validate":
        return cmd_validate(args.config)
    if args.command == "run":
        return cmd_run(args.config)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        print(f"invalid: --values must be comma-separated integers, got {args.values!r}")
        return 2
    if not values:
        print("invalid: --values is empty")
        return 2
    if (repeat := _repeat(values)) is not None:
        print(f"invalid: --values repeats {repeat}")
        return 2
    if args.jobs < 1:
        print(f"invalid: --jobs must be >= 1, got {args.jobs}")
        return 2
    return cmd_sweep(args.config, args.axis, values, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
