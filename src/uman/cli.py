"""Command-line experiment runner.

Three verbs operate on a JSON config file:

* ``uman validate <config>`` checks the file and prints the realized class
  layout and Jaccard table;
* ``uman run <config>`` trains every configured (method, seed) pair, the
  seeds of one method as one batch and the method batches in parallel
  worker processes (at most one per batch and per CPU), and writes
  per-run artifacts plus a summary CSV;
* ``uman sweep <config> --axis <name> --values a,b,c [--jobs N]`` repeats
  the run along one axis and aggregates the results. A method batch holds
  the runs of every cell that shares its training layout, up to
  :data:`~uman.config.BATCH_RUNS` runs, and every batch goes to one pool of
  at most N worker processes (and at most one per batch and per CPU); a
  batch never starts a pool of its own.

Either way the unit of training is a batch of at most ``BATCH_RUNS`` runs
of one method, packed by :func:`_packed` and handed to the pool in the
order of :func:`_tasks`. Each run trains, scores and writes exactly as it
would alone, into its own cell's directory, and summaries and printed
lines follow config order, not the order in which batches finish.

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

import numpy as np

from .config import (
    SWEEP_AXES,
    ExperimentConfig,
    batch_runs,
    config_hash,
    cost_problems,
    derive_sweep_cell,
    load_config,
)
from .core import batch_layout, train_runs
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

    A method's seeds train as one batch (:func:`uman.core.train_runs`), or
    as the fewest near-equal batches of at most
    :data:`~uman.config.BATCH_RUNS` runs, each run exactly as it would
    alone. The batches run in worker processes, at most one per batch and
    per CPU; a single worker runs them in this process. Each batch
    generates its own data, writes its own artifacts and returns only its
    summary rows and the lines it reports; rows come back and lines are
    printed in config order, so neither the output nor any artifact
    depends on the number of workers.

    Per-run artifacts land in <output_dir>/runs/<method>_<seed>/: the
    training trace, the final margin-register values, and the evaluation
    report. A run that diverges is recorded as a failed row, its directory
    gets only a report.json with status "failed", the error and the step,
    and the remaining runs still execute.
    """
    if problems := _seed_problems(config, offset):
        raise ValueError(problems[0])
    tasks = _tasks(_packed({None: config}), config.methods, offset)
    done = _train(tasks, len(tasks))
    rows = []
    for method in config.methods:
        for seed in config.seeds:
            row, line = done[None, method, seed]
            rows.append(row)
            if not quiet:
                print(line)
    return rows


# the order in which the pool is handed the method batches: a step of each
# method does a superset of the next one's work, so the longest start first
_HAND_OUT = ("uman", "unweighted_adv", "source_only")


def _layout(cell: ExperimentConfig):
    """The training layout (:func:`~uman.core.batch_layout`) of every run of
    a config."""
    partition = partition_from_matrix(cell.matrix)
    label_sets = (*partition.source_labels, partition.target_labels)
    lengths = [cell.synthetic.samples_per_class * len(labels) for labels in label_sets]
    return batch_layout(partition, cell.hyperparams, lengths, cell.synthetic.feature_dim)


def _packed(cells: dict) -> list:
    """The runs of every config in ``cells`` (by key) as the runs of one
    method's batches: ``(key, config, seed)`` lists, largest first. The
    runs whose configs share a training layout, in (cell, seed) order, fill
    the fewest near-equal batches of at most
    :data:`~uman.config.BATCH_RUNS` runs (:func:`~uman.config.batch_runs`);
    a batch never mixes layouts."""
    groups: dict = {}
    for key, cell in cells.items():
        groups.setdefault(_layout(cell), []).extend((key, cell, seed) for seed in cell.seeds)
    batches = []
    for runs in groups.values():
        for size in batch_runs(len(runs)):
            batches.append(runs[:size])
            runs = runs[size:]
    return sorted(batches, key=len, reverse=True)


def _tasks(batches: list, methods, offset: int) -> list:
    """The pool tasks that train ``batches`` for every method, in hand-out
    order: by method as :data:`_HAND_OUT` lists them, then largest first."""
    return [(method, runs, offset) for method in sorted(methods, key=_HAND_OUT.index) for runs in batches]


def _train(tasks: list, jobs: int) -> dict:
    """Run the tasks of :func:`_tasks` in one pool of at most ``jobs``
    workers; returns each run's summary row and report line by (key,
    method, seed)."""
    done = {}
    for (method, runs, _), outcomes in zip(tasks, _map_in_pool(_run_method_batch, tasks, jobs)):
        for (key, _, seed), outcome in zip(runs, outcomes):
            done[key, method, seed] = outcome
    return done


def _run_method_batch(task):
    """Train one method batch, then score each run and write its artifacts
    into its own config's directory, in batch order; returns each run's
    summary row and report line. Top-level so process pools can pickle it.

    The batch holds the source datasets that equal one of an earlier run
    of the same data seed once, and no test target: each run generates its
    own when it is scored. Its training data is freed before scoring, and
    the rest on return."""
    method, runs, offset = task
    shared, trained, partitions = {}, [], []
    for _, cell, seed in runs:
        partitions.append(partition_from_matrix(cell.matrix))
        spec, hp = _seeded(cell, offset, seed)
        trained.append((_share(shared, spec, generate(spec, partitions[-1])), hp))
    outcomes = train_runs(trained, partitions, method=method)
    del trained, shared
    return [
        _score(method, cell, seed, offset, partition, result)
        for (_, cell, seed), partition, result in zip(runs, partitions, outcomes)
    ]


def _seeded(cell: ExperimentConfig, offset: int, seed: int):
    """The data spec and hyperparameters of one run of a config."""
    return (
        replace(cell.synthetic, seed=cell.synthetic.seed + offset + seed),
        replace(cell.hyperparams, seed=cell.hyperparams.seed + offset + seed),
    )


def _share(shared: dict, spec, datasets: list) -> list:
    """``datasets`` with each source that equals the one ``shared`` holds
    for the same data spec and domain replaced by that one."""
    for i, ds in enumerate(datasets[:-1]):
        held = shared.setdefault((spec, i), ds)
        if held is not ds and np.array_equal(held.features, ds.features) and np.array_equal(held.labels, ds.labels):
            datasets[i] = held
    return datasets


def _score(method: str, cell: ExperimentConfig, seed: int, offset: int, partition, result):
    """Evaluate a trained run on a freshly generated held-out target and
    write its artifacts to <output_dir>/runs/<method>_<seed>/; returns its
    summary row and report line. A failed run's directory gets its failed
    report only."""
    chash = config_hash(cell)
    run_dir = Path(cell.output_dir) / "runs" / f"{method}_{seed}"
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
        return _summary_row(partition, chash, method, seed), f"{method} seed {seed}: FAILED ({result})"
    spec, hp = _seeded(cell, offset, seed)
    report = evaluate(
        result.feature_net, result.classifier, generate(spec, partition, draw=1)[-1], partition, hp.w0,
        method=method, config_hash=chash, seed=seed,
    )
    _write_trace(run_dir / "trace.csv", result.trace, partition.n_sources)
    _write_register(run_dir / "tmr.csv", result.register)
    _write_json(run_dir / "report.json", asdict(report))
    line = f"{method} seed {seed}: mean accuracy {report.mean_per_class_accuracy:.4f}"
    return _summary_row(partition, chash, method, seed, report), line


def _map_in_pool(fn, tasks, jobs):
    """Yield ``fn(task)`` for every task, in order, from at most ``jobs``
    worker processes and never more than there are tasks or CPUs. A single
    worker maps in this process, so nothing is pickled. Tasks are handed
    out in list order, so callers list the longest first (:func:`_tasks`).

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


def _sweep_plan(config: ExperimentConfig, axis: str, values, offset: int):
    """The config of every feasible cell of a sweep, by value, writing under
    <output_dir>/sweep/<axis>_<value>/; the pool tasks that train their
    runs; and the problems of the batches whose runs would not fit in
    memory together (:func:`~uman.config.cost_problems`)."""
    base = Path(config.output_dir)
    cells = {}
    for value in values:
        cell, _ = derive_sweep_cell(config, axis, value)
        if cell is not None:
            cells[value] = replace(cell, output_dir=str(base / "sweep" / f"{axis}_{value}"))
    batches = _packed(cells)
    problems = [
        f"{axis} {','.join(str(v) for v in dict.fromkeys(value for value, _, _ in runs))}: {p}"
        for runs in batches
        for p in cost_problems(config, [cell for _, cell, _ in runs])
    ]
    return cells, _tasks(batches, config.methods, offset), problems


def execute_sweep(config: ExperimentConfig, axis: str, values, jobs: int = 1, offset: int = 0):
    """Run the config once per axis value; returns the aggregated rows.

    Every cell writes its own artifacts under <output_dir>/sweep/<axis>_<value>/
    and the aggregate (with per-seed accuracies, their mean, and the
    transfer gain over source_only where available) is returned for a
    single final write. Infeasible values become marked rows; a repeated
    value, or a batch over the cost bound, is rejected before any work
    starts.

    A method's runs train in batches that may hold the runs of several
    cells: the cells that share a training layout, as every cell of a
    ``target_private_size`` sweep does, pack their runs in (cell, seed)
    order into the fewest near-equal batches of at most
    :data:`~uman.config.BATCH_RUNS` runs; a ``num_sources`` cell keeps its
    own. Every batch goes to one pool of at most ``jobs`` workers, and
    never more than there are batches or CPUs, ``uman`` first, then
    ``unweighted_adv``, then ``source_only``, the larger batches of a
    method first. Each run is trained, scored and written as it would be
    alone; each cell's summary.csv is written here, in config order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if (repeat := _repeat(values)) is not None:
        raise ValueError(f"sweep value {repeat} repeats")
    cells, tasks, problems = _sweep_plan(config, axis, values, offset)
    if problems := _seed_problems(config, offset) or problems:
        raise ValueError(problems[0])
    return _run_sweep(config, axis, values, cells, tasks, jobs)


def _run_sweep(config: ExperimentConfig, axis: str, values, cells: dict, tasks: list, jobs: int):
    """:func:`execute_sweep` over the checked plan of :func:`_sweep_plan`."""
    done = _train(tasks, jobs)
    agg_rows = []
    for value in values:
        if value not in cells:
            blank = [""] * (len(config.seeds) + 2)
            agg_rows += [[axis, value, method, "infeasible"] + blank for method in config.methods]
            continue
        cell_rows, per_seed, means = [], {}, {}
        for method in config.methods:
            rows = [done[value, method, seed][0] for seed in config.seeds]
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
    cells, tasks, problems = _sweep_plan(config, axis, values, offset)
    for p in problems:
        print(f"invalid: {p}")
    if problems:
        return 2
    rows = _run_sweep(config, axis, values, cells, tasks, jobs)
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
