"""Command-line experiment runner.

Three verbs operate on a JSON config file:

* ``uman validate <config>`` checks the file as ``uman run`` does, seed
  offset and cost bound included, and prints the realized class layout and
  Jaccard table;
* ``uman run <config>`` trains every configured (method, seed) pair, the
  seeds of one method as one batch and the method batches in parallel
  worker processes (at most one per batch and per CPU), and writes
  per-run artifacts plus a summary CSV;
* ``uman sweep <config> --axis <name> --values a,b,c [--jobs N]`` repeats
  the run along one axis and aggregates the results. A method batch holds
  the runs of every cell that shares its training layout, up to
  :data:`BATCH_RUNS` runs, and every batch goes to one pool of at most N
  worker processes (and at most one per batch and per CPU); a batch never
  starts a pool of its own.

A run is a sweep of one cell, keyed None: both go through one planner,
:func:`_plan`, which finds every problem before anything is written, and
one executor, :func:`_execute`, which trains and then writes every summary
file. :func:`execute_run` and :func:`execute_sweep` write the files the
verbs write. The unit of training is a batch of at most ``BATCH_RUNS``
runs of one method, packed by :func:`_packed` and handed to the pool in
the order of :func:`_tasks`. Each run trains, scores and writes exactly as
it would alone, into its own cell's directory, and summaries and printed
lines follow config order, not the order in which batches finish. A
``source_only`` training serves every cell whose runs it would train the
same, as :func:`_packed` lays out.

The environment variable UMAN_SEED_OFFSET (integer, default 0) is added to
every seed, which relocates an entire experiment to a fresh seed
neighbourhood without touching the config file. Outputs are deterministic:
the same config, seeds, and offset produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
    config_hash,
    derive_sweep_cell,
    load_config,
    run_layout,
)
from .core import ADVERSARIAL, cost_problems, trace_columns, train_runs
from .evaluate import evaluate
from .labelspace import typed_value
from .synth import DomainDataset, domain_rows, draw_domain, rotation_floats

__all__ = ["main", "execute_run", "execute_sweep"]

# the most runs one method batch trains together: past about 6 runs a run's
# step costs no less, while each run adds its data and step buffers (about
# 1.2 MB at the committed config's widths) to the batch's memory
BATCH_RUNS = 6


def _read_seed_offset() -> tuple[int, list[str]]:
    """UMAN_SEED_OFFSET (0 when unset or blank), and why it is invalid."""
    raw = os.environ.get("UMAN_SEED_OFFSET", "0").strip() or "0"
    try:
        return int(raw), []
    except ValueError:
        return 0, [f"UMAN_SEED_OFFSET must be an integer, got {raw!r}"]


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def cmd_validate(path) -> int:
    if (loaded := _runnable(path)) is None:
        return 1
    config = loaded[0]
    partition = config.matrix.partition
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
    # the Jaccard similarity of each source with the target, then of each pair of sources
    sources = [set(labels) for labels in partition.source_labels]
    pairs = [(i + 1, a, set(partition.target_labels)) for i, a in enumerate(sources)]
    pairs += [(f"{i + 1}{j + 1}", sources[i], sources[j]) for i, j in itertools.combinations(range(len(sources)), 2)]
    for name, a, b in pairs:
        print(f"xi_{name} = {len(a & b)}/{len(a | b)} = {len(a & b) / len(a | b):.4f}")
    return 0


def _summary_row(partition, chash, method, seed, report=None) -> list:
    if report is None:
        return [chash, method, seed, "failed", ""] + [""] * (len(partition.common_union) + 1)
    cells = [report.per_class_accuracy.get(str(c), "") for c in partition.common_union]
    cells.append(report.per_class_accuracy.get("unknown", ""))
    return [chash, method, seed, "ok", report.mean_per_class_accuracy] + cells


def execute_run(config: ExperimentConfig, offset: int = 0, quiet: bool = False):
    """Run every (method, seed) pair of a config, as ``uman run`` does, and
    write its summary.csv; returns the summary rows.

    A method's seeds train as one batch (:func:`uman.core.train_runs`), or
    as the fewest near-equal batches of at most :data:`BATCH_RUNS` runs,
    each run exactly as it would alone. The batches run in worker processes,
    at most one per batch and per CPU; a single worker runs them in this
    process. Each batch draws its own data, writes its own artifacts and
    returns only its summary rows and the lines it reports; rows come back
    and lines are printed in config order, so neither the output nor any
    artifact depends on the number of workers.

    Per-run artifacts land in <output_dir>/runs/<method>_<seed>/: the
    training trace, the final margin-register values, and the evaluation
    report, which also names the seed offset and the run's effective data
    and training seeds (each a section seed plus the offset plus the run's
    seed). A run that diverges is recorded as a failed row, its directory
    gets only a report.json with status "failed", the error, the step and
    the seeds, and the remaining runs still execute. A negative effective
    seed or a batch over the cost bound raises ValueError, and a
    non-integer offset TypeError, before anything is written (:func:`_plan`).
    A config or section whose fields the file would refuse cannot be
    built, so it never reaches a run.
    """
    cells, tasks, problems = _plan(config, offset)
    if problems:
        raise ValueError(problems[0])
    return _execute(config, None, (None,), cells, tasks, quiet=quiet)[0]


def execute_sweep(config: ExperimentConfig, axis: str, values, jobs: int = 1, offset: int = 0):
    """Run the config once per axis value, as ``uman sweep`` does, and
    write every cell's summary.csv and the aggregate
    <output_dir>/sweep_<axis>.csv; returns the aggregate rows.

    Every cell writes its own artifacts under <output_dir>/sweep/<axis>_<value>/.
    The aggregate holds per-seed accuracies, their mean, and the transfer
    gain over source_only where available. Infeasible values become
    marked rows. ``values`` is read once into a list, so an array runs as
    its list. An unknown axis, no values, a repeated value, ``jobs``
    below 1, a negative effective seed or a batch over the cost bound
    raises ValueError, and a non-integer offset, value or ``jobs``
    TypeError, before any work starts (:func:`_plan`). A config or section
    whose fields the file would refuse cannot be built.

    A method's runs train in batches that may hold the runs of several
    cells, and one ``source_only`` training may serve several cells
    (:func:`_packed`). Every batch goes to one pool of at most ``jobs``
    workers, and never more than there are batches or CPUs, in the order
    of :func:`_tasks`. Each run is trained, scored and written as it would
    be alone.
    """
    values = list(values)
    cells, tasks, problems = _plan(config, offset, axis, values, jobs)
    if problems:
        raise ValueError(problems[0])
    return _execute(config, axis, values, cells, tasks, jobs)[0]


def _plan(config: ExperimentConfig, offset: int, axis=None, values=(None,), jobs=1):
    """The cells of an experiment by key, the pool tasks that train their
    runs (:func:`_tasks`), and every problem that keeps it from running. A
    run is the one cell keyed None; a sweep has one per feasible axis
    value, writing under <output_dir>/sweep/<axis>_<value>/. The problems
    are a sweep's unknown axis, missing values, first repeated value and
    ``jobs`` below 1, a negative effective seed (a config seed plus the
    offset) and each batch whose runs would not fit in memory together
    (:func:`~uman.core.cost_problems`, at the config's methods), a sweep's
    named by its values. A non-integer offset, or a sweep's non-integer
    ``jobs``, raises TypeError."""
    offset = typed_value("offset", "int", offset)
    cells, problems = {None: config}, []
    if axis is not None:
        jobs = typed_value("jobs", "int", jobs)
        if axis not in SWEEP_AXES:
            problems.append(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
        if not values:
            problems.append("a sweep needs at least one value")
        if (repeat := next((v for i, v in enumerate(values) if v in values[:i]), None)) is not None:
            problems.append(f"sweep value {repeat} repeats")
        if jobs < 1:
            problems.append(f"jobs must be >= 1, got {jobs}")
        derived = {value: derive_sweep_cell(config, axis, value)[0] for value in values}
        base = Path(config.output_dir) / "sweep"
        cells = {v: replace(cell, output_dir=str(base / f"{axis}_{v}")) for v, cell in derived.items() if cell is not None}
    tasks = _tasks(cells, config.methods, offset)
    low = min(config.synthetic.seed, config.hyperparams.seed) + min(config.seeds) + offset
    if low < 0:
        problems.append(f"seed offset {offset} makes the effective seed {low}; every seed must be >= 0")
    for _, entries, _ in tasks:
        keys = ",".join(str(key) for key in dict.fromkeys(key for (key, _, _), *_ in entries))
        costs = [(run_layout(c), sum(domain_rows(c.synthetic, c.matrix.partition)), c.methods, rotation_floats(c.synthetic))
                 for (_, c, _), *_ in entries]
        problems += [p if axis is None else f"{axis} {keys}: {p}" for p in cost_problems(costs)]
    return cells, tasks, list(dict.fromkeys(problems))


def _execute(config: ExperimentConfig, axis, values, cells: dict, tasks: list, jobs=None, quiet=True):
    """Train the tasks of a plan (:func:`_plan`) in one pool of at most
    ``jobs`` workers (by default one per task), then write every summary
    file of the experiment in config order: each cell's summary.csv, then a
    sweep's <output_dir>/sweep_<axis>.csv. Prints each run's line unless
    ``quiet``; returns the rows of the experiment's own summary file (a
    run's summary.csv, a sweep's aggregate) and its path."""
    done = _train(tasks, jobs or len(tasks))
    agg_rows = []
    for value in values:
        if value not in cells:
            blank = [""] * (len(config.seeds) + 2)
            agg_rows += [[axis, value, method, "infeasible"] + blank for method in config.methods]
            continue
        cell_rows, per_seed, means = [], {}, {}
        for method in config.methods:
            rows, lines = zip(*(done[value, method, seed] for seed in config.seeds))
            cell_rows += rows
            if not quiet:
                print(*lines, sep="\n")
            per_seed[method] = [row[4] if row[3] == "ok" else "" for row in rows]
            ok = [v for v in per_seed[method] if v != ""]
            means[method] = sum(ok) / len(ok) if ok else ""
        out = _write_summary(cells[value], cell_rows)
        baseline = means.get("source_only", "")
        for method, accs in per_seed.items():
            mean, status = means[method], "ok" if "" not in accs else "partial"
            gain = mean - baseline if method in ADVERSARIAL and "" not in (mean, baseline) else ""
            agg_rows.append([axis, value, method, status] + accs + [mean, gain])
    if axis is None:
        return cell_rows, out
    seeds = [f"acc_seed_{s}" for s in config.seeds]
    out = Path(config.output_dir) / f"sweep_{axis}.csv"
    _write_csv(out, ["axis", "value", "method", "status"] + seeds + ["acc_mean", "transfer_gain"], agg_rows)
    return agg_rows, out


# the order in which the pool is handed the method batches: a step of each
# method does a superset of the next one's work, so the longest start first
_HAND_OUT = ("uman", "unweighted_adv", "source_only")


def _packed(cells: dict, method: str) -> list:
    """The runs of ``method`` of every config in ``cells`` (by key) as its
    batches, largest first, each a list of entries: the ``(key, config,
    seed)`` runs one training serves. A run of a method outside
    :data:`~uman.core.ADVERSARIAL` reads no target, and shares its entry
    with every run of the same training layout, data spec, hyperparameters,
    source label sets and seed, all that its training and its sources'
    draws (:func:`~uman.synth.draw_domain`) read; any other run has its
    own. The entries of one training layout, in (cell, seed) order, fill the
    fewest near-equal batches of at most :data:`BATCH_RUNS` entries (:func:`batch_runs`)."""
    groups: dict = {}
    for key, cell in cells.items():
        entries = groups.setdefault(run_layout(cell), {})
        sources = cell.matrix.partition.source_labels
        for seed in cell.seeds:
            reads = (key, seed) if method in ADVERSARIAL else (cell.synthetic, cell.hyperparams, sources, seed)
            entries.setdefault(reads, []).append((key, cell, seed))
    batches = []
    for entries in groups.values():
        entries = list(entries.values())
        for size in batch_runs(len(entries)):
            batches.append(entries[:size])
            entries = entries[size:]
    return sorted(batches, key=len, reverse=True)


def batch_runs(n: int) -> list[int]:
    """How many runs each of the fewest near-equal batches of at most
    :data:`BATCH_RUNS` runs holds, for ``n`` runs, largest first."""
    count = -(-n // BATCH_RUNS)
    size, larger = divmod(n, count)
    return [size + 1] * larger + [size] * (count - larger)


def _tasks(cells: dict, methods, offset: int) -> list:
    """The pool tasks that train every method's batches (:func:`_packed`)
    in hand-out order: by method as :data:`_HAND_OUT` lists them, then
    largest first."""
    return [(method, runs, offset) for method in sorted(methods, key=_HAND_OUT.index) for runs in _packed(cells, method)]


def _train(tasks: list, jobs: int) -> dict:
    """Run the tasks of :func:`_tasks` in one pool of at most ``jobs``
    workers; returns each run's summary row and report line by (key,
    method, seed)."""
    done = {}
    for (method, runs, _), outcomes in zip(tasks, _map_in_pool(_run_method_batch, tasks, jobs)):
        for (key, _, seed), outcome in zip(itertools.chain(*runs), outcomes):
            done[key, method, seed] = outcome
    return done


def _run_method_batch(task):
    """Train one method batch of entries (:func:`_packed`), the first run
    of each, then score each training for every run of its entry and
    write its artifacts into that run's own config's directory, in batch
    order; returns each run's summary row and report line. Top-level so
    process pools can pickle it.

    The batch draws each domain once, by :func:`~uman.synth.draw_domain`,
    keyed by that draw's arguments, so every run that reads a domain
    shares it. A run of a method outside :data:`~uman.core.ADVERSARIAL`
    draws no target: training reads its length only. The training data is
    freed before scoring, which draws each run's held-out target alone."""
    method, entries, offset = task
    domain = functools.cache(draw_domain)
    trained, partitions = [], [cell.matrix.partition for (_, cell, _), *_ in entries]
    for (_, cell, seed), *_ in entries:
        partition = cell.matrix.partition
        spec, hp = _seeded(cell, offset, seed)
        datasets = [domain(spec, k, labels, 0, False) for k, labels in enumerate(partition.source_labels)]
        if method in ADVERSARIAL:
            datasets.append(domain(spec, len(datasets), partition.target_labels, 0, True))
        else:
            stand_in = np.broadcast_to(0.0, (domain_rows(spec, partition)[-1], spec.feature_dim))
            datasets.append(DomainDataset(len(datasets), stand_in, None, None))
        trained.append((datasets, hp))
    outcomes = train_runs(trained, partitions, method=method)
    del trained, domain
    return [
        _score(method, cell, seed, offset, result)
        for entry, result in zip(entries, outcomes)
        for _, cell, seed in entry
    ]


def _seeded(cell: ExperimentConfig, offset: int, seed: int):
    """The data spec and hyperparameters of one run of a config."""
    return (
        replace(cell.synthetic, seed=cell.synthetic.seed + offset + seed),
        replace(cell.hyperparams, seed=cell.hyperparams.seed + offset + seed),
    )


def _score(method: str, cell: ExperimentConfig, seed: int, offset: int, result):
    """Evaluate a trained run on a freshly drawn held-out target of
    ``cell``, the one domain it draws, and write its artifacts to
    <output_dir>/runs/<method>_<seed>/; returns its summary row and report
    line. A failed run's directory gets its failed report only. Every report
    starts from the run's identity, which no evaluation report holds: its config
    hash, method and seed, the seed offset and the effective data and training seeds."""
    chash, partition = config_hash(cell), cell.matrix.partition
    spec, hp = _seeded(cell, offset, seed)
    identity = {
        "config_hash": chash, "method": method, "seed": seed,
        "data_seed": spec.seed, "seed_offset": offset, "training_seed": hp.seed,
    }
    run_dir = Path(cell.output_dir) / "runs" / f"{method}_{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(result, Exception):
        # a failed run's directory holds its report only, not the
        # artifacts an earlier run into the same directory left
        for stale in ("trace.csv", "tmr.csv"):
            (run_dir / stale).unlink(missing_ok=True)
        _write_json(run_dir / "report.json", {**identity, "error": str(result), "status": "failed", "step": result.step})
        return _summary_row(partition, chash, method, seed), f"{method} seed {seed}: FAILED ({result})"
    test = draw_domain(spec, partition.n_sources, partition.target_labels, 1, True)
    report = evaluate(result.feature_net, result.classifier, test, partition, hp.w0)
    _write_trace(run_dir / "trace.csv", result.trace, partition.n_sources)
    _write_register(run_dir / "tmr.csv", result.register)
    _write_json(run_dir / "report.json", {**asdict(report), **identity})
    line = f"{method} seed {seed}: mean accuracy {report.mean_per_class_accuracy:.4f}"
    return _summary_row(partition, chash, method, seed, report), line


def _map_in_pool(fn, tasks, jobs):
    """Yield ``fn(task)`` for every task, in order, from at most ``jobs``
    worker processes and never more than there are tasks or CPUs this
    process may run on (its affinity mask, where the OS has one). A single
    worker maps in this process, so nothing is pickled. Tasks are handed
    out in list order, so callers list the longest first (:func:`_tasks`).

    A worker gets the next task as soon as it finishes one, whatever the
    order in which results are due, so a long task at the head never
    leaves another worker idle. After a task raises no further task is
    handed out, as none would be in this process; its error reaches the
    caller when its result is due, once the tasks still running finish.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(tasks), cpus)
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
    # the first column, the step, and the last, the gate, are integers; one
    # row at a time, so a run's trace is never all held as Python floats
    rows = ([int(row[0]), *row[1:-1], int(row[-1])] for row in map(np.ndarray.tolist, trace))
    _write_csv(path, trace_columns(n_sources), rows)


def _write_register(path, register):
    _write_csv(path, ["class_index", "value"], enumerate(register.values.tolist()))


def _write_summary(config: ExperimentConfig, rows) -> Path:
    """Write a run's summary rows to <output_dir>/summary.csv; returns the path."""
    common = config.matrix.partition.common_union
    header = ["config_hash", "method", "seed", "status", "mean_per_class_accuracy"]
    out = Path(config.output_dir) / "summary.csv"
    _write_csv(out, header + [f"acc_{c}" for c in common] + ["acc_unknown"], rows)
    return out


def _runnable(path, axis=None, values=(None,), jobs=None):
    """The config at ``path`` and its cells and tasks (:func:`_plan`) at
    the seed offset (0 if bad), or None after printing every problem that
    keeps it from running: the one gate of ``uman validate``, ``uman run``
    and ``uman sweep``."""
    config, problems = load_config(path)
    if not problems:
        offset, problems = _read_seed_offset()
        cells, tasks, planned = _plan(config, offset, axis, values, jobs)
        problems += planned
    for p in problems:
        print(f"invalid: {p}")
    return None if problems else (config, cells, tasks)


def cmd_experiment(path, axis=None, values=(None,), jobs=None) -> int:
    """``uman run`` of the config at ``path``, or ``uman sweep`` along
    ``axis``: train it and print the path of its summary file, or exit 2
    after printing every problem. A sweep prints no per-run lines."""
    if (loaded := _runnable(path, axis, values, jobs)) is None:
        return 2
    config, cells, tasks = loaded
    _, out = _execute(config, axis, values, cells, tasks, jobs, quiet=axis is not None)
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
        return cmd_experiment(args.config)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        print(f"invalid: --values must be comma-separated integers, got {args.values!r}")
        return 2
    return cmd_experiment(args.config, args.axis, values, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
