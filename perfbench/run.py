"""Benchmark of the uman experiment runner, end to end and per layer.

    python3 perfbench/run.py --workload standard --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

A run repeats its workload into a fresh output directory under
``.bench_out/`` for about ``--seconds`` seconds (at least once) and gates
every repetition (see ``gate.py``). ``--seed`` is passed to the package as the
seed offset. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
repetitions (see ``tracer.py``) and reports the per-layer metrics. Traced sweeps
run their cells in this process, untraced sweeps in a two-process pool.

Every metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

from bootstrap import ROOT, SRC, THREAD_VARS, bootstrap

bootstrap()

import numpy  # noqa: E402  (after bootstrap: BLAS threads are pinned)

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("standard", "wide_sources", "sweep_short")
METHODS = ("uman", "source_only", "unweighted_adv")
SETUP_PROBES = 7
SWEEP_JOBS = min(2, os.cpu_count() or 1)


def machine_record() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = {
        path.stem: len(path.read_text().splitlines())
        for path in sorted((SRC / "uman").glob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "sweep_jobs": SWEEP_JOBS,
        "machine": "shared with other tenants; cores and clocks are not pinned",
        "source_lines": dict(lines, total=sum(lines.values())),
    }


def setup_seconds(name: str, out) -> list[float]:
    """Fresh-interpreter time until the workload's first run could start.

    Each probe imports the package, loads and validates the config and
    partitions its label sets, then prints ``time.monotonic()``; the clock is
    system-wide, so the difference to the spawn time spans the whole set-up.
    """
    probe = ROOT / "perfbench" / "setup_probe.py"
    times = []
    for i in range(SETUP_PROBES):
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), name, str(out.parent / f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def repetition(name, out, offset, jobs):
    """Execute the workload once into a fresh directory; time the entry point."""
    shutil.rmtree(out, ignore_errors=True)
    plan = workloads.prepare(name, out, jobs=jobs)
    t0 = perf_counter()
    outcome = workloads.execute(plan, offset)
    return outcome, perf_counter() - t0


def repeat(name, out, offset, seconds, jobs):
    """Repeat the workload while another repetition fits into ``seconds``."""
    outcomes, walls = [], []
    start = perf_counter()
    while True:
        outcome, wall = repetition(name, out, offset, jobs)
        outcomes.append(outcome)
        walls.append(wall)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return outcomes, walls


def _per(num, den, scale=1.0) -> float:
    return num * scale / den if den else 0.0


def accuracy_by_method(outcomes) -> dict:
    values = {m: [] for m in METHODS}
    for outcome in outcomes:
        for run in outcome.runs:
            if run.status == "ok" and run.method in values:
                values[run.method].append(run.accuracy)
    return {m: statistics.fmean(v) if v else 0.0 for m, v in values.items()}


def end_to_end(name, out, offset, seconds):
    setups = setup_seconds(name, out)
    outcomes, walls = repeat(name, out, offset, seconds, SWEEP_JOBS)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    runs = [run for o in outcomes for run in o.runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "run_ok_ratio": _per(sum(r.status == "ok" for r in runs), len(runs)),
    }
    notes = [f"{len(walls)} repetitions, wall_s samples {[round(w, 4) for w in walls]}",
             f"setup_s samples {[round(s, 4) for s in setups]}"]
    notes += [f"acc.{m} = {acc:.6g} fraction" for m, acc in accuracy_by_method(outcomes).items()]
    return outcomes, metrics, notes


def per_layer(name, out, offset, seconds):
    """Alternate untraced and traced repetitions for about 2 x ``seconds``."""
    tr = tracer.Tracer()
    plain, plain_walls, traced, traced_walls = [], [], [], []
    start = perf_counter()
    while True:
        outcome, wall = repetition(name, out, offset, jobs=1)
        plain.append(outcome)
        plain_walls.append(wall)
        with tr:
            outcome, wall = repetition(name, out, offset, jobs=1)
        traced.append(outcome)
        traced_walls.append(wall)
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if perf_counter() - start + pair > 2 * seconds:
            break
    n_runs = sum(len(o.runs) for o in traced)
    steps = sum(tr.steps.values())
    layers = tr.layers

    def us_per_step(layer):
        return _per(layers[layer].own, steps, 1e6)

    intervals = sorted(tr.step_intervals)
    pct = statistics.quantiles(intervals, n=100) if len(intervals) > 1 else [0.0] * 99
    metrics = {
        "nn.forward.us_per_step": us_per_step("nn.forward"),
        "nn.forward.calls_per_step": _per(layers["nn.forward"].calls, steps),
        "nn.backward.us_per_step": us_per_step("nn.backward"),
        "nn.sgd.us_per_step": us_per_step("nn.sgd"),
        "core.step_us.p50": pct[49] * 1e6,
        "core.step_us.p99": pct[98] * 1e6,
        "core.step_us.samples": len(intervals),
        "core.losses.us_per_step": us_per_step("core.losses"),
        "core.margins.us_per_step": us_per_step("core.margins"),
        "core.register.us_per_step": us_per_step("core.register"),
        "core.register.gate_open_ratio": _per(tr.register_updates["uman"], tr.steps["uman"]),
        "core.weights.us_per_step": us_per_step("core.weights"),
        "core.self.us_per_step": us_per_step("core.train"),
        "synth.batch.us_per_step": us_per_step("synth.batch"),
        "synth.generate.ms_per_call": _per(layers["synth.generate"].own, layers["synth.generate"].calls, 1e3),
        "evaluate.evaluate.ms_per_run": _per(layers["evaluate.evaluate"].own, n_runs, 1e3),
        "evaluate.run_method.s": _per(layers["evaluate.run_method"].inclusive, n_runs),
        "cli.self.ms_per_run": _per(layers["cli.execute_run"].own, n_runs, 1e3),
        "cli.artifact_bytes_per_run": _per(workloads.artifact_bytes(out), len(traced[-1].runs)),
        "config.load.ms": _per(layers["config.load"].own, layers["config.load"].calls, 1e3),
        "config.cli.ms_per_run": _per(layers["config.cli"].own, n_runs, 1e3),
        "labelspace.partition.ms": _per(
            layers["labelspace.partition"].own, layers["labelspace.partition"].calls, 1e3
        ),
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        "trace.absent_names": len(tr.absent),
    }
    metrics.update({f"acc.{m}": acc for m, acc in accuracy_by_method(plain).items()})
    for m in METHODS:
        metrics[f"core.train.us_per_step.{m}"] = _per(tr.train_seconds[m], tr.steps[m], 1e6)
        metrics[f"nn.tape_ops_per_step.{m}"] = _per(tr.tape_ops[m], tr.backward_calls[m])
    notes = [f"{len(plain_walls)} untraced and {len(traced_walls)} traced repetitions",
             f"absent traced names: {tr.absent or 'none'}"]
    return plain + traced, metrics, notes


def run_one(name: str, offset: int, seconds: int, trace: bool) -> int:
    spec = json.loads(BENCHMARK.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    reference = gate.load_reference().get(name, {})
    work = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    print("machine " + json.dumps(machine_record(), sort_keys=True), flush=True)
    try:
        measure = per_layer if trace else end_to_end
        outcomes, values, notes = measure(name, work / "run", offset, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems, unreferenced = gate.check(outcomes, offset, reference)
    for note in notes + [f"{unreferenced} runs without a reference accuracy"]:
        print(f"note: {note}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for key, entry in metrics.items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    runs = [run for o in outcomes for run in o.runs]
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(run.status != "ok" for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one merged JSON line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("selftest", "all"))
    parser.add_argument("--seed", type=int, default=0, help="seed offset of every run")
    parser.add_argument("--seconds", type=int, default=20, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
