"""Self-test of the benchmark: every metric is printed, the gate can fail.

    python3 perfbench/selftest.py

1. Runs the tiny ``selftest`` workload through ``run.py`` with tracing off and
   on, and checks that the result is correct and names every metric of
   ``BENCHMARK.json`` with its unit, both in the JSON line and as a
   ``name = value unit`` line.
2. Tampers with a real outcome of that workload, once marking a run failed
   and once moving an accuracy off its reference, and checks that the gate
   reports each.
3. Installs the tracer with names that do not exist, as after a refactor,
   and checks that they are reported absent and everything is restored.
4. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and the
   benchmark's files, and checks that it exits non-zero without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

from bootstrap import ROOT, bootstrap

bootstrap()

import gate  # noqa: E402  (after bootstrap: needs the pinned env and sys.path)
import tracer  # noqa: E402
import uman.core  # noqa: E402
import workloads  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def check_printed_metrics(trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "selftest", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=False,
    )
    where = f"--trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = [] if result["correct"] else [f"{where}: result not correct"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {name} missing or malformed in the result: {got}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{where}: no printed line for {name} in {unit}")
    return problems


def check_tampering() -> list[str]:
    out = ROOT / ".bench_out" / f"selftest-tamper-{os.getpid()}" / "run"
    try:
        outcome = workloads.execute(workloads.prepare("selftest", out), 0)
    finally:
        shutil.rmtree(out.parent, ignore_errors=True)
    reference = gate.load_reference()["selftest"]
    problems = []
    found, _ = gate.check([outcome], 0, reference)
    if found:
        problems.append(f"untampered outcome fails the gate: {found}")

    first = outcome.runs[0]
    tampered = {
        "a run marked failed": replace(first, status="failed", accuracy=None),
        "an accuracy off its reference": replace(first, accuracy=first.accuracy + 0.05),
    }
    for what, run in tampered.items():
        bad = replace(outcome, runs=[run] + outcome.runs[1:])
        found, _ = gate.check([outcome, bad], 0, reference)
        if not found:
            problems.append(f"the gate passes {what}")
    return problems


def check_absent_names() -> list[str]:
    missing = (("uman.core", "no_such_function", "nn.forward", True),
               ("uman.core", "NoSuchClass.update", "core.register", True))
    before = dict(vars(uman.core))
    saved = tracer.TRACED
    tracer.TRACED = saved + missing
    try:
        with tracer.Tracer() as tr:
            wrapped = uman.core.forward_mlp is not before["forward_mlp"]
    finally:
        tracer.TRACED = saved
    problems = []
    if tr.absent != ["uman.core.no_such_function", "uman.core.NoSuchClass.update"]:
        problems.append(f"absent names reported as {tr.absent}")
    if not wrapped or dict(vars(uman.core)) != before:
        problems.append("the tracer did not wrap and restore uman.core")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_out" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "standard", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"a bare directory gave exit code {proc.returncode} and output {proc.stdout!r}"]
    return []


def main() -> int:
    problems = check_printed_metrics(0) + check_printed_metrics(1)
    problems += check_tampering() + check_absent_names() + check_bare_directory()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
