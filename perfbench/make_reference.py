"""Record the per-run accuracies the benchmark's correctness gate checks.

    python3 perfbench/make_reference.py --seeds 66 [--workloads standard,sweep_short]
        [--out perfbench/reference.json]

For each workload, trains every run of its config once per absolute seed
0..N-1 and stores ``mean_per_class_accuracy`` by run key and absolute seed.
Workload seed k with config seeds S then checks run (s in S) against absolute
seed k + s, so N absolute seeds cover workload seeds 0..N-1-max(S). Entries
of workloads not named are kept from the existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from bootstrap import ROOT, bootstrap

bootstrap()

import workloads  # noqa: E402  (after bootstrap: needs the pinned env and sys.path)

REFERENCE = ROOT / "perfbench" / "reference.json"


def accuracies(name: str, n_seeds: int) -> dict:
    """{run key: [accuracy at absolute seed 0, 1, ...]} for one workload."""
    out = ROOT / ".bench_out" / f"reference-{name}-{os.getpid()}"
    table: dict[str, list] = {}
    try:
        for absolute in range(n_seeds):
            shutil.rmtree(out, ignore_errors=True)
            plan = workloads.prepare(name, out, seeds=(0,))
            outcome = workloads.execute(plan, absolute)
            for run in outcome.runs:
                if run.status != "ok":
                    raise SystemExit(f"{name}: run {run.key} failed at absolute seed {absolute}")
                table.setdefault(run.key, []).append(run.accuracy)
            print(f"{name} absolute seed {absolute}: {len(outcome.runs)} runs", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        (out.parent / f"{out.name}.config.json").unlink(missing_ok=True)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="absolute seeds 0..N-1")
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--out", default=str(REFERENCE))
    args = parser.parse_args()
    try:
        with open(args.out) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in args.workloads.split(","):
        reference[name] = accuracies(name, args.seeds)
    tmp = f"{args.out}.tmp"
    with open(tmp, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
