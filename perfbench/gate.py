"""Correctness gate applied to every repetition of a workload.

A repetition passes when every expected run is present with status ``ok``,
every accuracy matches the recorded reference for its absolute seed, and its
summary rows are byte-identical to the first repetition's. A failed run is
counted, never dropped. Runs whose absolute seed has no reference are
checked for a finite accuracy in [0, 1] and listed as unreferenced.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# How far a run's accuracy may move off its reference: a few flipped test
# samples on the 200-samples-per-class configs, about one on the tiny one.
TOLERANCE = 0.005


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check(outcomes, offset: int, reference: dict) -> tuple[list[str], int]:
    """Problems found over all repetitions, and the count of unreferenced runs.

    ``reference`` maps run key to accuracies by absolute seed (one
    workload's entry of ``reference.json``).
    """
    problems: list[str] = []
    unreferenced = 0
    first = outcomes[0].rows_bytes if outcomes else b""
    for rep, outcome in enumerate(outcomes):
        where = f"repetition {rep}"
        if len(outcome.runs) != outcome.expected_runs:
            problems.append(f"{where}: {len(outcome.runs)} runs, expected {outcome.expected_runs}")
        if outcome.rows_bytes != first:
            problems.append(f"{where}: summary rows differ from repetition 0")
        for run in outcome.runs:
            name = f"{where}: {run.key} seed {run.seed}"
            if run.status != "ok":
                problems.append(f"{name}: status {run.status!r}")
                continue
            if not (math.isfinite(run.accuracy) and 0.0 <= run.accuracy <= 1.0):
                problems.append(f"{name}: accuracy {run.accuracy!r} outside [0, 1]")
                continue
            expected = reference.get(run.key, [])
            absolute = offset + run.seed
            if not 0 <= absolute < len(expected):
                unreferenced += 1
                continue
            if abs(run.accuracy - expected[absolute]) > TOLERANCE:
                problems.append(
                    f"{name}: accuracy {run.accuracy:.6f}, reference "
                    f"{expected[absolute]:.6f} at absolute seed {absolute}"
                )
    return problems, unreferenced
