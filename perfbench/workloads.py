"""Workload definitions: a config goes in, run directories and rows come out.

Every workload starts from the committed ``demos/configs/standard.json`` (the
self-test starts from a tiny config) and runs through the package's public
entry points ``uman.cli.execute_run`` / ``uman.cli.execute_sweep``. Package
functions are looked up as module attributes at call time, so the tracer's
wrappers see every call the benchmark makes.

The workload seed is passed as the ``offset`` of those entry points, the same
path as ``UMAN_SEED_OFFSET``: run ``(offset k, config seed s)`` trains on the
absolute seed ``k + s`` for both data and weights.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import uman.cli
import uman.config
import uman.labelspace
from bootstrap import ROOT

STANDARD_CONFIG = ROOT / "demos" / "configs" / "standard.json"

# 250-step config of the acceptance battery's rerun-determinism check
SELFTEST_CONFIG = {
    "umda_matrix": [[3, 3, 4], [2, 2, 2]],
    "synthetic": {"feature_dim": 8, "samples_per_class": 30, "noise_sigma": 0.4, "seed": 0},
    "hyperparams": {
        "max_steps": 250,
        "batch_size": 16,
        "feature_hidden": [16],
        "feature_dim": 8,
        "disc_hidden": [8],
        "grl_max_lambda": 0.2,
        "seed": 0,
    },
    "methods": ["uman", "source_only", "unweighted_adv"],
    "seeds": [0, 1],
    "output_dir": "unused",
}

NAMES = ("standard", "wide_sources", "sweep_short", "selftest")
SWEEP_AXIS = "target_private_size"
SWEEP_VALUES = tuple(range(7))


@dataclass(frozen=True)
class Plan:
    """One workload, ready to execute into ``config.output_dir``."""

    config: object  # uman.config.ExperimentConfig
    sweep: bool = False
    jobs: int = 1

    @property
    def out(self) -> Path:
        return Path(self.config.output_dir)


@dataclass(frozen=True)
class Run:
    """One trained (cell, method, seed) as its summary row reports it."""

    cell: str  # "" for execute_run workloads, "<axis>=<value>" in a sweep
    method: str
    seed: int
    status: str
    accuracy: float | None

    @property
    def key(self) -> str:
        return f"{self.cell}/{self.method}" if self.cell else self.method


@dataclass
class Outcome:
    """What one execution of a plan produced."""

    runs: list
    expected_runs: int
    rows_bytes: bytes  # every summary row, for byte-identity across repetitions


def _config_path(name: str, out: Path) -> Path:
    if name != "selftest":
        return STANDARD_CONFIG
    out.parent.mkdir(parents=True, exist_ok=True)
    path = out.parent / f"{out.name}.config.json"
    path.write_text(json.dumps(SELFTEST_CONFIG, indent=2))
    return path


def prepare(name: str, out: Path, seeds=None, jobs: int = 1) -> Plan:
    """Load and validate the workload's config, derive its cell, partition it.

    ``seeds`` overrides the config's seed list (the reference builder trains
    one absolute seed at a time); ``jobs`` is the sweep's process count.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    config, problems = uman.config.load_config(_config_path(name, out))
    if problems:
        raise ValueError(f"{name}: invalid config: {problems}")
    sweep = False
    if name == "wide_sources":
        config, problems = uman.config.derive_sweep_cell(config, "num_sources", 5)
        if problems:
            raise ValueError(f"{name}: cannot derive the 5-source cell: {problems}")
        config = replace(config, seeds=(0,))
    elif name == "sweep_short":
        config = replace(
            config, seeds=(0, 1), hyperparams=replace(config.hyperparams, max_steps=250)
        )
        sweep = True
    if seeds is not None:
        config = replace(config, seeds=tuple(seeds))
    config = replace(config, output_dir=str(out))
    # `uman run` partitions the label sets before its first run, as here
    uman.labelspace.partition_from_matrix(config.matrix)
    return Plan(config, sweep=sweep, jobs=jobs if sweep else 1)


def _run_from_row(cell, row) -> Run:
    status = row[3]
    acc = float(row[4]) if status == "ok" else None
    return Run(cell, row[1], int(row[2]), status, acc)


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def execute(plan: Plan, offset: int) -> Outcome:
    """Run the plan once through the public entry point; collect its rows."""
    cfg = plan.config
    per_cell = len(cfg.methods) * len(cfg.seeds)
    if not plan.sweep:
        rows = uman.cli.execute_run(cfg, offset, quiet=True)
        runs = [_run_from_row("", row) for row in rows]
        return Outcome(runs, per_cell, _csv_bytes(rows))

    agg = uman.cli.execute_sweep(cfg, SWEEP_AXIS, list(SWEEP_VALUES), jobs=plan.jobs, offset=offset)
    runs, blobs = [], [_csv_bytes(agg)]
    for value in SWEEP_VALUES:
        summary = plan.out / "sweep" / f"{SWEEP_AXIS}_{value}" / "summary.csv"
        try:
            blob = summary.read_bytes()
        except FileNotFoundError:
            continue  # an infeasible or lost cell shows as missing runs
        blobs.append(blob)
        rows = list(csv.reader(io.StringIO(blob.decode())))[1:]
        runs.extend(_run_from_row(f"{SWEEP_AXIS}={value}", row) for row in rows)
    return Outcome(runs, per_cell * len(SWEEP_VALUES), b"".join(blobs))


def artifact_bytes(out: Path) -> int:
    """Total size of every file the plan's last execution wrote."""
    total = 0
    for dirpath, _, filenames in os.walk(out):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in filenames)
    return total
