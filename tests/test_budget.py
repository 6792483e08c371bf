"""Calls-per-step budget of the training step.

The nets are tiny, so a step's cost is Python and numpy dispatch: the
number of calls a step makes is the quantity a change to the step moves.
cProfile counts the calls of the package's own functions and the calls
they make (numpy's entry points among them), but not the calls numpy makes
inside its own functions, which a numpy release may change. It counts
them for each method at the two layouts the benchmark trains, the 5-source cell of the committed config at one seed
and the committed config itself (2 sources, 3 seeds). A step's count is
that of a 2K-step run less that of a K-step run, over K, for the chunk
length K, after one run that fills the caches, so the setup and the
first chunk cancel out.
Each count must stay within 3% of its budget; ``conftest.py`` prints the
counts after the run summary.
"""

import cProfile
import pstats
from dataclasses import replace
from pathlib import Path

import pytest

import uman
from uman.config import derive_sweep_cell, load_config
from uman.core import CHUNK, METHODS, train_runs
from uman.labelspace import partition_from_matrix
from uman.synth import generate

STANDARD = Path(__file__).resolve().parents[1] / "demos" / "configs" / "standard.json"
PACKAGE = str(Path(uman.__file__).parent)

# calls per step when the budget was set; a count may exceed it by 3%
BUDGET = {
    ("5 sources, R=1", "uman"): 147.3,
    ("5 sources, R=1", "source_only"): 72.1,
    ("5 sources, R=1", "unweighted_adv"): 105.8,
    ("2 sources, R=3", "uman"): 159.2,
    ("2 sources, R=3", "source_only"): 74.9,
    ("2 sources, R=3", "unweighted_adv"): 108.6,
}
SLACK = 1.03

RESULTS: list[str] = []


def _layout(name):
    config, problems = load_config(STANDARD)
    assert problems == []
    if name.startswith("5"):
        config, problems = derive_sweep_cell(config, "num_sources", 5)
        assert problems == []
        config = replace(config, seeds=(0,))
    return config


def _calls(config, method, steps):
    partition = partition_from_matrix(config.matrix)
    runs = [
        (
            generate(replace(config.synthetic, seed=config.synthetic.seed + seed), partition),
            replace(config.hyperparams, seed=config.hyperparams.seed + seed, max_steps=steps),
        )
        for seed in config.seeds
    ]
    profile = cProfile.Profile()
    profile.runcall(train_runs, runs, partition, method=method)
    total = 0
    for (path, _, _), (_, calls, _, _, callers) in pstats.Stats(profile).stats.items():
        if path.startswith(PACKAGE):
            total += calls
        else:
            total += sum(by[0] for (caller, _, _), by in callers.items() if caller.startswith(PACKAGE))
    return total


@pytest.mark.parametrize("layout", sorted({layout for layout, _ in BUDGET}))
def test_calls_per_step_stay_in_budget(layout):
    config = _layout(layout)
    over = []
    for method in METHODS:
        _calls(config, method, CHUNK)  # fills the caches a first run fills
        per_step = (_calls(config, method, 2 * CHUNK) - _calls(config, method, CHUNK)) / CHUNK
        budget = BUDGET[layout, method]
        RESULTS.append(f"{layout} {method}: {per_step:.1f} calls per step (budget {budget} + 3%)")
        if per_step > budget * SLACK:
            over.append(f"{method} {per_step:.1f} > {budget} + 3%")
    assert over == [], f"{layout}: {over}"
