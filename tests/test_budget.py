"""Calls-per-step budget of the training step.

The nets are small, but a step's cost is not all Python and numpy
dispatch. The same step with every width and the batch size cut to 2,
which keeps its calls and little of its array work, costs about a third
of the committed config's step: 303 of 1,040 µs for ``uman`` and 339 of
871 µs for ``unweighted_adv`` at 2 sources and 3 seeds, 123 of 548 µs for
``source_only`` at 5 sources, on 2 shared cores. The number of calls a
step makes is a proxy for that third, the part a change to the step's
control flow moves; the array work is the rest.

cProfile counts the calls of the package's own functions and the calls
they make (numpy's entry points among them), but not the calls numpy makes
inside its own functions, which a numpy release may change. It counts
them for each method at the two layouts the benchmark trains, the
5-source cell of the committed config at one seed and the committed
config itself (2 sources, 3 seeds), and at the 10-source cell at 3 seeds,
which pins how a step's calls grow with the number of sources. A step's
count is that of a 2K-step run less that of a K-step run, over K, for the
chunk length K, after one run that fills the caches, so the setup and the
first chunk cancel out.
Each count must stay within 3% of its budget; ``conftest.py`` prints the
counts after the run summary.

Beside the calls, the memory a sweep's batch holds: the ``tracemalloc`` peak
of one method batch of :data:`~uman.cli.BATCH_RUNS` runs of a
``target_private_size`` sweep of the committed config (the cells 4 to 6 at
seeds 0 and 1, 250 steps each, as the benchmark's short sweep trains them;
at seeds 0 to 5 for ``source_only``, whose one training per seed serves
every cell), from its data generation through its last artifact, per
trained run. Each peak must stay within 10% of its budget.
"""

import cProfile
import pstats
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import uman
import uman.cli
from uman.cli import BATCH_RUNS
from uman.config import derive_sweep_cell, load_config
from uman.core import CHUNK, METHODS, train_runs
from uman.labelspace import partition_from_matrix
from uman.synth import generate

STANDARD = Path(__file__).resolve().parents[1] / "demos" / "configs" / "standard.json"
PACKAGE = str(Path(uman.__file__).parent)

# calls per step when the budget was set; a count may exceed it by 3%
BUDGET = {
    ("5 sources, R=1", "uman"): 128.9,
    ("5 sources, R=1", "source_only"): 60.2,
    ("5 sources, R=1", "unweighted_adv"): 90.2,
    ("2 sources, R=3", "uman"): 138.9,
    ("2 sources, R=3", "source_only"): 60.5,
    ("2 sources, R=3", "unweighted_adv"): 91.0,
    ("10 sources, R=3", "uman"): 143.7,
    ("10 sources, R=3", "source_only"): 66.5,
    ("10 sources, R=3", "unweighted_adv"): 97.0,
}
SLACK = 1.03

# tracemalloc peak per run, in KiB, when the budget was set; a peak may
# exceed it by 10%
MEMORY_BUDGET = {"uman": 1331, "source_only": 1083, "unweighted_adv": 1575}
MEMORY_SLACK = 1.10

RESULTS: list[str] = []


def _layout(name):
    """The committed config at the layout ``name`` gives: its cell of that
    many sources, at its first R seeds."""
    config, problems = load_config(STANDARD)
    assert problems == []
    sources, runs = map(int, re.findall(r"\d+", name))
    if sources != config.matrix.n_sources:
        config, problems = derive_sweep_cell(config, "num_sources", sources)
        assert problems == []
    return replace(config, seeds=config.seeds[:runs])


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


def _sweep_batches(steps, out):
    config = _layout("2 sources, R=3")
    config = replace(config, hyperparams=replace(config.hyperparams, max_steps=steps), output_dir=str(out))

    def planned(seeds):
        _, tasks, problems = uman.cli._plan(replace(config, seeds=seeds), 0, "target_private_size", [4, 5, 6])
        assert problems == []
        return tasks

    # one source_only training serves every cell, so its batch takes its
    # runs from as many seeds
    tasks = [task for task in planned((0, 1)) if task[0] != "source_only"]
    tasks += [task for task in planned(tuple(range(BATCH_RUNS))) if task[0] == "source_only"]
    assert [len(entries) for _, entries, _ in tasks] == [BATCH_RUNS] * len(METHODS)
    return tasks


def test_memory_per_run_stays_in_budget(tmp_path):
    # one step of each batch first makes the allocations a process makes
    # once, whatever ran in it before
    for task in _sweep_batches(1, tmp_path / "first"):
        uman.cli._run_method_batch(task)
    over = []
    for task in _sweep_batches(250, tmp_path / "measured"):
        method = task[0]
        tracemalloc.start()
        try:
            uman.cli._run_method_batch(task)
            per_run = tracemalloc.get_traced_memory()[1] / 1024 / BATCH_RUNS
        finally:
            tracemalloc.stop()
        budget = MEMORY_BUDGET[method]
        RESULTS.append(f"{BATCH_RUNS}-run sweep batch {method}: {per_run:.0f} KiB per run (budget {budget:.0f} + 10%)")
        if per_run > budget * MEMORY_SLACK:
            over.append(f"{method} {per_run:.0f} KiB > {budget:.0f} + 10%")
    assert over == []
