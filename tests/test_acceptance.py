"""Desk-scale acceptance battery.

Nine checks, one per headline property of the package: exact gradients,
formula-level oracles, the margin-register gate, and the behavioural claims
(weight separation, feature alignment, method ordering, robustness to the
unknown-class count, threshold insensitivity, rerun determinism) on the
standard synthetic configuration from ``helpers``.

Each test ends by printing a single PASS/FAIL line with its measured
numbers; ``conftest.py`` repeats those lines after the run summary. The
slower checks share one set of trained networks through module-scoped
fixtures, and every number here is deterministic for a given platform.
Beside the nine, one test holds the standard runs' trained values to the
digests recorded in ``digests.json``, as do the unknown-count sweep's
runs, the rerun-determinism config's runs, a batch in which some runs
diverge and one in which a run's loss turns non-finite.
"""

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    max_rel_err,
    numeric_gradient,
    param_pairs,
    passed,
    random_simplex,
    standard_hp,
    standard_matrix,
    standard_spec,
    trace_column,
)
from uman import UmdaMatrix, generate, partition_from_matrix, train, train_runs
from uman.config import load_config
from uman.core import (
    UNKNOWN,
    TargetMarginRegister,
    batch_margins,
    classification_loss,
    domain_loss,
    extract_features,
    margin_vector,
    predict_classes,
    sample_weights,
    normalize_weights,
)
from uman.evaluate import alignment_probe, evaluate
from uman.labelspace import (
    LabelConfigError,
    jaccard_source_source,
    jaccard_source_target,
)
from uman.nn import (
    Mlp,
    l2_normalize,
    l2_normalize_backward,
    softmax,
)

SEEDS = (0, 1, 2)
GRAD_REL_ERR = 1e-4
ORACLE_TOL = 1e-9
LOSS_TOL = 1e-6
N_INSTANCES = 128
SEPARATION_BAR = 0.2
COMMON_PROBE_BAR = 0.65
PRIVATE_PROBE_BAR = 0.8
ORDERING_BAR = 0.03
SPREAD_BAR = 0.05
W0_GRID = (0.3, 0.5, 0.7)

RESULTS: list[str] = []


def record(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared trained networks for the behavioural checks


def _seed_setups(partition):
    """Training data, test target and hyperparameters of every seed."""
    runs = {}
    for seed in SEEDS:
        spec = standard_spec(seed=seed)
        runs[seed] = SimpleNamespace(
            data=generate(spec, partition),
            test=generate(spec, partition, draw=1)[-1],
            hp=standard_hp(seed=seed),
            methods={},
        )
    return runs


@pytest.fixture(scope="module")
def standard_runs():
    """All three methods trained on the standard config for three seeds,
    the seeds of each method as one batch; a run's ``seconds`` is its share
    of the batch."""
    partition = partition_from_matrix(standard_matrix())
    t0 = time.perf_counter()
    runs = _seed_setups(partition)
    for method in ("uman", "source_only", "unweighted_adv"):
        t1 = time.perf_counter()
        results = train_runs([(runs[s].data, runs[s].hp) for s in SEEDS], partition, method=method)
        seconds = (time.perf_counter() - t1) / len(SEEDS)
        for seed, result in zip(SEEDS, results):
            run = runs[seed]
            report = evaluate(result.feature_net, result.classifier, run.test, partition, run.hp.w0)
            run.methods[method] = SimpleNamespace(result=result, report=report, seconds=seconds)
    return SimpleNamespace(partition=partition, runs=runs, wall=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def unknown_count_runs(standard_runs):
    """uman trained with 0 and 6 target-only classes, the seeds as one
    batch, and the standard runs' source_only training scored on each k's
    own test target: source_only reads no target, so it trains the same
    at any k, which a guard checks on the sources and hyperparameters. By
    k, each method's outcomes in seed order and each seed's gain of uman
    over source_only."""
    base = standard_matrix()
    out = {}
    for k in (0, 6):
        matrix = UmdaMatrix(base.common_sizes, base.private_sizes, base.target_common, k)
        partition = partition_from_matrix(matrix)
        runs = _seed_setups(partition)
        for seed, run in runs.items():
            trained = standard_runs.runs[seed]
            assert partition.source_labels == standard_runs.partition.source_labels and run.hp == trained.hp
            for ours, theirs in zip(run.data[:-1], trained.data[:-1], strict=True):
                assert np.array_equal(ours.features, theirs.features) and np.array_equal(ours.labels, theirs.labels)
        outcomes = {
            "uman": train_runs([(runs[s].data, runs[s].hp) for s in SEEDS], partition, method="uman"),
            "source_only": [standard_runs.runs[s].methods["source_only"].result for s in SEEDS],
        }
        # with no target-only class, the unknown entry has no test sample
        with pytest.warns(UserWarning, match="entry 'unknown'") if k == 0 else contextlib.nullcontext():
            acc = {
                method: [
                    evaluate(r.feature_net, r.classifier, runs[s].test, partition, runs[s].hp.w0).mean_per_class_accuracy
                    for s, r in zip(SEEDS, results)
                ]
                for method, results in outcomes.items()
            }
        gains = [u - so for u, so in zip(acc["uman"], acc["source_only"])]
        out[k] = SimpleNamespace(outcomes=outcomes, gains=gains)
    return out


# sha256 of the trained values of the runs below, and the numpy and BLAS
# build they were taken on
DIGESTS = Path(__file__).with_name("digests.json")


def _numeric_build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _digests(outcome) -> dict:
    """A trained run's parameter buffers, register values and trace
    (float64, in ``trace.csv`` column order), hashed; or a failed run's
    error type, message and step, and its last trace row, hashed."""
    if isinstance(outcome, Exception):
        last = getattr(outcome, "last_report", None)
        return {
            "error": type(outcome).__name__,
            "message": str(outcome),
            "step": outcome.step,
            "last_report": None if last is None else _sha(last),
        }
    return {
        "feature_net": _sha(outcome.feature_net.params),
        "classifier": _sha(outcome.classifier.params),
        "discriminator": _sha(outcome.discriminator.params),
        "register": _sha(outcome.register.values),
        "trace": _sha(outcome.trace),
    }


def _assert_digests(section: str, got: dict):
    """``got`` (digests by run) equals the ``section`` of the recorded
    digests. The digests hold for the build they name: on another one this
    fails and names both. A deliberate change to the numerics records new
    digests."""
    recorded = json.loads(DIGESTS.read_text())
    build, at = _numeric_build(), {key: recorded[key] for key in ("numpy", "blas")}
    assert build == at, f"the digests were taken on {at}; this is {build}"
    assert got.keys() == recorded[section].keys()
    moved = [
        f"{run} {name}" for run, digests in recorded[section].items() for name in digests if got[run][name] != digests[name]
    ]
    assert moved == [], f"digests moved (taken on {at}; this is {build}): {moved}"


def _trained_in_process(obj: dict, tmp_path) -> dict:
    """Every (method, seed) run of the config ``obj``, each method's seeds
    as one batch, trained as ``uman run`` trains them at seed offset 0 but
    in this process, which writes nothing under its output directory;
    returns each outcome by run."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(obj, output_dir=str(tmp_path / "out"))))
    config, problems = load_config(path)
    assert problems == []
    partition = partition_from_matrix(config.matrix)
    runs = [
        (
            generate(replace(config.synthetic, seed=config.synthetic.seed + seed), partition),
            replace(config.hyperparams, seed=config.hyperparams.seed + seed),
        )
        for seed in config.seeds
    ]
    return {
        f"{method} seed {seed}": outcome
        for method in config.methods
        for seed, outcome in zip(config.seeds, train_runs(runs, partition, method=method))
    }


def test_standard_runs_match_their_digests(standard_runs):
    """Every standard run's trained values hash to the recorded digests,
    so a change that moves any value by one ulp fails here even when no
    battery number moves."""
    _assert_digests("runs", {
        f"{method} seed {seed}": _digests(trained.result)
        for seed, run in standard_runs.runs.items()
        for method, trained in run.methods.items()
    })


def test_unknown_count_runs_match_their_digests(unknown_count_runs):
    """The unknown-count sweep's runs at 0 and 6 target-only classes hash
    to the recorded digests."""
    _assert_digests("unknown_count", {
        f"{method} k={k} seed {seed}": _digests(outcome)
        for k, run in unknown_count_runs.items()
        for method, outcomes in run.outcomes.items()
        for seed, outcome in zip(SEEDS, outcomes)
    })


def test_rerun_determinism_runs_match_their_digests(tmp_path):
    """The six runs of the rerun-determinism config (property 9) hash to
    the recorded digests."""
    runs = _trained_in_process(RERUN_CONFIG, tmp_path)
    _assert_digests("rerun_determinism", {run: _digests(outcome) for run, outcome in runs.items()})


# three runs per method over 40 steps at a learning rate at which seed 0 of
# each method trains to the end, while seeds 1 and 2 end at
# step 1 with a non-finite gradient
DIVERGING_CONFIG = {
    "umda_matrix": [[2, 2, 3], [1, 1, 1]],
    "synthetic": {"feature_dim": 4, "samples_per_class": 8},
    "hyperparams": {
        "max_steps": 40,
        "batch_size": 8,
        "feature_hidden": [8],
        "feature_dim": 4,
        "disc_hidden": [4],
        "lr_features": 5e103,
        "lr_classifier": 5e103,
        "lr_discriminator": 5e103,
    },
    "methods": ["uman", "source_only", "unweighted_adv"],
    "seeds": [0, 1, 2],
}


def test_partly_diverging_batch_matches_its_digests(tmp_path):
    """A batch that loses runs on the way: the runs that train to the end
    hash to the recorded digests, and each run that fails ends with the
    recorded error, message, step and last trace row."""
    runs = _trained_in_process(DIVERGING_CONFIG, tmp_path)
    assert any(isinstance(outcome, Exception) for outcome in runs.values())
    assert not all(isinstance(outcome, Exception) for outcome in runs.values())
    _assert_digests("partly_diverging", {run: _digests(outcome) for run, outcome in runs.items()})


def test_nan_loss_batch_matches_its_digests():
    """A batch in which one run's loss turns non-finite: for each method,
    seeds 3 to 5 of the standard matrix over 100 steps, where the middle
    run's first source holds a NaN row that it first draws at step 44, in
    the middle of a chunk and after its register has taken margins. The
    other two runs hash to the recorded digests, and the middle run ends
    with the recorded error, message, step and last trace row."""
    partition = partition_from_matrix(standard_matrix())
    seeds = (3, 4, 5)
    runs = [
        (generate(standard_spec(seed=seed), partition), standard_hp(seed=seed, max_steps=100, epsilon=0.6))
        for seed in seeds
    ]
    runs[1][0][0].features[592] = np.nan
    got = {}
    for method in ("uman", "source_only", "unweighted_adv"):
        outcomes = train_runs(runs, partition, method=method)
        assert [type(outcome).__name__ for outcome in outcomes] == ["TrainResult", "TrainingDiverged", "TrainResult"]
        assert outcomes[1].step == 44
        got.update({f"{method} seed {seed}": _digests(outcome) for seed, outcome in zip(seeds, outcomes)})
    _assert_digests("nan_loss", got)


# ---------------------------------------------------------------------------
# 1. finite-difference gradient checks, ops and both end-to-end graphs


def _fd_max_err(loss, nets):
    """Worst relative error between backward-pass gradients and central
    differences. ``loss(backward)`` returns the loss and, with ``backward``
    true, also runs the backward pass; ``nets`` maps each net to the factor
    its numeric gradient is scaled by before the comparison."""
    for net in nets:
        net.zero_grads()
    loss(True)
    worst = 0.0
    for net, scale in nets.items():
        for param, grad in param_pairs(net):
            numeric = numeric_gradient(lambda: loss(False), param)
            worst = max(worst, max_rel_err(grad, scale * numeric))
    return worst


def test_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    fnet = Mlp([3, 4, 2], ["relu", "linear"], rng)      # 26 parameters
    clf = Mlp([2, 4], ["linear"], rng)                  # 12 parameters
    disc = Mlp([2, 3, 1], ["relu", "sigmoid"], rng)     # 13 parameters
    assert max(fnet.params.size, clf.params.size, disc.params.size) <= 64
    xs = [rng.normal(size=(5, 3)), rng.normal(size=(4, 3))]
    ys = [rng.integers(0, 4, size=5), rng.integers(0, 4, size=4)]
    xt = rng.normal(size=(6, 3))
    ws = [rng.uniform(0.2, 1.5, size=5), rng.uniform(0.2, 1.5, size=4)]
    wt = rng.uniform(0.2, 1.5, size=6)
    lam = 0.37
    worst = 0.0

    # single-op graphs: one layer of each activation into the cross entropy
    # of two blocks, whose rows weigh 1/4 and 1/8
    y1 = rng.integers(0, 3, size=6)
    x1 = rng.normal(size=(6, 3))
    b1 = [2, 4]
    for act in ("linear", "relu", "sigmoid"):
        net = Mlp([3, 3], [act], rng)

        def op_loss(backward, net=net):
            plan = passed(net, x1, b1)
            value, grad = classification_loss(plan.acts[-1], y1, b1)
            if backward:
                plan.backward(grad)
            return value

        worst = max(worst, _fd_max_err(op_loss, {net: 1.0}))

    # row normalization inside a graph
    net = Mlp([3, 3], ["linear"], rng)

    def norm_loss(backward):
        plan = passed(net, x1, b1)
        value, grad = classification_loss(l2_normalize(plan.acts[-1]), y1, b1)
        if backward:
            plan.backward(l2_normalize_backward(plan.acts[-1], grad))
        return value

    worst = max(worst, _fd_max_err(norm_loss, {net: 1.0}))

    # end-to-end classification objective through features and classifier,
    # the sources stacked into one pass per net as training runs them
    sizes = [len(x) for x in xs]

    def eg(backward):
        f_plan = passed(fnet, np.vstack(xs), sizes)
        g_plan = passed(clf, l2_normalize(f_plan.acts[-1]), sizes)
        value, grad = classification_loss(g_plan.acts[-1], np.concatenate(ys), sizes)
        if backward:
            g_feats = g_plan.backward(grad, input_grad=True)
            f_plan.backward(l2_normalize_backward(f_plan.acts[-1], g_feats))
        return value

    worst = max(worst, _fd_max_err(eg, {fnet: 1.0, clf: 1.0}))

    # end-to-end domain objective: the reversal layer flips and scales the
    # feature-side gradients, so those compare against -lam times the
    # numeric gradient while the discriminator side compares directly
    blocks = sizes + [len(xt)]

    def ed(backward):
        f_plan = passed(fnet, np.vstack(xs + [xt]), blocks)
        d_plan = passed(disc, l2_normalize(f_plan.acts[-1]), blocks)
        value, grad = domain_loss(d_plan.acts[-1], np.concatenate(ws + [wt]), blocks)
        if backward:
            g_feats = -lam * d_plan.backward(grad, input_grad=True)
            f_plan.backward(l2_normalize_backward(f_plan.acts[-1], g_feats))
        return value

    worst = max(worst, _fd_max_err(ed, {disc: 1.0, fnet: -lam}))

    elapsed = time.perf_counter() - t0
    record(
        "gradient checks",
        worst < GRAD_REL_ERR and elapsed < 10.0,
        f"max rel err {worst:.2e} across ops and both end-to-end graphs "
        f"(bar {GRAD_REL_ERR:.0e}) in {elapsed:.1f}s (budget 10s)",
    )


# ---------------------------------------------------------------------------
# 2. formula oracles against independent brute-force recomputation


def _brute_margin(row):
    order = np.sort(np.asarray(row, dtype=np.float64))
    return int(np.argmax(row)), float(order[-1] - order[-2])


def _brute_margin_vector(probs):
    k = probs.shape[1]
    values, present = np.zeros(k), np.zeros(k, dtype=bool)
    groups = {}
    for row in probs:
        pseudo, margin = _brute_margin(row)
        groups.setdefault(pseudo, []).append(margin)
    for c, margins in groups.items():
        values[c] = sum(margins) / len(margins)
        present[c] = True
    return values, present


def _plain_forward(net, x):
    z = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        z = z @ layer.w + layer.b
        if layer.activation == "relu":
            z = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            z = 1.0 / (1.0 + np.exp(-z))
    return z


def test_formula_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0        # plain quantities, bar 1e-9
    worst_loss = 0.0   # loss scalars, bar 1e-6

    # margins: top minus runner-up, argmax as pseudo-label
    for _ in range(N_INSTANCES):
        probs = random_simplex(rng, int(rng.integers(1, 6)), int(rng.integers(2, 8)))
        pseudo, margins = batch_margins(probs)
        for i, row in enumerate(probs):
            bp, bm = _brute_margin(row)
            assert bp == pseudo[i]
            worst = max(worst, abs(margins[i] - bm))

    # per-class mean margins grouped by pseudo-label
    for _ in range(N_INSTANCES):
        probs = random_simplex(rng, int(rng.integers(2, 12)), int(rng.integers(2, 7)))
        values, present = margin_vector(*batch_margins(probs), probs.shape[1])
        bv, bp = _brute_margin_vector(probs)
        assert (present == bp).all()
        worst = max(worst, float(np.max(np.abs(values - bv))))

    # the register is a running per-class mean of its contributions
    for _ in range(N_INSTANCES):
        k = int(rng.integers(2, 7))
        register = TargetMarginRegister(k)
        sums, counts = np.zeros(k), np.zeros(k)
        for _ in range(int(rng.integers(3, 12))):
            probs = random_simplex(rng, int(rng.integers(2, 10)), k)
            values, present = _brute_margin_vector(probs)
            register.update(*margin_vector(*batch_margins(probs), k))
            sums[present] += values[present]
            counts[present] += 1
            expect = sums / np.maximum(counts, 1)
            worst = max(worst, float(np.max(np.abs(register.values - expect))))

    # weights, as training computes them: class weight is the register
    # value, target weight also carries the sample margin; normalization
    # divides by the group mean
    for _ in range(N_INSTANCES):
        k = int(rng.integers(2, 7))
        register = TargetMarginRegister(k)
        sums, counts = np.zeros(k), np.zeros(k)
        for _ in range(3):
            probs = random_simplex(rng, 8, k)
            values, present = _brute_margin_vector(probs)
            register.update(*margin_vector(*batch_margins(probs), k))
            sums[present] += values[present]
            counts[present] += 1
        value = [s / n if n else 0.0 for s, n in zip(sums, counts)]
        labels = [rng.integers(0, k, size=int(rng.integers(1, 6))) for _ in range(int(rng.integers(1, 4)))]
        rows = random_simplex(rng, int(rng.integers(1, 6)), k)
        ws, wt = sample_weights(register, np.concatenate(labels), *batch_margins(rows))
        worst = max(worst, max(abs(wi - value[c]) for wi, c in zip(ws, np.concatenate(labels))))
        for wi, row in zip(wt, rows):
            bp, bm = _brute_margin(row)
            worst = max(worst, abs(wi - bm * value[bp]))
        raw = rng.uniform(0, 2, size=int(rng.integers(1, 9)))
        if rng.uniform() < 0.1:
            raw[:] = 0.0
        got = normalize_weights(raw)
        expect = raw / raw.mean() if raw.mean() else np.zeros_like(raw)
        worst = max(worst, float(np.max(np.abs(got - expect))))

    # losses: mean of per-source mean cross entropies, and the weighted
    # two-sided domain discrimination loss with clipped outputs
    for _ in range(N_INSTANCES):
        m = int(rng.integers(1, 4))
        logits = [rng.normal(size=(int(rng.integers(2, 8)), int(k))) for k in [rng.integers(2, 6)] * m]
        labels = [rng.integers(0, lg.shape[1], size=lg.shape[0]) for lg in logits]
        total = 0.0
        for lg, y in zip(logits, labels):
            rows = []
            for i in range(lg.shape[0]):
                z = lg[i]
                rows.append(math.log(np.exp(z - z.max()).sum()) + z.max() - z[y[i]])
            total += sum(rows) / len(rows) / m
        sizes = [lg.shape[0] for lg in logits]
        got, _ = classification_loss(np.vstack(logits), np.concatenate(labels), sizes)
        worst_loss = max(worst_loss, abs(got - total))

        outs = [rng.uniform(0, 1, size=(int(rng.integers(2, 8)), 1)) for _ in range(m)]
        ws = [rng.uniform(0, 2, size=o.shape[0]) for o in outs]
        out_t = rng.uniform(0, 1, size=(int(rng.integers(2, 8)), 1))
        w_t = rng.uniform(0, 2, size=out_t.shape[0])
        if rng.uniform() < 0.2:
            outs[0][0, 0] = 1.0   # exercises the clip
        clip = lambda d: np.minimum(np.maximum(d, 1e-7), 1 - 1e-7)
        expect = sum(
            float(np.mean(-w * np.log(clip(o[:, 0])))) / m for o, w in zip(outs, ws)
        ) + float(np.mean(-w_t * np.log(1 - clip(out_t[:, 0]))))
        sizes = [o.shape[0] for o in outs] + [out_t.shape[0]]
        got, _ = domain_loss(np.vstack(outs + [out_t]), np.concatenate(ws + [w_t]), sizes)
        worst_loss = max(worst_loss, abs(got - expect))

    # inference rule: accept the pseudo-label when its margin clears the
    # threshold, otherwise emit the unknown marker (hand-rolled forward)
    rng2 = np.random.default_rng(13)
    fnet = Mlp([5, 8, 4], ["relu", "linear"], rng2)
    clf = Mlp([4, 6], ["linear"], rng2)
    for _ in range(N_INSTANCES):
        x = rng2.normal(size=(int(rng2.integers(1, 8)), 5))
        w0 = float(rng2.uniform(0, 1))
        f = _plain_forward(fnet, x)
        f = f / np.sqrt((f * f).sum(axis=1, keepdims=True))
        z = f @ clf.layers[0].w + clf.layers[0].b
        e = np.exp(z - z.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        expect = []
        for row in probs:
            bp, bm = _brute_margin(row)
            expect.append(bp if bm >= w0 else UNKNOWN)
        got = predict_classes(fnet, clf, x, w0)
        assert (got == np.array(expect)).all()
        _, pkg_margins = batch_margins(softmax(extract_features(fnet, x) @ clf.layers[0].w + clf.layers[0].b))
        _, brute_margins = batch_margins(probs)
        worst = max(worst, float(np.max(np.abs(pkg_margins - brute_margins))))

    # label-set overlap coefficients against plain set arithmetic
    done = 0
    while done < N_INSTANCES:
        c = int(rng.integers(3, 9))
        matrix = UmdaMatrix(
            (int(rng.integers(2, c + 1)), int(rng.integers(2, c + 1))),
            (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
            c,
            int(rng.integers(0, 4)),
        )
        if matrix.violations():
            continue
        try:
            partition = partition_from_matrix(matrix)
        except LabelConfigError:
            continue
        t = set(partition.target_labels)
        for i in (1, 2):
            s = set(partition.source_labels[i - 1])
            worst = max(worst, abs(jaccard_source_target(partition, i) - len(s & t) / len(s | t)))
        a, b = (set(partition.source_labels[i]) for i in (0, 1))
        worst = max(worst, abs(jaccard_source_source(partition, 1, 2) - len(a & b) / len(a | b)))
        done += 1

    elapsed = time.perf_counter() - t0
    record(
        "formula oracles",
        worst < ORACLE_TOL and worst_loss < LOSS_TOL and elapsed < 30.0,
        f"7 families x {N_INSTANCES} instances, worst |err| {worst:.1e} "
        f"(bar {ORACLE_TOL:.0e}), loss scalars {worst_loss:.1e} (bar {LOSS_TOL:.0e}) "
        f"in {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# 3. the register gate follows the batch source error


def _gate_setup(epsilon, max_steps=250):
    matrix = UmdaMatrix((3, 3), (1, 1), 4, 1)
    partition = partition_from_matrix(matrix)
    spec = standard_spec(
        seed=5, samples_per_class=30, feature_dim=8, class_center_scale=1.5,
        noise_sigma=0.25, domain_shift_scale=0.5,
    )
    data = generate(spec, partition)
    hp = standard_hp(
        seed=5, epsilon=epsilon, max_steps=max_steps, batch_size=24,
        feature_hidden=(16,), feature_dim=8, disc_hidden=(8,),
        lr_classifier=0.1, lr_discriminator=0.1, grl_max_lambda=0.1, weight_decay=0.0,
    )
    return train(data, partition, hp)


def test_margin_register_gate():
    closed = _gate_setup(epsilon=0.0)
    assert closed.register.step == 0
    assert not trace_column(closed.trace, "tmr_updated").any()
    assert (closed.register.values == 0).all()

    open_gate = _gate_setup(epsilon=1.0)
    assert open_gate.register.step == len(open_gate.trace)
    assert trace_column(open_gate.trace, "tmr_updated").all()

    tenth = _gate_setup(epsilon=0.1)
    updates = [bool(upd) for upd in trace_column(tenth.trace, "tmr_updated").tolist()]
    errors = [max(err) for err in trace_column(tenth.trace, "err_source").tolist()]
    assert any(updates), "training never reached the gate threshold"
    first = updates.index(True)
    assert first > 0, "the gate must start closed while source error is high"
    for upd, err in zip(updates, errors):
        assert upd == (err < 0.1)

    record(
        "margin-register gate",
        True,
        f"eps=0 never updates, eps=1 updates all {open_gate.register.step} steps, "
        f"eps=0.1 first opens at step {first} and tracks the batch error exactly",
    )


# ---------------------------------------------------------------------------
# 4. learned weights separate shared from source-only classes


def test_weight_separation(standard_runs):
    t0 = time.perf_counter()
    partition = standard_runs.partition
    common = np.array(sorted(partition.common_union))
    src_private = np.array(sorted(partition.source_private_union))
    register_gaps, weight_gaps = [], []
    for seed in SEEDS:
        run = standard_runs.runs[seed]
        result = run.methods["uman"].result
        values = result.register.values
        register_gaps.append(float(values[common].mean() - values[src_private].mean()))
        target = run.data[-1]
        feats = extract_features(result.feature_net, target.features)
        probs = softmax(feats @ result.classifier.layers[0].w + result.classifier.layers[0].b)
        pseudo, margins = batch_margins(probs)
        raw_wt = margins * values[pseudo]
        is_common = np.isin(target.eval_labels, common)
        weight_gaps.append(float(raw_wt[is_common].mean() - raw_wt[~is_common].mean()))
    passes = sum(
        rg >= SEPARATION_BAR and wg >= SEPARATION_BAR
        for rg, wg in zip(register_gaps, weight_gaps)
    )
    train_seconds = sum(standard_runs.runs[s].methods["uman"].seconds for s in SEEDS)
    elapsed = train_seconds + time.perf_counter() - t0
    record(
        "weight separation",
        passes >= 2 and elapsed < 300.0,
        f"register gap {'/'.join(f'{g:+.2f}' for g in register_gaps)}, "
        f"target-weight gap {'/'.join(f'{g:+.2f}' for g in weight_gaps)} "
        f"(bar {SEPARATION_BAR}, {passes}/3 seeds, need 2) in {elapsed:.0f}s (budget 300s)",
    )


# ---------------------------------------------------------------------------
# 5. feature alignment, read out by fresh linear probes


def test_alignment_probes(standard_runs):
    partition = standard_runs.partition
    commons, privates, cross = [], [], []
    for seed in SEEDS:
        run = standard_runs.runs[seed]
        fnet = run.methods["uman"].result.feature_net
        commons.append(
            alignment_probe(fnet, run.data, partition, "source-vs-target-common", seed=seed).balanced_accuracy
        )
        privates.append(
            alignment_probe(fnet, run.data, partition, "source-vs-target-private", seed=seed).balanced_accuracy
        )
        cross.append(
            alignment_probe(fnet, run.data, partition, "source-vs-source-shared", seed=seed).balanced_accuracy
        )
    joint = sum(
        c <= COMMON_PROBE_BAR and p >= PRIVATE_PROBE_BAR for c, p in zip(commons, privates)
    )
    sources_merged = all(s <= COMMON_PROBE_BAR for s in cross)
    record(
        "alignment probes",
        joint >= 2 and sources_merged,
        f"common {'/'.join(f'{v:.2f}' for v in commons)} (<= {COMMON_PROBE_BAR}), "
        f"private {'/'.join(f'{v:.2f}' for v in privates)} (>= {PRIVATE_PROBE_BAR}), "
        f"joint {joint}/3 (need 2); source-vs-source {'/'.join(f'{v:.2f}' for v in cross)} "
        f"(<= {COMMON_PROBE_BAR})",
    )


# ---------------------------------------------------------------------------
# 6. the full method beats both ablations


def test_method_ordering(standard_runs):
    means = {
        method: float(
            np.mean([standard_runs.runs[s].methods[method].report.mean_per_class_accuracy for s in SEEDS])
        )
        for method in ("uman", "source_only", "unweighted_adv")
    }
    edge_source = means["uman"] - means["source_only"]
    edge_unweighted = means["uman"] - means["unweighted_adv"]
    record(
        "method ordering",
        edge_source >= ORDERING_BAR
        and edge_unweighted >= ORDERING_BAR
        and standard_runs.wall < 900.0,
        f"uman {means['uman']:.3f} vs source-only {means['source_only']:.3f} "
        f"({edge_source:+.3f}) and unweighted {means['unweighted_adv']:.3f} "
        f"({edge_unweighted:+.3f}), bar {ORDERING_BAR}; 9 runs in "
        f"{standard_runs.wall:.0f}s (budget 900s)",
    )


# ---------------------------------------------------------------------------
# 7. the adaptation gain survives any number of unknown classes


def test_unknown_count_sweep(standard_runs, unknown_count_runs):
    gains = {
        0: float(np.mean(unknown_count_runs[0].gains)),
        3: float(
            np.mean(
                [
                    standard_runs.runs[s].methods["uman"].report.mean_per_class_accuracy
                    - standard_runs.runs[s].methods["source_only"].report.mean_per_class_accuracy
                    for s in SEEDS
                ]
            )
        ),
        6: float(np.mean(unknown_count_runs[6].gains)),
    }
    record(
        "unknown-count sweep",
        all(g >= 0.0 for g in gains.values()),
        "mean gain over source-only "
        + " ".join(f"{k}:{g:+.3f}" for k, g in sorted(gains.items()))
        + " across 0/3/6 target-only classes (bar >= 0)",
    )


# ---------------------------------------------------------------------------
# 8. accuracy barely moves across rejection thresholds


def test_threshold_insensitivity(standard_runs):
    partition = standard_runs.partition
    per_w0 = []
    for w0 in W0_GRID:
        accs = [
            evaluate(
                standard_runs.runs[s].methods["uman"].result.feature_net,
                standard_runs.runs[s].methods["uman"].result.classifier,
                standard_runs.runs[s].test,
                partition,
                w0,
            ).mean_per_class_accuracy
            for s in SEEDS
        ]
        per_w0.append(float(np.mean(accs)))
    spread = max(per_w0) - min(per_w0)
    record(
        "threshold insensitivity",
        spread <= SPREAD_BAR,
        f"mean accuracy {'/'.join(f'{v:.3f}' for v in per_w0)} at w0 "
        f"{'/'.join(str(w) for w in W0_GRID)}, spread {spread:.3f} (bar {SPREAD_BAR})",
    )


# ---------------------------------------------------------------------------
# 9. the experiment runner is byte-deterministic


# the config of property 9, without its output directory
RERUN_CONFIG = {
    "umda_matrix": [[3, 3, 4], [2, 2, 2]],
    "synthetic": {
        "feature_dim": 8,
        "samples_per_class": 30,
        "noise_sigma": 0.4,
        "seed": 0,
    },
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
}


def test_rerun_determinism(tmp_path):
    config = dict(RERUN_CONFIG, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    env = dict(os.environ, UMAN_SEED_OFFSET="0")

    def run_once():
        proc = subprocess.run(
            [sys.executable, "-m", "uman", "run", str(path)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return (tmp_path / "out" / "summary.csv").read_bytes()

    first = run_once()
    second = run_once()
    record(
        "rerun determinism",
        first == second and len(first) > 0,
        f"summary.csv byte-identical across two runs ({len(first)} bytes, "
        f"{len(first.splitlines()) - 1} rows)",
    )
