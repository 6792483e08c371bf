"""Shared test utilities: finite-difference gradients, the reference
synthetic configuration used by the slower end-to-end tests, and the
settings of the property tests."""

import numpy as np
from hypothesis import settings

from uman import Hyperparams, SyntheticSpec, UmdaMatrix
from uman.config import run_layout
from uman.nn import Plan
from uman.synth import domain_rows

# the settings of every property test: each run draws the same examples,
# as the hypothesis release pinned in CI draws them, and writes no example
# database; a test that needs more examples derives its own from these
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def numeric_gradient(f, arr, h=1e-4):
    """Central finite differences of scalar-valued f() w.r.t. arr, in place."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric):
    """Worst per-coordinate relative error, floored to ignore ~0 entries."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_simplex(rng, n, k):
    """n random probability vectors of length k."""
    raw = rng.exponential(size=(n, k))
    return raw / raw.sum(axis=1, keepdims=True)


# Reference setup: two sources of 5 shared + 3 private classes over a 6-class
# shared union (so 4 union classes appear in both sources and 2 in one each),
# 3 target-only classes, 16-d inputs, unit domain shift. Geometry and training
# lengths below were calibrated together; changing one number usually moves
# several of the slower end-to-end assertions at once.
def standard_matrix() -> UmdaMatrix:
    return UmdaMatrix((5, 5), (3, 3), 6, 3)


def standard_spec(seed=0, **kw) -> SyntheticSpec:
    base = dict(
        feature_dim=16,
        samples_per_class=200,
        class_center_scale=0.8,
        noise_sigma=0.35,
        domain_shift_scale=1.0,
        domain_rotation=False,
        seed=seed,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def standard_hp(seed=0, **kw) -> Hyperparams:
    base = dict(
        w0=0.5,
        epsilon=0.1,
        max_steps=3750,
        batch_size=32,
        lr_features=0.1,
        lr_classifier=0.15,
        lr_discriminator=0.7,
        grl_max_lambda=0.15,
        grl_gamma=10.0,
        weight_decay=0.003,
        feature_hidden=(64,),
        feature_dim=16,
        disc_hidden=(64,),
        seed=seed,
    )
    base.update(kw)
    return Hyperparams(**base)


# ---------------------------------------------------------------------------
# Per-source training loop: the reference the stacked step in ``core.train``
# must reproduce bit for bit. F, G and D run once per source sub-batch and
# once on the target, each source gets its own cross-entropy term, and the
# domain loss walks the sources one by one. Only the nn primitives, the
# register and the net builder are shared with the package.

_CLIP = 1e-7


def _per_source_classification_loss(per_source_logits, per_source_labels):
    """Mean over sources of each source's mean cross entropy; returns the
    value and one gradient per source."""
    from uman.nn import log_softmax

    m = len(per_source_logits)
    total, grads = 0, []
    for lg, y in zip(per_source_logits, per_source_labels):
        n = lg.shape[0]
        logp = log_softmax(lg)
        total += (1.0 / m) * ((-logp[np.arange(n), y]).sum() / n)
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        grads.append((1.0 / m) * p * (1.0 / n))
    return float(total), grads


def _per_source_domain_loss(source_outs, source_weights, target_out, target_weights):
    """Weighted domain loss; returns the value, one gradient per source and
    the target's gradient."""
    m = len(source_outs)
    total = 0.0
    grads = []
    for out, w in zip(source_outs, source_weights):
        d = np.clip(out[:, 0], _CLIP, 1 - _CLIP)
        total += float((-np.asarray(w) * np.log(d)).mean() / m)
        inside = (out[:, 0] > _CLIP) & (out[:, 0] < 1 - _CLIP)
        grads.append((inside * (-np.asarray(w) / (m * d.shape[0] * d)))[:, None])
    dt = np.clip(target_out[:, 0], _CLIP, 1 - _CLIP)
    wt = np.asarray(target_weights, dtype=np.float64)
    total += float((-wt * np.log(1.0 - dt)).mean())
    inside_t = (target_out[:, 0] > _CLIP) & (target_out[:, 0] < 1 - _CLIP)
    grad_t = (inside_t * (wt / (dt.shape[0] * (1.0 - dt))))[:, None]
    return total, grads, grad_t


def _normalize_jointly(parts):
    from uman.core import normalize_weights

    flat = normalize_weights(np.concatenate(parts))
    out, k = [], 0
    for p in parts:
        out.append(flat[k : k + len(p)])
        k += len(p)
    return out


def per_step_batches(runs, batch_size):
    """The batch stream of runs whose datasets have the same lengths, drawn
    one step at a time from one stacked copy of every run's rows, each
    (run, domain) index stream advanced once per step: the reference the
    chunks of ``uman.core._chunk_stream`` must reproduce. Yields
    ``(features, labels, sizes)`` per step, with a leading run axis on
    ``features`` and ``labels``."""
    lengths = [len(ds) for ds in runs[0][0]]
    features = np.concatenate([ds.features for datasets, _ in runs for ds in datasets])
    labels = np.concatenate([
        y
        for datasets, _ in runs
        for y in [ds.labels for ds in datasets[:-1]] + [np.zeros(lengths[-1], np.int64)]
    ])
    sizes = tuple(min(batch_size, n) for n in lengths)
    n_src = sum(sizes[:-1])

    def index_stream(ds, seed, offset, size):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ds.domain_id,)))
        n = len(ds)
        while True:
            order = offset + rng.permutation(n)
            for start in range(0, n - size + 1, size):
                yield order[start : start + size]

    streams = []
    for r, (datasets, seed) in enumerate(runs):
        offsets = r * sum(lengths) + np.cumsum([0] + lengths[:-1])
        streams += [index_stream(*args) for args in zip(datasets, [seed] * len(sizes), offsets, sizes)]
    while True:
        idx = np.concatenate([next(stream) for stream in streams]).reshape(len(runs), -1)
        yield features[idx], labels[idx[:, :n_src]], sizes


def checked_sgd_update(net, lr, weight_decay=0.0):
    """Check a net's gradients as training does, raising the error of its
    first fault before any parameter moves, then step it."""
    from uman.nn import NonFiniteGradientError, gradient_faults, sgd_update

    faults = gradient_faults(net)
    if faults:
        raise NonFiniteGradientError(faults[0])
    sgd_update(net, lr, weight_decay)


def per_source_train(datasets, partition, hp, method="uman"):
    """Train exactly as the per-source step loop does; returns a TrainResult
    whose trace rows hold the values of one step each, by column name."""
    import math

    from uman.core import (
        TargetMarginRegister,
        TrainResult,
        TrainingDiverged,
        _build_nets,
        batch_margins,
        grl_lambda,
        margin_vector,
        normalize_weights,
        trace_columns,
    )
    from uman.nn import forward_mlp, l2_normalize, l2_normalize_backward, softmax

    adversarial = method != "source_only"
    n_classes = partition.n_source_classes
    in_dim = datasets[0].features.shape[1]
    feature_net, classifier, discriminator = _build_nets(hp, in_dim, n_classes)
    register = TargetMarginRegister(n_classes)
    common_mask = np.zeros(n_classes, dtype=bool)
    common_mask[list(partition.common_union)] = True

    batch_seed = int(np.random.SeedSequence(hp.seed, spawn_key=(200,)).generate_state(1)[0])
    batches = per_step_batches([(datasets, batch_seed)], hp.batch_size)

    columns = trace_columns(len(datasets) - 1)
    trace = []
    for step in range(hp.max_steps):
        x, labels, sizes = next(batches)
        x, labels = x[0], labels[0]  # the one run's rows
        bounds = np.cumsum([0, *sizes])
        xs = [x[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        ys = [labels[a:b] for a, b in zip(bounds[:-2], bounds[1:-1])]

        # one plan and forward pass per domain through F and the row
        # normalization, one per source through G
        f_plans = [passed(feature_net, xb) for xb in xs]
        feats = [l2_normalize(plan.acts[-1]) for plan in f_plans]
        g_plans = [passed(classifier, f) for f in feats[:-1]]
        g_acts = [plan.acts for plan in g_plans]

        probs_t = softmax(forward_mlp(classifier, feats[-1])[-1])
        pseudo, margins = batch_margins(probs_t)
        errors = tuple(
            float((acts[-1].argmax(axis=1) != y).mean()) for acts, y in zip(g_acts, ys)
        )

        updated = False
        if adversarial and max(errors) < hp.epsilon:
            register.update(*margin_vector(pseudo, margins, n_classes))
            updated = True

        eg_val, g_logits = _per_source_classification_loss([acts[-1] for acts in g_acts], ys)

        if adversarial:
            if method == "uman":
                values = register.values
                raw_ws = [values[y] for y in ys]
                raw_wt = margins * values[pseudo]
            else:
                raw_ws = [np.ones(len(y)) for y in ys]
                raw_wt = np.ones(sizes[-1])
            ws = _normalize_jointly(raw_ws)
            wt = normalize_weights(raw_wt)
            lam = grl_lambda(step, hp.max_steps, hp.grl_max_lambda, hp.grl_gamma)
            d_plans = [passed(discriminator, f) for f in feats]
            d_acts = [plan.acts for plan in d_plans]
            ed_val, g_src, g_tgt = _per_source_domain_loss(
                [acts[-1] for acts in d_acts[:-1]], ws, d_acts[-1][-1], wt
            )
        else:
            raw_ws = [np.zeros(len(y)) for y in ys]
            raw_wt = np.zeros(sizes[-1])
            ed_val = 0.0

        if not (math.isfinite(eg_val) and math.isfinite(ed_val)):
            raise TrainingDiverged(step, np.array(trace[-1], dtype=np.float64) if trace else None)

        # backward, one pass per block in reverse order of the forward
        # passes: the target, then the sources last to first
        if adversarial:
            g_feats = [
                -lam * plan.backward(g, input_grad=True)
                for plan, g in zip(d_plans[::-1], [g_tgt] + g_src[::-1])
            ][::-1]
        else:
            g_feats = [np.zeros_like(f) for f in feats]
        for i in reversed(range(len(g_plans))):
            g_feats[i] += g_plans[i].backward(g_logits[i], input_grad=True)
        for plan, g in zip(f_plans[::-1], g_feats[::-1]):
            plan.backward(l2_normalize_backward(plan.acts[-1], g))
        checked_sgd_update(feature_net, hp.lr_features, hp.weight_decay)
        checked_sgd_update(classifier, hp.lr_classifier, hp.weight_decay)
        if adversarial:
            checked_sgd_update(discriminator, hp.lr_discriminator, hp.weight_decay)

        all_ws = np.concatenate(raw_ws)
        in_common = common_mask[labels]
        row = {
            "step": step,
            "class_loss": eg_val,
            "domain_loss": ed_val,
            **{f"err_source_{i + 1}": err for i, err in enumerate(errors)},
            "mean_weight_common": float(all_ws[in_common].mean()) if in_common.any() else 0.0,
            "mean_weight_private": float(all_ws[~in_common].mean()) if (~in_common).any() else 0.0,
            "mean_weight_target": float(np.asarray(raw_wt).mean()),
            "tmr_updated": updated,
        }
        trace.append([row[name] for name in columns])

    trace = np.array(trace, dtype=np.float64).reshape(hp.max_steps, len(columns))
    return TrainResult(feature_net, classifier, discriminator, register, trace)


def passed(net, x, blocks=None):
    """A :class:`uman.nn.Plan` of ``net`` over ``x`` as its input buffer,
    after one forward pass."""
    plan = Plan(net, x, blocks)
    plan.forward(x)
    return plan


def param_pairs(net):
    """Each layer's ``(w, gw)`` pair, then its ``(b, gb)`` pair, layer by
    layer."""
    return [pair for layer in net.layers for pair in ((layer.w, layer.gw), (layer.b, layer.gb))]


def trace_column(trace, name):
    """The column ``name`` of :func:`uman.core.trace_columns` in a run's
    ``(steps, columns)`` trace; ``"err_source"`` gives every source's error
    rate, one column per source."""
    from uman.core import trace_columns

    names = trace_columns(trace.shape[-1] - len(trace_columns(0)))
    if name == "err_source":
        return trace[:, [k for k, column in enumerate(names) if column.startswith("err_source_")]]
    return trace[:, names.index(name)]


def assert_same_array(got, want):
    """Two arrays, or two Nones, agree bit for bit: dtype, shape and bytes
    (the sign of zero and every NaN payload included)."""
    if want is None:
        assert got is None
        return
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def held_nbytes(*arrays):
    """The bytes of the distinct buffers behind ``arrays``: a view counts
    its base, each base once, and None counts nothing."""
    bases = {}
    for a in arrays:
        while a is not None and a.base is not None:
            a = a.base
        if a is not None:
            bases[id(a)] = a
    return sum(a.nbytes for a in bases.values())


def plan_arrays(plan):
    """A plan's activation buffers and its backward pass's: per layer its
    dz, its activation's scratch, its input gradient and its per-block
    weight and bias gradients, laid out here if no backward ran yet."""
    if plan._backward is None:
        plan._backward = plan._lay_backward()
    return [*plan.acts, *(a for laid in plan._backward for a in (*laid[2:5], *laid[6:8]))]


def run_cost(config):
    """One run of ``config`` as :func:`uman.core.cost_problems` costs it:
    its layout, its dataset rows and its config's methods."""
    return run_layout(config), sum(domain_rows(config.synthetic, config.matrix.partition)), config.methods
