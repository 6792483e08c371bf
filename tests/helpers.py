"""Shared test utilities: finite-difference gradients and the reference
synthetic configuration used by the slower end-to-end tests."""

import numpy as np

from uman import Hyperparams, SyntheticSpec, UmdaMatrix


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
# once on the target, each source gets its own cross-entropy node, and the
# domain loss walks the sources one by one. Only the nn primitives, the
# register and the net builder are shared with the package.

_CLIP = 1e-7


def _per_source_classification_loss(per_source_logits, per_source_labels, tape):
    from uman.nn import scalar_sum, softmax_cross_entropy

    m = len(per_source_logits)
    parts = [
        softmax_cross_entropy(lg, y, np.ones(lg.data.shape[0]), tape)
        for lg, y in zip(per_source_logits, per_source_labels)
    ]
    return scalar_sum(parts, [1.0 / m] * m, tape)


def _per_source_domain_loss(source_outs, source_weights, target_out, target_weights, tape):
    from uman.nn import Value

    m = len(source_outs)
    total = 0.0
    clipped_s = []
    for out, w in zip(source_outs, source_weights):
        d = np.clip(out.data[:, 0], _CLIP, 1 - _CLIP)
        clipped_s.append(d)
        total += float((-np.asarray(w) * np.log(d)).mean() / m)
    dt = np.clip(target_out.data[:, 0], _CLIP, 1 - _CLIP)
    wt = np.asarray(target_weights, dtype=np.float64)
    total += float((-wt * np.log(1.0 - dt)).mean())
    node = Value([[total]])

    def op():
        g = node.grad[0, 0]
        if g == 0.0:
            return
        for out, w, d in zip(source_outs, source_weights, clipped_s):
            inside = (out.data[:, 0] > _CLIP) & (out.data[:, 0] < 1 - _CLIP)
            n = d.shape[0]
            out.grad[:, 0] += g * inside * (-np.asarray(w) / (m * n * d))
        inside_t = (target_out.data[:, 0] > _CLIP) & (target_out.data[:, 0] < 1 - _CLIP)
        nt = dt.shape[0]
        target_out.grad[:, 0] += g * inside_t * (wt / (nt * (1.0 - dt)))

    tape.record(op)
    return node


def _normalize_jointly(parts):
    from uman.core import normalize_weights

    flat = normalize_weights(np.concatenate(parts))
    out, k = [], 0
    for p in parts:
        out.append(flat[k : k + len(p)])
        k += len(p)
    return out


def per_source_train(datasets, partition, hp, method="uman"):
    """Train exactly as the per-source step loop does; returns a TrainResult."""
    import math

    from uman.core import (
        LossReport,
        TargetMarginRegister,
        TrainResult,
        TrainingDiverged,
        _build_nets,
        batch_margins,
        grl_lambda,
        margin_vector,
        normalize_weights,
    )
    from uman.nn import (
        Tape,
        Value,
        forward_mlp,
        grad_reverse,
        l2_normalize,
        mlp_apply,
        run_backward,
        scalar_sum,
        sgd_step,
        softmax,
    )
    from uman.synth import batch_iterator

    adversarial = method != "source_only"
    n_classes = partition.n_source_classes
    in_dim = datasets[0].features.shape[1]
    feature_net, classifier, discriminator = _build_nets(hp, in_dim, n_classes)
    register = TargetMarginRegister(n_classes)
    common_mask = np.zeros(n_classes, dtype=bool)
    common_mask[list(partition.common_union)] = True

    batch_seed = int(np.random.SeedSequence(hp.seed, spawn_key=(200,)).generate_state(1)[0])
    batches = batch_iterator(datasets, hp.batch_size, batch_seed)

    trace = []
    for step in range(hp.max_steps):
        batch = next(batches)
        src, tgt = batch[:-1], batch[-1]
        tape = Tape()

        feats_s, logits_s = [], []
        for b in src:
            f = l2_normalize(forward_mlp(feature_net, b.features, tape), tape)
            feats_s.append(f)
            logits_s.append(forward_mlp(classifier, f, tape))
        feat_t = l2_normalize(forward_mlp(feature_net, tgt.features, tape), tape)

        probs_t = softmax(mlp_apply(classifier, feat_t.data))
        pseudo, margins = batch_margins(probs_t)
        errors = tuple(
            float((lg.data.argmax(axis=1) != b.labels).mean())
            for lg, b in zip(logits_s, src)
        )

        updated = False
        if adversarial and max(errors) < hp.epsilon:
            vec, present = margin_vector(probs_t)
            register.update(vec, present)
            updated = True

        e_g = _per_source_classification_loss(logits_s, [b.labels for b in src], tape)

        if adversarial:
            if method == "uman":
                values = register.values
                raw_ws = [values[b.labels] for b in src]
                raw_wt = margins * values[pseudo]
            else:
                raw_ws = [np.ones(len(b.features)) for b in src]
                raw_wt = np.ones(len(tgt.features))
            ws = _normalize_jointly(raw_ws)
            wt = normalize_weights(raw_wt)
            lam = grl_lambda(step, hp.max_steps, hp.grl_max_lambda, hp.grl_gamma)
            d_src = [
                forward_mlp(discriminator, grad_reverse(f, lam, tape), tape)
                for f in feats_s
            ]
            d_tgt = forward_mlp(discriminator, grad_reverse(feat_t, lam, tape), tape)
            e_d = _per_source_domain_loss(d_src, ws, d_tgt, wt, tape)
        else:
            raw_ws = [np.zeros(len(b.features)) for b in src]
            raw_wt = np.zeros(len(tgt.features))
            e_d = Value(np.zeros((1, 1)))

        eg_val, ed_val = float(e_g.data[0, 0]), float(e_d.data[0, 0])
        if not (math.isfinite(eg_val) and math.isfinite(ed_val)):
            raise TrainingDiverged(step, trace[-1] if trace else None)

        total = scalar_sum([e_g, e_d], tape=tape)
        run_backward(tape, total)
        sgd_step(feature_net, hp.lr_features, hp.weight_decay)
        sgd_step(classifier, hp.lr_classifier, hp.weight_decay)
        if adversarial:
            sgd_step(discriminator, hp.lr_discriminator, hp.weight_decay)

        all_ws = np.concatenate(raw_ws)
        all_labels = np.concatenate([b.labels for b in src])
        in_common = common_mask[all_labels]
        trace.append(
            LossReport(
                step=step,
                class_loss=eg_val,
                domain_loss=ed_val,
                source_errors=errors,
                mean_weight_common=float(all_ws[in_common].mean()) if in_common.any() else 0.0,
                mean_weight_private=float(all_ws[~in_common].mean()) if (~in_common).any() else 0.0,
                mean_weight_target=float(np.asarray(raw_wt).mean()),
                tmr_updated=updated,
            )
        )

    return TrainResult(feature_net, classifier, discriminator, register, trace)
