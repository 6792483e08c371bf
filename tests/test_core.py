"""Margin machinery, register gating, loss wiring, and the training loop."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    max_rel_err,
    numeric_gradient,
    per_source_train,
    random_simplex,
    standard_hp,
    standard_matrix,
)

import uman.core
from uman.core import (
    CHUNK,
    METHODS,
    UNKNOWN,
    Hyperparams,
    TargetMarginRegister,
    TrainingDiverged,
    batch_margins,
    classification_loss,
    domain_loss,
    extract_features,
    grl_lambda,
    margin_vector,
    normalize_weights,
    predict_classes,
    sample_weights,
    train,
    train_runs,
)
from uman.labelspace import LabelPartition, UmdaMatrix, partition_from_matrix
from uman.nn import NonFiniteGradientError, forward_mlp, softmax
from uman.synth import DomainDataset, SyntheticSpec, generate


class TestMargin:
    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        probs = random_simplex(rng, 100, 5)
        pseudo, margins = batch_margins(probs)
        for i, row in enumerate(probs):
            top2 = np.sort(row)[::-1][:2]
            assert pseudo[i] == int(np.argmax(row))
            assert margins[i] == pytest.approx(top2[0] - top2[1], abs=1e-12)
            assert 0.0 <= margins[i] <= 1.0

    def test_tie_breaks_toward_lowest_index(self):
        pseudo, margins = batch_margins(np.array([[0.4, 0.4, 0.2]]))
        assert pseudo[0] == 0
        assert margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_extremes(self):
        assert batch_margins(np.array([[1.0, 0.0, 0.0]]))[1][0] == 1.0
        assert batch_margins(np.array([[0.25, 0.25, 0.25, 0.25]]))[1][0] == 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batch_margins(np.array([[1.0]]))
        with pytest.raises(ValueError):
            batch_margins(np.ones(3))

    def test_batch_margins_equal_per_row_loop(self):
        probs = random_simplex(np.random.default_rng(1), 50, 4)
        pseudo, margins = batch_margins(probs)
        for i, row in enumerate(probs):
            single_pseudo, single_margin = batch_margins(row[None, :])
            assert pseudo[i] == single_pseudo[0]
            assert margins[i] == single_margin[0]


class TestMarginVector:
    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            probs = random_simplex(rng, int(rng.integers(1, 40)), int(rng.integers(2, 6)))
            pseudo, margins = batch_margins(probs)
            k = probs.shape[1]
            values, present = margin_vector(pseudo, margins, k)
            assert values.shape == (k,) and present.shape == (k,)
            for c in range(k):
                mask = pseudo == c
                assert present[c] == mask.any()
                want = margins[mask].mean() if mask.any() else 0.0
                assert values[c] == pytest.approx(want, abs=1e-12)

    def test_absent_class_reports_zero(self):
        values, present = margin_vector(*batch_margins(np.array([[0.9, 0.1, 0.0]])), 3)
        assert not present[1] and not present[2]
        assert values[1] == 0.0 and values[2] == 0.0


class TestRegister:
    def test_matches_stored_history_oracle(self):
        rng = np.random.default_rng(3)
        k = 4
        reg = TargetMarginRegister(k)
        history = []
        for _ in range(30):
            vec = rng.uniform(0, 1, size=k)
            present = rng.uniform(size=k) < 0.6
            vec = np.where(present, vec, 0.0)
            reg.update(vec, present)
            history.append((vec, present))
        for c in range(k):
            contribs = [v[c] for v, p in history if p[c]]
            want = np.mean(contribs) if contribs else 0.0
            assert reg.values[c] == pytest.approx(want, abs=1e-9)
        assert reg.step == 30

    def test_running_mean_form_when_always_present(self):
        rng = np.random.default_rng(4)
        k = 3
        reg = TargetMarginRegister(k)
        manual = np.zeros(k)
        for t in range(12):
            vec = rng.uniform(0, 1, size=k)
            reg.update(vec, np.ones(k, dtype=bool))
            manual = (t * manual + vec) / (t + 1)
            np.testing.assert_allclose(reg.values, manual, atol=1e-12)

    def test_frozen_two_step_mean(self):
        reg = TargetMarginRegister(1)
        reg.update([0.4], [True])
        assert reg.values[0] == pytest.approx(0.4)
        reg.update([0.8], [True])
        assert reg.values[0] == pytest.approx(0.6)
        assert reg.values.tolist() == [pytest.approx(0.6)]

    def test_never_seen_class_stays_zero(self):
        reg = TargetMarginRegister(2)
        reg.update([0.5, 0.0], [True, False])
        assert reg.values[1] == 0.0

    def test_update_validation(self):
        reg = TargetMarginRegister(2)
        with pytest.raises(ValueError, match="length 2"):
            reg.update([0.5], [True])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            reg.update([1.5, 0.0], [True, False])
        with pytest.raises(ValueError):
            TargetMarginRegister(0)


class TestWeights:
    def test_source_weight_reads_the_register(self):
        reg = TargetMarginRegister(3)
        reg.update([0.2, 0.9, 0.0], [True, True, False])
        ws, _ = sample_weights(reg, np.array([0, 1, 2]), np.array([0]), np.array([1.0]))
        np.testing.assert_allclose(ws[:2], [0.2, 0.9])
        np.testing.assert_array_equal(ws[2:], [0.0])

    def test_target_weight_is_margin_times_register(self):
        reg = TargetMarginRegister(2)
        reg.update([0.6, 0.1], [True, True])
        _, wt = sample_weights(reg, np.array([], dtype=int), np.array([0, 1]), np.array([0.5, 0.25]))
        np.testing.assert_allclose(wt, [0.5 * 0.6, 0.25 * 0.1])

    def test_weights_stay_in_unit_interval(self):
        rng = np.random.default_rng(5)
        reg = TargetMarginRegister(4)
        for _ in range(10):
            probs = random_simplex(rng, 25, 4)
            reg.update(*margin_vector(*batch_margins(probs), 4))
        pseudo, margins = batch_margins(random_simplex(rng, 25, 4))
        ws, wt = sample_weights(reg, np.arange(4), pseudo, margins)
        assert ((ws >= 0.0) & (ws <= 1.0)).all()
        assert ((wt >= 0.0) & (wt <= 1.0)).all()

    def test_normalize_weights_mean_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            raw = rng.uniform(0, 3, size=rng.integers(1, 50))
            out = normalize_weights(raw)
            assert out.mean() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            normalize_weights(raw), normalize_weights(4.0 * raw), atol=1e-12
        )

    def test_normalize_all_zero_stays_zero(self):
        np.testing.assert_array_equal(normalize_weights(np.zeros(5)), np.zeros(5))

    def test_normalize_rejects_negatives(self):
        with pytest.raises(ValueError):
            normalize_weights(np.array([0.5, -0.1]))


def _ce_oracle(logits, labels):
    """Plain-mean cross entropy via shifted log-sum-exp, python loops only."""
    total = 0.0
    for row, y in zip(logits, labels):
        shift = max(row)
        lse = shift + math.log(sum(math.exp(v - shift) for v in row))
        total += lse - row[y]
    return total / len(labels)


class TestClassificationLoss:
    def test_is_mean_of_per_source_cross_entropies(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, k = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            logits, labels, sizes, want = [], [], [], 0.0
            for _ in range(m):
                n = int(rng.integers(2, 9))
                lg = rng.standard_normal((n, k))
                y = rng.integers(0, k, size=n)
                logits.append(lg)
                labels.append(y)
                sizes.append(n)
                want += _ce_oracle(lg, y) / m
            got, _ = classification_loss(np.vstack(logits), np.concatenate(labels), sizes)
            assert got == pytest.approx(want, abs=1e-9)

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ValueError):
            classification_loss(np.zeros((1, 2)), [], [])
        with pytest.raises(ValueError):
            classification_loss(np.zeros((1, 2)), [0, 1], [1])
        with pytest.raises(ValueError):
            classification_loss(np.zeros((2, 2)), [0, 1, 0], [3])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        lg = rng.standard_normal((9, 3))
        ys = np.concatenate([rng.integers(0, 3, size=4), rng.integers(0, 3, size=5)])

        _, grad = classification_loss(lg, ys, [4, 5])
        numeric = numeric_gradient(lambda: classification_loss(lg, ys, [4, 5])[0], lg)
        assert max_rel_err(grad, numeric) < 1e-4

    def test_rows_past_the_sources_are_ignored(self):
        rng = np.random.default_rng(12)
        lg = rng.standard_normal((7, 3))
        ys = rng.integers(0, 3, size=4)
        value, grad = classification_loss(lg, ys, [1, 3])
        assert value == classification_loss(lg[:4], ys, [1, 3])[0]
        # the gradient covers the source rows only
        assert grad.shape == (4, 3)
        assert (grad != 0.0).any()


def _domain_loss_oracle(source_ds, source_ws, target_d, target_w):
    m = len(source_ds)
    total = 0.0
    for d, w in zip(source_ds, source_ws):
        total += np.mean([-wi * math.log(di) for wi, di in zip(w, d)]) / m
    total += np.mean([-wi * math.log(1.0 - di) for wi, di in zip(target_w, target_d)])
    return total


class TestDomainLoss:
    def test_frozen_coin_flip_value(self):
        # one source, all outputs 0.5, unit weights: ln 2 on each side
        got, _ = domain_loss(np.full((10, 1), 0.5), np.ones(10), [4, 6])
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            d_raw, w_raw = [], []
            for _ in range(m):
                n = int(rng.integers(1, 8))
                d_raw.append(rng.uniform(0.05, 0.95, size=n))
                w_raw.append(rng.uniform(0, 2, size=n))
            nt = int(rng.integers(1, 8))
            dt = rng.uniform(0.05, 0.95, size=nt)
            wt = rng.uniform(0, 2, size=nt)
            out = np.concatenate(d_raw + [dt])[:, None]
            sizes = [len(d) for d in d_raw] + [nt]
            got, _ = domain_loss(out, np.concatenate(w_raw + [wt]), sizes)
            want = _domain_loss_oracle(d_raw, w_raw, dt, wt)
            assert got == pytest.approx(want, abs=1e-9)

    def test_zero_weights_zero_loss_and_gradient(self):
        out = np.random.default_rng(0).uniform(0.2, 0.8, size=(6, 1))
        loss, grad = domain_loss(out, np.zeros(6), [3, 3])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_saturated_outputs_stay_finite(self):
        # source rows first, then the target rows
        out = np.array([[0.0], [1.0], [1.0], [0.0]])
        loss, grad = domain_loss(out, np.ones(4), [2, 2])
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()
        # fully clamped rows contribute no gradient
        np.testing.assert_array_equal(grad, 0.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            domain_loss(np.full((3, 1), 0.5), np.ones(3), [3])
        with pytest.raises(ValueError):
            domain_loss(np.full((3, 1), 0.5), np.ones(3), [1, 1])
        with pytest.raises(ValueError):
            domain_loss(np.full((3, 1), 0.5), np.ones(2), [1, 2])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        d = rng.uniform(0.1, 0.9, size=(12, 1))
        w = rng.uniform(0, 1, size=12)
        sizes = [4, 3, 5]

        _, grad = domain_loss(d, w, sizes)
        numeric = numeric_gradient(lambda: domain_loss(d, w, sizes)[0], d)
        assert max_rel_err(grad, numeric) < 1e-4


class TestGrlRamp:
    def test_starts_at_zero_and_saturates(self):
        assert grl_lambda(0, 100) == pytest.approx(0.0, abs=1e-12)
        assert grl_lambda(100, 100, max_lambda=0.8) == pytest.approx(0.8, abs=1e-3)

    def test_monotone_in_progress(self):
        vals = [grl_lambda(s, 50) for s in range(0, 51, 5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_zero_total_steps_means_full_strength(self):
        assert grl_lambda(0, 0, max_lambda=2.0) == pytest.approx(
            2.0 * (2.0 / (1.0 + math.exp(-10.0)) - 1.0), abs=1e-12
        )


class TestHyperparams:
    def test_collects_violations(self):
        bad = Hyperparams(w0=1.5, epsilon=-0.1, batch_size=0, lr_features=0.0, feature_dim=0)
        assert len(bad.violations()) == 5

    def test_negative_weight_decay_rejected(self):
        assert any("weight_decay" in v for v in Hyperparams(weight_decay=-1e-3).violations())

    def test_defaults_valid(self):
        assert Hyperparams().violations() == []


MATRIX = UmdaMatrix((4, 4), (3, 3), 6, 3)


def tiny_setup(seed=0, **hp_kw):
    partition = partition_from_matrix(MATRIX)
    spec = SyntheticSpec(feature_dim=8, samples_per_class=20, seed=seed)
    datasets = generate(spec, partition)
    base = dict(
        max_steps=25,
        batch_size=16,
        feature_hidden=(16,),
        feature_dim=8,
        disc_hidden=(8,),
        seed=seed,
    )
    base.update(hp_kw)
    return datasets, partition, standard_hp(**base)


class TestTrainerMechanics:
    def test_zero_steps_returns_fresh_nets(self):
        datasets, partition, hp = tiny_setup(max_steps=0)
        result = train(datasets, partition, hp)
        assert result.trace == []
        assert result.register.step == 0
        assert (result.register.values == 0).all()

    def test_gate_closed_when_epsilon_zero(self):
        datasets, partition, hp = tiny_setup(epsilon=0.0)
        result = train(datasets, partition, hp)
        assert result.register.step == 0
        assert all(not r.tmr_updated for r in result.trace)
        # with an all-zero register every margin weight is zero
        assert all(r.mean_weight_common == 0.0 for r in result.trace)
        assert all(r.mean_weight_target == 0.0 for r in result.trace)

    def test_gate_matches_trace_errors(self):
        for eps in (0.1, 1.0):
            datasets, partition, hp = tiny_setup(epsilon=eps)
            result = train(datasets, partition, hp)
            for r in result.trace:
                assert r.tmr_updated == (max(r.source_errors) < eps)
            assert result.register.step == sum(r.tmr_updated for r in result.trace)

    def test_source_only_never_touches_register_or_discriminator(self):
        datasets, partition, hp = tiny_setup(epsilon=1.0)
        result = train(datasets, partition, hp, method="source_only")
        assert result.register.step == 0
        assert all(r.domain_loss == 0.0 for r in result.trace)
        fresh = train(datasets, partition, replace(hp, max_steps=0))
        for (p, _), (q, _) in zip(
            result.discriminator.param_arrays(), fresh.discriminator.param_arrays()
        ):
            np.testing.assert_array_equal(p, q)

    def test_classification_loss_decreases(self):
        datasets, partition, hp = tiny_setup(
            max_steps=150, batch_size=1000, lr_features=0.2, lr_classifier=0.2
        )
        result = train(datasets, partition, hp, method="source_only")
        first, last = result.trace[0].class_loss, result.trace[-1].class_loss
        assert last < first * 0.5

    def test_deterministic_given_seed(self):
        datasets, partition, hp = tiny_setup()
        a = train(datasets, partition, hp)
        b = train(datasets, partition, hp)
        assert a.trace == b.trace
        for net_a, net_b in (
            (a.feature_net, b.feature_net),
            (a.classifier, b.classifier),
            (a.discriminator, b.discriminator),
        ):
            for (p, _), (q, _) in zip(net_a.param_arrays(), net_b.param_arrays()):
                np.testing.assert_array_equal(p, q)

    def test_different_seed_differs(self):
        a = train(*tiny_setup(seed=0))
        b = train(*tiny_setup(seed=1))
        assert not np.array_equal(
            a.feature_net.layers[0].w, b.feature_net.layers[0].w
        )

    def test_non_finite_loss_aborts_with_context(self):
        datasets, partition, hp = tiny_setup()
        datasets[0].features[:, 0] = np.nan
        with pytest.raises(TrainingDiverged) as exc:
            train(datasets, partition, hp)
        assert exc.value.step == 0
        assert exc.value.last_report is None

    def test_rejects_bad_inputs(self):
        datasets, partition, hp = tiny_setup()
        with pytest.raises(ValueError, match="unknown method"):
            train(datasets, partition, hp, method="squares")
        with pytest.raises(ValueError, match="source datasets"):
            train(datasets[:-1], partition, hp)
        with pytest.raises(ValueError, match="w0"):
            train(datasets, partition, replace(hp, w0=2.0))
        swapped = [datasets[-1]] + list(datasets[1:-1]) + [datasets[0]]
        with pytest.raises(ValueError, match="no labels"):
            train(swapped, partition, hp)

    def test_rejects_non_contiguous_source_classes(self):
        partition = LabelPartition.from_primaries([(0, 2)], (0, 1), 3)
        spec = SyntheticSpec(feature_dim=4, samples_per_class=5)
        datasets = generate(spec, partition)
        _, _, hp = tiny_setup()
        with pytest.raises(ValueError, match="contiguous"):
            train(datasets, partition, hp)


class TestSourceOnlyForward:
    def test_feature_net_sees_only_source_rows(self, monkeypatch):
        """Without D nothing reads the target's features, so F and G run
        over the source rows only; the adversarial methods forward all."""
        calls = []
        forward = uman.core.forward_mlp

        def recording(net, x, blocks=None, plan=None):
            calls.append((net.in_dim, net.out_dim, x.shape[-2], tuple(blocks)))
            return forward(net, x, blocks, plan)

        monkeypatch.setattr(uman.core, "forward_mlp", recording)
        datasets, partition, hp = tiny_setup(max_steps=3)
        sizes = (16,) * len(datasets)
        n_src, n_all = sum(sizes[:-1]), sum(sizes)
        f_shape = (datasets[0].features.shape[1], hp.feature_dim)
        g_shape = (hp.feature_dim, partition.n_source_classes)
        d_shape = (hp.feature_dim, 1)
        for method, want in (
            ("source_only", [(*f_shape, n_src, sizes[:-1]), (*g_shape, n_src, sizes[:-1])]),
            ("uman", [(*f_shape, n_all, sizes), (*g_shape, n_all, sizes[:-1]), (*d_shape, n_all, sizes)]),
        ):
            calls.clear()
            train(datasets, partition, hp, method=method)
            assert calls == want * 3, method


def _oracle_setup(matrix, short_source=None, seed=3):
    """A 100-step run of the standard widths; optionally one source keeps 19
    rows, fewer than ``batch_size``, so its sub-batch is smaller than the rest
    and the blocks after it start at rows no BLAS kernel width divides."""
    partition = partition_from_matrix(matrix)
    datasets = generate(SyntheticSpec(feature_dim=16, samples_per_class=40, seed=seed), partition)
    if short_source is not None:
        ds = datasets[short_source]
        keep = np.random.default_rng(5).choice(len(ds), size=19, replace=False)
        datasets[short_source] = DomainDataset(ds.domain_id, ds.features[keep], ds.labels[keep], None)
    return datasets, partition, standard_hp(seed=seed, max_steps=100, epsilon=0.6)


LAYOUTS = pytest.mark.parametrize(
    "matrix, short_source",
    [
        (standard_matrix(), None),
        (UmdaMatrix((5,) * 5, (3,) * 5, 6, 3), None),
        (standard_matrix(), 0),
    ],
    ids=["two_sources", "five_sources", "ragged"],
)


def assert_same_training(got, want):
    """Every parameter, the register and the trace agree bit for bit."""
    for net_got, net_want in (
        (got.feature_net, want.feature_net),
        (got.classifier, want.classifier),
        (got.discriminator, want.discriminator),
    ):
        for (p, _), (q, _) in zip(net_got.param_arrays(), net_want.param_arrays()):
            assert p.shape == q.shape
            assert p.tobytes() == q.tobytes()
    assert got.register.values.tobytes() == want.register.values.tobytes()
    assert got.register.step == want.register.step
    # repr keeps every bit of a float, the sign of zero included
    assert repr(got.trace) == repr(want.trace)


class TestStackedStepMatchesPerSourceLoop:
    """One stacked pass per net must train exactly like the per-source loop."""

    @pytest.mark.parametrize("method", ["uman", "source_only", "unweighted_adv"])
    @LAYOUTS
    def test_bit_identical(self, matrix, short_source, method):
        datasets, partition, hp = _oracle_setup(matrix, short_source)
        got = train(datasets, partition, hp, method=method)
        want = per_source_train(datasets, partition, hp, method=method)
        if short_source is not None:
            assert len(datasets[short_source]) < hp.batch_size
        if method == "uman":
            # the gate opened, so register-derived weights were exercised
            assert 0 < got.register.step < hp.max_steps
        assert_same_training(got, want)


class TestRunAxisMatchesTrainingAlone:
    """Runs trained as one batch along the run axis train exactly as alone."""

    SEEDS = (3, 4, 5)

    def setups(self, matrix=None, short_source=None):
        return [_oracle_setup(matrix or standard_matrix(), short_source, seed) for seed in self.SEEDS]

    @pytest.mark.parametrize("method", METHODS)
    @LAYOUTS
    def test_bit_identical(self, matrix, short_source, method):
        setups = self.setups(matrix, short_source)
        partition = setups[0][1]
        got = train_runs([(datasets, hp) for datasets, _, hp in setups], partition, method=method)
        assert len(got) == len(setups)
        for (datasets, _, hp), result in zip(setups, got):
            assert_same_training(result, train(datasets, partition, hp, method=method))

    def test_diverging_run_leaves_the_batch(self):
        setups = self.setups()
        partition = setups[0][1]
        setups[1][0][0].features[71] = np.nan  # a source row the middle run draws at step 6
        datasets, _, hp = setups[1]
        with pytest.raises(TrainingDiverged) as alone:
            train(datasets, partition, hp)
        assert alone.value.step > 0 and alone.value.last_report is not None

        got = train_runs([(datasets, hp) for datasets, _, hp in setups], partition)
        assert type(got[1]) is TrainingDiverged
        assert str(got[1]) == str(alone.value)
        assert got[1].step == alone.value.step
        assert repr(got[1].last_report) == repr(alone.value.last_report)
        for i in (0, 2):
            datasets, _, hp = setups[i]
            assert_same_training(got[i], train(datasets, partition, hp))

    def test_diverged_run_skips_its_backward(self, monkeypatch):
        """A run whose loss is not finite leaves before that step's
        backward, alone and in a batch, so none of its NaNs or overflows
        reach a gradient."""
        setups = self.setups()
        partition = setups[0][1]
        setups[1][0][0].features[71] = np.nan  # as in the test above
        datasets, _, hp = setups[1]
        runs_seen = []
        backward = uman.core.l2_normalize_backward

        def recording(x, grad, *norms):
            runs_seen.append(len(x))
            return backward(x, grad, *norms)

        monkeypatch.setattr(uman.core, "l2_normalize_backward", recording)
        with pytest.raises(TrainingDiverged) as alone:
            train(datasets, partition, hp)
        step = alone.value.step
        assert runs_seen == [1] * step
        runs_seen.clear()
        train_runs([(datasets, hp) for datasets, _, hp in setups], partition)
        assert runs_seen == [3] * step + [2] * (hp.max_steps - step)

    def test_non_finite_gradient_leaves_the_batch(self, monkeypatch):
        """An infinity planted in one run's feature gradient at step 40 ends
        that run with the error it raises alone, before any parameter moves."""
        setups = self.setups()
        partition = setups[0][1]
        backward = uman.core.l2_normalize_backward

        def plant(run):
            calls = []

            def planted(x, grad, *norms):
                out = backward(x, grad, *norms)
                calls.append(None)
                if len(calls) == 41:
                    out[run, 0, 0] = np.inf
                return out

            monkeypatch.setattr(uman.core, "l2_normalize_backward", planted)

        datasets, _, hp = setups[1]
        plant(0)
        with pytest.raises(NonFiniteGradientError) as alone:
            train(datasets, partition, hp, method="unweighted_adv")
        plant(1)
        got = train_runs(
            [(datasets, hp) for datasets, _, hp in setups], partition, method="unweighted_adv"
        )
        monkeypatch.undo()
        assert type(got[1]) is NonFiniteGradientError
        assert str(got[1]) == str(alone.value)
        assert str(alone.value).startswith("layer 0 parameter w: ")
        assert got[1].step == alone.value.step == 40
        for i in (0, 2):
            datasets, _, hp = setups[i]
            assert_same_training(got[i], train(datasets, partition, hp, method="unweighted_adv"))

    @pytest.mark.parametrize(
        "loss_step, grad_step",
        [(None, 40), (None, None), (CHUNK - 1, CHUNK), (CHUNK, CHUNK), (CHUNK + 1, CHUNK - 1)],
        ids=["later_step", "same_step", "chunk_end_then_start", "chunk_start", "gradient_first"],
    )
    def test_loss_and_gradient_failures_leave_by_one_path(self, monkeypatch, loss_step, grad_step):
        """The middle run's loss diverges, at the step it draws the NaN row
        above or, planted, at ``loss_step``; the last run's feature gradient
        gets an infinity at ``grad_step`` (the middle run's step by default),
        at its stack position then: 1 once the middle run has left, else 2.
        The planted steps sit on both sides of a chunk boundary. Each failed
        run ends with the error it raises alone, the middle run with the
        last trace row it has alone, and the first run trains as alone."""
        setups = self.setups()
        partition = setups[0][1]
        if loss_step is None:
            setups[1][0][0].features[71] = np.nan

        def plant(name, step, poison):
            """Let ``poison`` change the output of the core function
            ``name`` at ``step``; it runs once per step."""
            original, calls = getattr(uman.core, name), []

            def planted(*args):
                out = original(*args)
                calls.append(None)
                if len(calls) == step + 1:
                    poison(out)
                return out

            monkeypatch.setattr(uman.core, name, planted)

        def plant_loss(position):
            def poison(out):
                out[0][position] = np.nan  # the run's classification loss

            if loss_step is not None:
                plant("_classification_loss", loss_step, poison)

        def plant_gradient(step, position):
            def poison(out):
                out[position, 0, 0] = np.inf  # the run's feature gradient

            plant("l2_normalize_backward", step, poison)

        plant_loss(0)
        with pytest.raises(TrainingDiverged) as diverged:
            train(setups[1][0], partition, setups[1][2])
        monkeypatch.undo()
        loss_at = diverged.value.step
        grad_at = loss_at if grad_step is None else grad_step
        assert loss_at == (6 if loss_step is None else loss_step)
        plant_gradient(grad_at, 0)
        with pytest.raises(NonFiniteGradientError) as infinite:
            train(setups[2][0], partition, setups[2][2])
        monkeypatch.undo()
        plant_loss(1)
        plant_gradient(grad_at, 1 if loss_at <= grad_at else 2)
        got = train_runs([(datasets, hp) for datasets, _, hp in setups], partition)
        monkeypatch.undo()
        assert infinite.value.step == grad_at
        for error, alone in ((got[1], diverged.value), (got[2], infinite.value)):
            assert type(error) is type(alone)
            assert str(error) == str(alone)
            assert error.step == alone.step
        assert repr(got[1].last_report) == repr(diverged.value.last_report)
        assert got[1].last_report.step == loss_at - 1
        assert_same_training(got[0], train(setups[0][0], partition, setups[0][2]))

    def test_runs_must_differ_only_in_the_seed(self):
        setups = self.setups()
        partition = setups[0][1]
        runs = [(datasets, hp) for datasets, _, hp in setups]
        with pytest.raises(ValueError, match="only in the seed"):
            train_runs(runs[:2] + [(runs[2][0], replace(runs[2][1], lr_features=0.2))], partition)
        # a shorter source joins the batch while it still fills its
        # sub-batch, and not once it draws fewer rows than the others
        short = list(runs[2][0])
        short[0] = DomainDataset(0, short[0].features[:50], short[0].labels[:50], None)
        assert_same_training(train_runs(runs[:2] + [(short, runs[2][1])], partition)[2], train(short, partition, runs[2][1]))
        short[0] = DomainDataset(0, short[0].features[:20], short[0].labels[:20], None)
        with pytest.raises(ValueError, match=r"one layout: run 2 has sub batch sizes \(20, 32, 32\), run 0 \(32, 32, 32\)"):
            train_runs(runs[:2] + [(short, runs[2][1])], partition)

    def test_runs_of_other_layouts_are_rejected(self):
        """Runs that differ in the source classes, the common classes or the
        input width cannot share a batch; each run is checked against its
        own partition."""
        [(datasets, partition, hp)] = self.setups()[:1]
        for matrix, field in (
            (UmdaMatrix((5, 5), (3, 4), 6, 3), "source classes 13, run 0 12"),
            (UmdaMatrix((5, 5), (4, 3), 5, 3), "common classes (0, 1, 2, 3, 4), run 0 (0, 1, 2, 3, 4, 5)"),
        ):
            other, other_partition, other_hp = _oracle_setup(matrix)
            with pytest.raises(ValueError, match=re.escape(f"run 1 has {field}")):
                train_runs([(datasets, hp), (other, other_hp)], [partition, other_partition])
        wide = generate(SyntheticSpec(feature_dim=17, samples_per_class=40, seed=3), partition)
        with pytest.raises(ValueError, match="run 1 has input width 17, run 0 16"):
            train_runs([(datasets, hp), (wide, hp)], partition)
        with pytest.raises(ValueError, match="outside the target label set"):
            train_runs([(datasets, hp)] * 2, [partition, partition_from_matrix(UmdaMatrix((5, 5), (3, 3), 6, 2))])
        with pytest.raises(ValueError, match="one label partition per run, got 1 for 2 runs"):
            train_runs([(datasets, hp)] * 2, [partition])


def cross_cell_runs(lr):
    """Seeds 0 and 1 of the target-private sizes 0 and 6 on a tiny spec, 24
    steps at learning rate ``lr``: one layout, four datasets of three
    target lengths. At 5e103 some runs diverge and the others converge."""
    runs, partitions = [], []
    for target_private in (0, 6):
        partition = partition_from_matrix(UmdaMatrix((2, 2), (1, 1), 3, target_private))
        for seed in (0, 1):
            spec = SyntheticSpec(feature_dim=4, samples_per_class=8, seed=seed)
            hp = Hyperparams(
                max_steps=24, batch_size=8, feature_hidden=(8,), feature_dim=4, disc_hidden=(4,),
                lr_features=lr, lr_classifier=lr, lr_discriminator=lr, seed=seed,
            )
            runs.append((generate(spec, partition), hp))
            partitions.append(partition)
    return runs, partitions


class TestCrossCellBatch:
    """Runs of cells whose target classes differ train in one batch as alone."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("lr", [0.1, 5e103], ids=["converging", "partly_diverging"])
    def test_bit_identical(self, method, lr):
        runs, partitions = cross_cell_runs(lr)
        assert len({len(datasets[-1]) for datasets, _ in runs}) == 2
        got = train_runs(runs, partitions, method=method)
        failed = 0
        for (datasets, hp), partition, result in zip(runs, partitions, got):
            try:
                want = train(datasets, partition, hp, method=method)
            except (TrainingDiverged, NonFiniteGradientError) as alone:
                failed += 1
                assert type(result) is type(alone)
                assert (str(result), result.step) == (str(alone), alone.step)
                assert repr(getattr(result, "last_report", None)) == repr(getattr(alone, "last_report", None))
                continue
            assert_same_training(result, want)
        assert 0 < failed < len(runs) if lr > 1 else failed == 0


class TestMethodContainment:
    def test_unweighted_run_reports_unit_weights(self):
        datasets, partition, hp = tiny_setup()
        result = train(datasets, partition, hp, method="unweighted_adv")
        for r in result.trace:
            assert r.mean_weight_common == 1.0
            assert r.mean_weight_private == 1.0
            assert r.mean_weight_target == 1.0


class TestInference:
    def _trained_pair(self):
        datasets, partition, hp = tiny_setup(max_steps=10)
        result = train(datasets, partition, hp)
        return result, datasets[-1].features[:40], partition

    def test_matches_margin_recomputation(self):
        result, x, partition = self._trained_pair()
        for w0 in (0.0, 0.3, 0.9):
            preds = predict_classes(result.feature_net, result.classifier, x, w0)
            probs = softmax(forward_mlp(result.classifier, extract_features(result.feature_net, x))[-1])
            pseudo, margins = batch_margins(probs)
            for i in range(len(probs)):
                want = pseudo[i] if margins[i] >= w0 else UNKNOWN
                assert preds[i] == want

    def test_threshold_boundary_is_inclusive(self):
        result, x, _ = self._trained_pair()
        probs = softmax(forward_mlp(result.classifier, extract_features(result.feature_net, x))[-1])
        pseudo, margins = batch_margins(probs[:1])
        # thresholds come from the same batch forward pass so the boundary
        # comparison is exact, not one BLAS reduction order apart
        at = predict_classes(result.feature_net, result.classifier, x, margins[0])[0]
        above = predict_classes(
            result.feature_net, result.classifier, x, min(margins[0] + 1e-9, 1.0)
        )[0]
        assert at == pseudo[0]
        assert above == UNKNOWN

    def test_w0_zero_never_rejects_and_w0_one_rarely_accepts(self):
        result, x, _ = self._trained_pair()
        always = predict_classes(result.feature_net, result.classifier, x, 0.0)
        assert (always != UNKNOWN).all()
