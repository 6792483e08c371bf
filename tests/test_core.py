"""Margin machinery, register gating, loss wiring, and the training loop."""

import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from helpers import (
    PROPERTY,
    assert_same_array,
    max_rel_err,
    numeric_gradient,
    param_pairs,
    per_source_train,
    per_step_batches,
    random_simplex,
    run_cost,
    standard_hp,
    standard_matrix,
    trace_column,
)

import uman.cli
import uman.core
from uman.config import parse_config
from uman.core import (
    CHUNK,
    METHODS,
    UNKNOWN,
    Hyperparams,
    TargetMarginRegister,
    TrainingDiverged,
    TrainResult,
    _Batch,
    _check_runs,
    _chunk_stream,
    batch_layout,
    batch_margins,
    classification_loss,
    domain_loss,
    extract_features,
    grl_lambda,
    margin_vector,
    normalize_weights,
    predict_classes,
    run_floats,
    sample_weights,
    trace_columns,
    train,
    train_runs,
)
from uman.labelspace import LabelPartition, UmdaMatrix, partition_from_matrix
from uman.nn import NonFiniteGradientError, Plan, forward_mlp, softmax
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

    @pytest.mark.parametrize("pseudo", [[[0, 4], [1, 1]], [[0, 3], [1, 1]], [[0, -1], [1, 1]]])
    def test_label_outside_the_classes_is_refused(self, pseudo):
        """Run 0's label 4 (or 3) would be filed under run 1's class 1 (or 0)."""
        with pytest.raises(ValueError, match=r"^pseudo-labels outside \[0, 3\)$"):
            margin_vector(pseudo, [[0.5, 0.5], [0.2, 0.2]], 3)


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

    def test_update_rejects_nan(self):
        reg = TargetMarginRegister(2)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            reg.update([np.nan, 0.5], [True, True])
        assert reg.step == 0
        assert reg.values.tolist() == [0.0, 0.0]


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

    def test_normalize_empty_group_stays_empty(self):
        # a group with no rows has no mean, and divides by nothing
        assert_same_array(normalize_weights(np.zeros((3, 0))), np.zeros((3, 0)))

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

    @pytest.mark.parametrize("labels, dtype", [([0.7, 1.9], "float64"), ([True, False], "bool")])
    def test_labels_that_are_not_integers_are_refused(self, labels, dtype):
        with pytest.raises(ValueError, match=f"^labels must be integers, got {dtype}$"):
            classification_loss(np.zeros((2, 2)), labels, [2])

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
    """Hyperparams out of range are refused at construction, each problem
    one argument of the error."""

    def test_collects_violations(self):
        with pytest.raises(ValueError) as refused:
            Hyperparams(w0=1.5, epsilon=-0.1, batch_size=0, lr_features=0.0, feature_dim=0)
        assert len(refused.value.args) == 5
        assert str(refused.value) == "; ".join(refused.value.args)

    @pytest.mark.parametrize("name", ["weight_decay", "grl_gamma"])
    def test_negative_value_rejected(self, name):
        with pytest.raises(ValueError) as refused:
            Hyperparams(**{name: -1e-3})
        assert refused.value.args == (f"{name} must be >= 0, got -0.001",)

    def test_defaults_valid(self):
        assert Hyperparams().violations() == []

    def test_hidden_widths_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^feature_hidden widths must be >= 1, got \(0,\)$"):
            Hyperparams(feature_hidden=(0,))


# values of the right type and in range for each field of the tiny setup
# below; out-of-range and wrongly typed values are drawn on top of these
_VALID = {
    "w0": st.floats(0, 1),
    "epsilon": st.floats(0, 1),
    "max_steps": st.integers(0, 3),
    "batch_size": st.integers(1, 8),
    "lr_features": st.floats(1e-3, 0.5),
    "lr_classifier": st.floats(1e-3, 0.5),
    "lr_discriminator": st.floats(1e-3, 0.5),
    "grl_max_lambda": st.floats(0, 2),
    "grl_gamma": st.floats(0, 20),
    "weight_decay": st.floats(0, 0.01),
    "feature_hidden": st.lists(st.integers(1, 6), max_size=2),
    "feature_dim": st.integers(1, 6),
    "disc_hidden": st.lists(st.integers(1, 6), max_size=2),
    "seed": st.integers(0, 2**64 - 1),
    "samples_per_class": st.integers(1, 6),
    "class_center_scale": st.floats(0, 3),
    "noise_sigma": st.floats(0, 3),
    "domain_shift_scale": st.floats(0, 3),
    "domain_rotation": st.booleans(),
}
_WRONG = ["1", "", None, b"1", {}, [1.5], [True], (4.0,), 8.5, 4.0, 1, 0, -1, -0.5, True, False, 1j]


def _as_numpy(value, narrow):
    """``value`` as a numpy array (of a list) or scalar: of numpy's default
    type for it, or with ``narrow`` of a 32-bit type where one holds it."""
    if isinstance(value, list):
        return np.array(value, dtype=np.int32 if narrow else np.int64)
    if narrow and type(value) in (int, float) and abs(value) < 2**31:
        return (np.int32 if isinstance(value, int) else np.float32)(value)
    return np.array(value)[()]


def _field_values(name, kind):
    """Any value a caller may pass for the field ``name``, annotated
    ``kind``: a valid one, the same as numpy holds it, NaN or an infinity, a
    bool, one of the wrong type or out of range, or for an integer field
    one past any memory."""
    valid = _VALID[name]
    huge = {"int": [2**1100, 2**62], "tuple[int, ...]": [[2**1100], [2**62]]}.get(kind, [])
    return st.one_of(
        valid,
        st.builds(_as_numpy, valid, st.booleans()),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.booleans(),
        st.sampled_from(_WRONG + huge),
    )


def _field_cases(cls):
    kinds = {f.name: f.type for f in fields(cls)}
    return st.sampled_from(list(kinds)).flatmap(lambda name: st.tuples(st.just(name), _field_values(name, kinds[name])))


_TINY_PARTITION = partition_from_matrix(UmdaMatrix((2, 2), (1, 1), 3, 1))
_TINY_SPEC = SyntheticSpec(feature_dim=3, samples_per_class=4)
_TINY_HP = Hyperparams(max_steps=2, batch_size=4, feature_hidden=(4,), feature_dim=3, disc_hidden=(4,))


class TestApiFieldTypes:
    """The Python API applies the config file's type rule and the
    planner's memory bound: building ``Hyperparams`` or ``SyntheticSpec``
    from any value either gives a config that trains or generates finite
    numbers, or raises TypeError or ValueError naming the field or the
    memory limit, before any net or buffer exists."""

    @given(_field_cases(Hyperparams))
    @example(("batch_size", 8.5))
    @example(("max_steps", 3.5))
    @example(("feature_dim", 4.0))
    @example(("lr_features", math.nan))
    @example(("grl_gamma", math.inf))
    @example(("weight_decay", True))
    @example(("lr_features", 2**1100))
    @example(("max_steps", 2**62))
    @example(("feature_hidden", [2**1100]))
    @example(("seed", 2**1100))
    @PROPERTY
    def test_train_returns_or_names_the_field(self, case):
        name, value = case
        datasets = generate(_TINY_SPEC, _TINY_PARTITION)
        try:
            result = train(datasets, _TINY_PARTITION, replace(_TINY_HP, **{name: value}))
        except (TypeError, ValueError) as exc:
            assert name in str(exc) or "above the limit of 100,000,000" in str(exc)
            return
        assert np.isfinite(result.trace).all()

    @given(_field_cases(SyntheticSpec))
    @example(("noise_sigma", math.nan))
    @example(("feature_dim", 4.0))
    @example(("samples_per_class", 3.5))
    @example(("domain_rotation", 1))
    @example(("noise_sigma", -(2**1100)))
    @example(("samples_per_class", 2**62))
    @example(("seed", 2**1100))
    @PROPERTY
    def test_generate_returns_or_names_the_field(self, case):
        name, value = case
        try:
            datasets = generate(replace(_TINY_SPEC, **{name: value}), _TINY_PARTITION)
        except (TypeError, ValueError) as exc:
            assert name in str(exc) or "above the limit of 100,000,000" in str(exc)
            return
        assert all(np.isfinite(ds.features).all() for ds in datasets)

    @pytest.mark.parametrize(
        "cls, name, value, error, message",
        [
            (Hyperparams, "batch_size", 8.5, TypeError, "batch_size must be integral, got 8.5"),
            (Hyperparams, "lr_features", math.nan, ValueError, "lr_features must be a finite number, got nan"),
            (Hyperparams, "weight_decay", True, TypeError, "weight_decay must be a real number, got True"),
            (Hyperparams, "feature_hidden", (64.0,), TypeError, "feature_hidden must be integral, got (64.0,)"),
            (SyntheticSpec, "noise_sigma", math.nan, ValueError, "noise_sigma must be a finite number, got nan"),
            (SyntheticSpec, "domain_rotation", 1, TypeError, "domain_rotation must be a bool, got 1"),
        ],
    )
    def test_construction_refuses_by_name(self, cls, name, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(**{name: value})

    def test_numpy_values_become_python_values(self):
        hp = Hyperparams(w0=np.float32(0.25), max_steps=np.int64(3), feature_hidden=np.array([4, 5]), seed=np.uint16(7))
        assert hp == Hyperparams(w0=0.25, max_steps=3, feature_hidden=(4, 5), seed=7)
        assert [type(v) for v in (hp.w0, hp.max_steps, *hp.feature_hidden, hp.seed)] == [float, int, int, int, int]
        assert SyntheticSpec(noise_sigma=7, seed=np.int32(2)) == SyntheticSpec(noise_sigma=7.0, seed=2)


MATRIX = UmdaMatrix((4, 4), (3, 3), 6, 3)


class TestMemoryBound:
    """``train_runs`` holds its own runs to the planner's memory bound,
    :func:`~uman.core.cost_problems` at the batch's one method, before it
    builds a net or a buffer."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("feature_dim", 2**1100),
            ("max_steps", 2**62),
            ("max_steps", 10**9),
            ("feature_hidden", (2**1100,)),
            ("feature_hidden", (2**40,)),
            ("disc_hidden", (2**1100,)),
            ("disc_hidden", (2**40,)),
        ],
        ids=["feature_dim=2**1100", "max_steps=2**62", "max_steps=10**9", "feature_hidden=(2**1100,)",
             "feature_hidden=(2**40,)", "disc_hidden=(2**1100,)", "disc_hidden=(2**40,)"],
    )
    def test_run_past_the_bound_is_refused(self, name, value):
        datasets = generate(_TINY_SPEC, _TINY_PARTITION)
        with pytest.raises(ValueError, match="^a method batch would hold .*, above the limit of 100,000,000$"):
            train(datasets, _TINY_PARTITION, replace(_TINY_HP, **{name: value}))

    def test_planner_and_train_runs_refuse_the_same_batch(self, monkeypatch):
        """A batch of two runs that holds exactly the bound is planned and
        trains; with the bound one float lower, the planner and
        ``train_runs`` refuse it with one message."""
        config, problems = parse_config({
            "umda_matrix": [[2, 2, 3], [1, 1, 1]],
            "synthetic": {"feature_dim": 3, "samples_per_class": 4},
            "hyperparams": {"max_steps": 20, "batch_size": 4, "feature_hidden": [4], "feature_dim": 3, "disc_hidden": [4]},
            "methods": ["uman"],
            "seeds": [0, 1],
            "output_dir": "out",
        })
        assert problems == []
        partition = config.matrix.partition
        runs = [(generate(config.synthetic, partition), replace(config.hyperparams, seed=seed)) for seed in config.seeds]
        rows, params, buffers, steps, columns = run_floats(*run_cost(config))
        limit = 2 * (rows * 3 + params + buffers + steps * columns)
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", limit)
        assert uman.cli._plan(config, 0)[2] == []
        assert [type(result) for result in train_runs(runs, partition)] == [TrainResult, TrainResult]
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", limit - 1)
        [problem] = uman.cli._plan(config, 0)[2]
        assert problem.startswith(f"a method batch would hold {limit:,} floats (2 runs x (")
        assert problem.endswith(f"above the limit of {limit - 1:,}")
        with pytest.raises(ValueError) as refused:
            train_runs(runs, partition)
        assert str(refused.value) == problem


def _label_outside_its_source(datasets):
    datasets[0].labels[0] = 11  # a private class of source 2
    return [datasets]


def _labeled_target(datasets):
    target = datasets[-1]
    return [[*datasets[:-1], DomainDataset(target.domain_id, target.features, target.eval_labels, target.eval_labels)]]


def _label_outside_the_target(datasets):
    datasets[-1].eval_labels[0] = 6  # a private class of source 1
    return [datasets]


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
        assert result.trace.shape == (0, len(trace_columns(partition.n_sources)))
        assert result.register.step == 0
        assert (result.register.values == 0).all()

    def test_gate_closed_when_epsilon_zero(self):
        datasets, partition, hp = tiny_setup(epsilon=0.0)
        result = train(datasets, partition, hp)
        assert result.register.step == 0
        assert not trace_column(result.trace, "tmr_updated").any()
        # with an all-zero register every margin weight is zero
        assert (trace_column(result.trace, "mean_weight_common") == 0.0).all()
        assert (trace_column(result.trace, "mean_weight_target") == 0.0).all()

    def test_gate_matches_trace_errors(self):
        for eps in (0.1, 1.0):
            datasets, partition, hp = tiny_setup(epsilon=eps)
            result = train(datasets, partition, hp)
            updated = trace_column(result.trace, "tmr_updated")
            errors = trace_column(result.trace, "err_source")
            for upd, err in zip(updated.tolist(), errors.tolist()):
                assert upd == (max(err) < eps)
            assert result.register.step == sum(updated.tolist())

    def test_source_only_never_touches_register_or_discriminator(self):
        datasets, partition, hp = tiny_setup(epsilon=1.0)
        result = train(datasets, partition, hp, method="source_only")
        assert result.register.step == 0
        assert (trace_column(result.trace, "domain_loss") == 0.0).all()
        fresh = train(datasets, partition, replace(hp, max_steps=0))
        np.testing.assert_array_equal(result.discriminator.params, fresh.discriminator.params)

    def test_classification_loss_decreases(self):
        datasets, partition, hp = tiny_setup(
            max_steps=150, batch_size=1000, lr_features=0.2, lr_classifier=0.2
        )
        result = train(datasets, partition, hp, method="source_only")
        first, last = trace_column(result.trace, "class_loss")[[0, -1]]
        assert last < first * 0.5

    def test_deterministic_given_seed(self):
        datasets, partition, hp = tiny_setup()
        a = train(datasets, partition, hp)
        b = train(datasets, partition, hp)
        assert_same_array(a.trace, b.trace)
        for net_a, net_b in (
            (a.feature_net, b.feature_net),
            (a.classifier, b.classifier),
            (a.discriminator, b.discriminator),
        ):
            np.testing.assert_array_equal(net_a.params, net_b.params)

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

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda datasets: [], "need at least one run"),
            (_label_outside_its_source, "source 1 carries labels [11] outside its label set"),
            (_labeled_target, "the last dataset must be the unlabeled target"),
            (_label_outside_the_target, "target evaluation labels [6] outside the target label set"),
        ],
        ids=["no run", "source label", "labeled target", "target label"],
    )
    def test_rejected_runs_are_named(self, spoil, message):
        datasets, partition, hp = tiny_setup()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_runs([(spoiled, hp) for spoiled in spoil(datasets)], partition)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("steps", [0, 5])
    @pytest.mark.parametrize("k", [0, 2], ids=["source", "target"])
    def test_empty_domain_is_rejected_before_any_batch(self, monkeypatch, k, steps, method):
        datasets, partition, hp = tiny_setup(max_steps=steps)
        ds = datasets[k]
        datasets[k] = DomainDataset(k, ds.features[:0], None if ds.labels is None else ds.labels[:0], ds.eval_labels[:0])

        def unbuilt(*args):
            raise AssertionError("a batch was built")

        monkeypatch.setattr(uman.core, "_Batch", unbuilt)
        with pytest.raises(ValueError, match=rf"^dataset {k} is empty$"):
            train(datasets, partition, hp, method=method)
        with pytest.raises(ValueError, match=rf"^dataset {k} is empty$"):
            train_runs([(tiny_setup()[0], hp), (datasets, hp)], partition, method=method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "k, spoil, message",
        [
            (2, lambda ds: replace(ds, features=ds.features[:, :4]),
             "dataset 2 has features of shape (180, 4), not 2-d as wide as dataset 0's"),
            (1, lambda ds: replace(ds, labels=ds.labels[:-9]),
             "dataset 1 has labels of shape (131,), not one per row (140,)"),
            (2, lambda ds: replace(ds, eval_labels=ds.eval_labels[:, None]),
             "dataset 2 has eval_labels of shape (180, 1), not one per row (180,)"),
            (1, lambda ds: replace(ds, features=ds.features[:, 0]),
             "dataset 1 has features of shape (140,), not 2-d as wide as dataset 0's"),
            (0, lambda ds: replace(ds, features=ds.features[:, 0]),
             "dataset 0 has features of shape (140,), not 2-d as wide as dataset 0's"),
        ],
        ids=["narrow target", "short source labels", "2-d target labels", "1-d source", "1-d first source"],
    )
    def test_malformed_dataset_is_named_before_any_batch(self, monkeypatch, k, spoil, message, method):
        datasets, partition, hp = tiny_setup()
        datasets[k] = spoil(datasets[k])

        def unbuilt(*args):
            raise AssertionError("a batch was built")

        monkeypatch.setattr(uman.core, "_Batch", unbuilt)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(datasets, partition, hp, method=method)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_runs([(tiny_setup()[0], hp), (datasets, hp)], partition, method=method)


class TestChunkStream:
    """:func:`uman.core._chunk_stream`, the rows training draws,
    :data:`CHUNK` steps per item."""

    @staticmethod
    def _tagged(n, domain_id=0):
        # column 0 holds the row's label, so batch alignment is visible, and
        # column 1 its index
        labels = np.arange(n) % 3
        return DomainDataset(domain_id, np.stack([labels, np.arange(n)], axis=1).astype(float), labels, None)

    @staticmethod
    def _domains(seed, lengths=(41, 6, 23, 30)):
        # column 0 holds the row's index, column 1 its domain and column 2
        # the run's seed; the last domain is the unlabeled target
        out = []
        for domain, n in enumerate(lengths):
            features = np.stack([np.arange(n), np.full(n, domain), np.full(n, seed)], axis=1).astype(float)
            labels = None if domain == len(lengths) - 1 else np.arange(n) % 3
            out.append(DomainDataset(domain, features, labels, None))
        return out

    @staticmethod
    def _drawn_alone(stream):
        """The next :data:`CHUNK` steps of a :func:`per_step_batches` stream
        of one run, as that run's row of a chunk."""
        steps = [next(stream) for _ in range(CHUNK)]
        return tuple(np.concatenate([step[i] for step in steps]) for i in (0, 1))

    def test_batches_keep_feature_label_alignment(self):
        runs = [([self._tagged(30), self._tagged(20, domain_id=1)], 0)]
        x, labels = next(_chunk_stream(runs, (7, 7)))
        assert x.shape == (CHUNK, 1, 14, 2) and labels.shape == (CHUNK, 1, 7)
        np.testing.assert_array_equal(x[:, :, :7, 0], labels)

    def test_epoch_has_no_repeats_and_drops_tail(self):
        x, _ = next(_chunk_stream([([self._tagged(10)], 3)], (4,)))
        # two sub-batches of 4 from each epoch of 10 rows
        for epoch in x[:, 0, :, 1].reshape(CHUNK // 2, 8):
            assert len(set(epoch.tolist())) == 8

    def test_small_domain_caps_its_sub_batch(self):
        small, large = self._tagged(5), self._tagged(50, domain_id=1)
        sizes = batch_layout(partition_from_matrix(MATRIX), Hyperparams(batch_size=32), [5, 50], 2).sub_batch_sizes
        assert sizes == (5, 32)
        x, labels = next(_chunk_stream([([small, large], 0)], sizes))
        assert labels.shape == (CHUNK, 1, 5)
        # each domain draws from its own seeded stream, stacked or not
        np.testing.assert_array_equal(x[:, :, 5:], next(_chunk_stream([([large], 0)], (32,)))[0])

    def test_deterministic_per_seed(self):
        ds = self._tagged(20)
        a, b, c = (next(_chunk_stream([([ds], seed)], (8,)))[0] for seed in (5, 5, 6))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_target_rows_stay_unlabeled(self):
        datasets = generate(SyntheticSpec(feature_dim=8, samples_per_class=40), partition_from_matrix(MATRIX))
        x, labels = next(_chunk_stream([(datasets, 0)], (16, 16, 16)))
        assert x.shape == (CHUNK, 1, 48, 8)
        assert labels.shape == (CHUNK, 1, 32)  # the source rows only

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_chunks_follow_the_per_step_stream(self, n_runs):
        runs = [(self._domains(seed), seed + 11) for seed in range(n_runs)]
        # 3 epochs of the longest domain (5 batches of 8 each), and a step
        # count no chunk length divides
        steps = 3 * CHUNK + 5
        assert steps > 3 * (41 // 8) and steps % CHUNK
        reference, chunks = per_step_batches(runs, 8), _chunk_stream(runs, (8, 6, 8, 8))
        for first in range(0, steps, CHUNK):
            x, labels = next(chunks)
            assert x.shape == (CHUNK, n_runs, 30, 3) and labels.shape == (CHUNK, n_runs, 22)
            for j in range(min(CHUNK, steps - first)):
                want_x, want_labels, want_sizes = next(reference)
                assert want_sizes == (8, 6, 8, 8)
                assert x[j].tobytes() == want_x.tobytes()
                assert labels[j].tobytes() == want_labels.tobytes()

    def test_runs_of_unequal_lengths_each_draw_their_own_stream(self):
        # the second domain is shorter than the batch in every run; the
        # others differ in length from run to run, not in their sub-batch
        runs = [(self._domains(0), 11), (self._domains(1, (17, 6, 40, 9)), 12), (self._domains(2), 13)]
        chunks = _chunk_stream(runs, (8, 6, 8, 8))
        alone = [per_step_batches([run], 8) for run in runs]
        for _ in range(3):
            x, labels = next(chunks)
            for r, own in enumerate(alone):
                want_x, want_labels = self._drawn_alone(own)
                assert x[:, r].tobytes() == want_x.tobytes()
                assert labels[:, r].tobytes() == want_labels.tobytes()

    def test_runs_may_share_a_dataset(self):
        source = self._domains(0, (20, 9))[0]
        runs = [([source, target], seed) for seed, target in enumerate(self._domains(0, (9, 12, 15))[1:])]
        x, _ = next(_chunk_stream(runs, (8, 8)))
        for r, run in enumerate(runs):
            assert x[:, r].tobytes() == self._drawn_alone(per_step_batches([run], 8))[0].tobytes()

    def test_sources_alone_draw_the_rows_they_draw_beside_the_target(self):
        """Told that every dataset it is given carries labels, the stream of
        the sources alone draws, chunk by chunk, the source rows and labels
        of the stream with the target: each (run, domain) stream is its own."""
        runs = [(self._domains(seed), seed + 11) for seed in range(2)]
        alone = _chunk_stream([(datasets[:-1], seed) for datasets, seed in runs], (8, 6, 8), 3)
        beside = _chunk_stream(runs, (8, 6, 8, 8))
        for _ in range(3):
            (x, labels), (want_x, want_labels) = next(alone), next(beside)
            assert x.shape == (CHUNK, 2, 22, 3) and labels.shape == (CHUNK, 2, 22)
            assert x.tobytes() == want_x[:, :, :22].tobytes()
            assert labels.tobytes() == want_labels.tobytes()

    def test_every_item_refills_the_same_buffers(self):
        chunks = _chunk_stream([(self._domains(0), 11)], (8, 6, 8, 8))
        x, labels = next(chunks)
        first = x.copy()
        assert all(a is x and b is labels for a, b in (next(chunks) for _ in range(3)))
        assert not np.array_equal(x, first)


class TestChunkBuffers:
    """A batch allocates its chunk's buffers once, and every later draw
    refills them; the nets read every row of a chunk, so a ``source_only``
    chunk holds the source rows alone."""

    @staticmethod
    def _batch(method):
        datasets, partition, hp = tiny_setup()
        runs = [(datasets, hp), (datasets, replace(hp, seed=1))]
        return _Batch(runs, _check_runs(runs, partition, method)[1], method)

    @pytest.mark.parametrize("method", METHODS)
    def test_later_draws_allocate_no_chunk(self, method):
        batch = self._batch(method)
        batch.draw(0)
        held = (batch.x, batch.labels, batch.logits)
        assert (held[2] is None) == (method == "uman")
        for first in (CHUNK, 2 * CHUNK):
            tracemalloc.start()
            try:
                batch.draw(first)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(a is b for a, b in zip((batch.x, batch.labels, batch.logits), held))
            assert peak < batch.x.nbytes  # the gathers and label arrays, not a chunk

    def test_source_only_chunk_holds_the_source_rows_alone(self):
        source_only, uman = self._batch("source_only"), self._batch("uman")
        n_src = sum(source_only.sizes[:-1])
        for first in (0, CHUNK):
            source_only.draw(first)
            uman.draw(first)
            assert source_only.x.shape == (CHUNK, 2, n_src, 8)
            assert source_only.x.tobytes() == uman.x[:, :, :n_src].tobytes()
            assert source_only.labels.tobytes() == uman.labels.tobytes()


class TestSourceOnlyForward:
    def test_feature_net_sees_only_source_rows(self, monkeypatch):
        """Without D nothing reads the target's features, so F and G run
        over the source rows only; the adversarial methods forward all."""
        calls = []
        forward = Plan.forward

        def recording(plan, x):
            calls.append((plan.net.in_dim, plan.acts[-1].shape[-1], x.shape[-2], plan.blocks))
            return forward(plan, x)

        monkeypatch.setattr(Plan, "forward", recording)
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
        for (p, _), (q, _) in zip(param_pairs(net_got), param_pairs(net_want)):
            assert p.shape == q.shape
            assert p.tobytes() == q.tobytes()
    assert got.register.values.tobytes() == want.register.values.tobytes()
    assert got.register.step == want.register.step
    assert_same_array(got.trace, want.trace)


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
        assert_same_array(got[1].last_report, alone.value.last_report)
        for i in (0, 2):
            datasets, _, hp = setups[i]
            assert_same_training(got[i], train(datasets, partition, hp))

    def test_diverged_run_keeps_its_row(self, monkeypatch):
        """A run whose loss is not finite ends after that step's backward,
        alone and in a batch. In a batch its row computes on to the end, so
        every step's backward sees all three runs."""
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
        assert runs_seen == [1] * (step + 1)
        runs_seen.clear()
        train_runs([(datasets, hp) for datasets, _, hp in setups], partition)
        assert runs_seen == [3] * hp.max_steps

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

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "loss_step, grad_step, first_loss_step",
        [
            (None, 40, None),
            (None, None, None),
            (CHUNK - 1, CHUNK, None),
            (CHUNK, CHUNK, None),
            (CHUNK + 1, CHUNK - 1, None),
            (CHUNK + 2, CHUNK + 5, CHUNK + 8),
        ],
        ids=["later_step", "same_step", "chunk_end_then_start", "chunk_start", "gradient_first", "every_run_ends"],
    )
    def test_loss_and_gradient_failures_leave_by_one_path(self, monkeypatch, loss_step, grad_step, first_loss_step, method):
        """The middle run's loss diverges, at the step it draws the NaN row
        above or, planted, at ``loss_step``; the last run's feature gradient
        gets an infinity at ``grad_step`` (the middle run's step by default),
        at its stack position 2, which it keeps. The planted steps sit on
        both sides of a chunk boundary. The first run trains as alone, or
        its loss diverges at ``first_loss_step``, in the same chunk as the
        others', so that the batch returns inside that chunk. Each failed
        run ends with the error it raises alone, a diverged run with the
        last trace row it has alone: in the ablations, the chunk's flush
        writes that row after the run has ended. A planted loss's row is
        also the one the run has unplanted."""
        setups = self.setups()
        partition = setups[0][1]
        if loss_step is None:
            setups[1][0][0].features[71] = np.nan

        def plant(name, step, poison):
            """Let ``poison`` change the output of the core function
            ``name`` at ``step``; it runs once per step. Returns the list
            of its calls."""
            original, calls = getattr(uman.core, name), []

            def planted(*args):
                out = original(*args)
                calls.append(None)
                if len(calls) == step + 1:
                    poison(out)
                return out

            monkeypatch.setattr(uman.core, name, planted)
            return calls

        def plant_loss(step, position):
            def poison(out):
                out[0][position] = np.nan  # the run's classification loss

            if step is not None:
                plant("_classification_loss", step, poison)

        def plant_gradient(step, position):
            def poison(out):
                out[position, 0, 0] = np.inf  # the run's feature gradient

            return plant("l2_normalize_backward", step, poison)

        def alone(run, error):
            datasets, _, hp = setups[run]
            with pytest.raises(error) as raised:
                train(datasets, partition, hp, method=method)
            monkeypatch.undo()
            return raised.value

        plant_loss(loss_step, 0)
        diverged = alone(1, TrainingDiverged)
        loss_at = diverged.step
        grad_at = loss_at if grad_step is None else grad_step
        assert loss_at == (6 if loss_step is None else loss_step)
        plant_gradient(grad_at, 0)
        infinite = alone(2, NonFiniteGradientError)
        want = [None, diverged, infinite]
        if first_loss_step is not None:
            plant_loss(first_loss_step, 0)
            want[0] = alone(0, TrainingDiverged)
        plant_loss(loss_step, 1)
        plant_loss(first_loss_step, 0)
        steps = plant_gradient(grad_at, 2)
        got = train_runs([(datasets, hp) for datasets, _, hp in setups], partition, method=method)
        monkeypatch.undo()
        assert infinite.step == grad_at
        for error, expected in zip(got, want):
            if expected is None:
                continue
            assert type(error) is type(expected)
            assert str(error) == str(expected)
            assert error.step == expected.step
            if type(expected) is TrainingDiverged:
                assert_same_array(error.last_report, expected.last_report)
                assert error.last_report[trace_columns(partition.n_sources).index("step")] == error.step - 1
        # a planted loss leaves the gradients as they are, so up to its step
        # the run trains as it does unplanted
        for run, step in ((1, loss_step), (0, first_loss_step)):
            if step is not None:
                datasets, _, hp = setups[run]
                assert_same_array(got[run].last_report, train(datasets, partition, hp, method=method).trace[step - 1])
        if first_loss_step is None:
            assert len(steps) == setups[0][2].max_steps
            assert_same_training(got[0], train(setups[0][0], partition, setups[0][2], method=method))
        else:
            # every run ended at first_loss_step, inside the chunk the others ended in
            assert len(steps) == first_loss_step + 1
            assert first_loss_step // CHUNK == loss_at // CHUNK == grad_at // CHUNK

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
                assert_same_array(getattr(result, "last_report", None), getattr(alone, "last_report", None))
                continue
            assert_same_training(result, want)
        assert 0 < failed < len(runs) if lr > 1 else failed == 0


class TestMethodContainment:
    def test_unweighted_run_reports_unit_weights(self):
        datasets, partition, hp = tiny_setup()
        result = train(datasets, partition, hp, method="unweighted_adv")
        for name in ("mean_weight_common", "mean_weight_private", "mean_weight_target"):
            assert (trace_column(result.trace, name) == 1.0).all()


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

    @pytest.mark.parametrize("w0, error, message", [
        (float("nan"), ValueError, "w0 must be a finite number, got nan"),
        (1.5, ValueError, "w0 must lie in [0, 1], got 1.5"),
        (-0.2, ValueError, "w0 must lie in [0, 1], got -0.2"),
        ("0.5", TypeError, "w0 must be a real number, got '0.5'"),
    ])
    def test_threshold_hyperparams_would_refuse_is_refused(self, w0, error, message):
        # unchecked, NaN and 1.5 reject every row, -0.2 accepts every row
        # and a string fails inside numpy
        result, x, _ = self._trained_pair()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            predict_classes(result.feature_net, result.classifier, x, w0)

    def test_w0_zero_never_rejects_and_w0_one_rarely_accepts(self):
        result, x, _ = self._trained_pair()
        always = predict_classes(result.feature_net, result.classifier, x, 0.0)
        assert (always != UNKNOWN).all()
