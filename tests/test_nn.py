"""Numerics layer: forward oracles, exact backward rules, finite differences."""

import math

import numpy as np
import pytest
from helpers import max_rel_err, numeric_gradient

from uman.nn import (
    Mlp,
    NonFiniteGradientError,
    Tape,
    Value,
    block_sums,
    forward_mlp,
    grad_reverse,
    l2_normalize,
    log_softmax,
    mlp_apply,
    run_backward,
    scalar_sum,
    sgd_step,
    softmax,
    softmax_cross_entropy,
)

GRAD_TOL = 1e-4


class TestTape:
    def test_backward_replays_in_reverse_and_clears(self):
        tape = Tape()
        seen = []
        tape.record(lambda: seen.append("first"))
        tape.record(lambda: seen.append("second"))
        assert len(tape) == 2
        tape.backward()
        assert seen == ["second", "first"]
        assert len(tape) == 0
        tape.backward()  # empty replay is a no-op
        assert seen == ["second", "first"]


class TestValue:
    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            Value(np.zeros(3))
        with pytest.raises(ValueError):
            Value(np.zeros((2, 2, 2)))

    def test_casts_and_zeroes_grad(self):
        v = Value([[1, 2]])
        assert v.data.dtype == np.float64
        assert v.grad.shape == (1, 2)
        assert (v.grad == 0).all()
        assert v.shape == (1, 2)


class TestMlpInit:
    def test_uniform_bounds_per_layer(self):
        net = Mlp([9, 7, 4], ["relu", "linear"], np.random.default_rng(0))
        for layer in net.layers:
            bound = 1.0 / math.sqrt(layer.w.shape[0])
            for p in (layer.w, layer.b):
                assert (np.abs(p) <= bound).all()

    def test_same_seed_same_params(self):
        a = Mlp([3, 5, 2], ["relu", "linear"], np.random.default_rng(7))
        b = Mlp([3, 5, 2], ["relu", "linear"], np.random.default_rng(7))
        for (pa, _), (pb, _) in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(pa, pb)

    def test_param_count(self):
        net = Mlp([3, 5, 2], ["relu", "linear"], np.random.default_rng(0))
        assert net.n_params == (3 * 5 + 5) + (5 * 2 + 2)
        assert net.in_dim == 3
        assert net.out_dim == 2

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Mlp([3], [], rng)
        with pytest.raises(ValueError):
            Mlp([3, 2], ["relu", "relu"], rng)
        with pytest.raises(ValueError):
            Mlp([3, 2], ["tanh"], rng)


class TestForward:
    def test_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(42)
        net = Mlp([3, 4, 2], ["relu", "linear"], rng)
        x = rng.standard_normal((5, 3))
        got = mlp_apply(net, x)
        h = np.maximum(x @ net.layers[0].w + net.layers[0].b, 0.0)
        want = h @ net.layers[1].w + net.layers[1].b
        np.testing.assert_array_equal(got, want)

    def test_sigmoid_output_route(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 3, 1], ["relu", "sigmoid"], rng)
        x = rng.standard_normal((6, 4))
        got = mlp_apply(net, x)
        h = np.maximum(x @ net.layers[0].w + net.layers[0].b, 0.0)
        z = h @ net.layers[1].w + net.layers[1].b
        np.testing.assert_array_equal(got, 1.0 / (1.0 + np.exp(-z)))
        assert ((got > 0) & (got < 1)).all()

    def test_width_mismatch_raises(self):
        net = Mlp([3, 2], ["linear"], np.random.default_rng(0))
        with pytest.raises(ValueError, match="expects 3"):
            mlp_apply(net, np.zeros((1, 4)))

    def test_taped_forward_equals_inference(self):
        rng = np.random.default_rng(3)
        net = Mlp([3, 4, 2], ["relu", "linear"], rng)
        x = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(forward_mlp(net, x, Tape()).data, mlp_apply(net, x))


class TestL2Normalize:
    def test_rows_have_unit_norm(self):
        x = np.random.default_rng(0).standard_normal((100, 8))
        norms = np.linalg.norm(l2_normalize(x).data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_row_stays_zero_and_finite(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = l2_normalize(x).data
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8], atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        coeff = rng.standard_normal((4, 6))

        def f():
            return float((coeff * l2_normalize(x).data).sum())

        tape = Tape()
        v = Value(x)
        out = l2_normalize(v, tape)
        out.grad[...] = coeff
        tape.backward()
        assert max_rel_err(v.grad, numeric_gradient(f, x)) < GRAD_TOL


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = np.random.default_rng(0).standard_normal((50, 7)) * 5
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all()

    def test_log_softmax_consistency(self):
        z = np.random.default_rng(1).standard_normal((20, 4)) * 3
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)

    def test_huge_logits_stay_finite(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-300)


def _nll_oracle(logits, label):
    """Scalar negative log softmax probability via shifted log-sum-exp."""
    shift = max(logits)
    lse = shift + math.log(sum(math.exp(v - shift) for v in logits))
    return lse - logits[label]


class TestCrossEntropy:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, k = int(rng.integers(1, 8)), int(rng.integers(2, 6))
            logits = rng.standard_normal((n, k)) * rng.uniform(0.5, 30)
            labels = rng.integers(0, k, size=n)
            weights = rng.uniform(0.0, 2.0, size=n)
            if weights.sum() == 0:
                continue
            want = sum(
                w * _nll_oracle(list(lg), int(y)) for lg, y, w in zip(logits, labels, weights)
            ) / weights.sum()
            got = softmax_cross_entropy(Value(logits), labels, weights).data[0, 0]
            assert abs(got - want) < 1e-9

    def test_frozen_values(self):
        assert softmax_cross_entropy(
            Value([[0.0, 0.0]]), [0], [1.0]
        ).data[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)
        confident = softmax_cross_entropy(Value([[1000.0, 0.0]]), [0], [1.0]).data[0, 0]
        assert confident == pytest.approx(0.0, abs=1e-12)
        wrong = softmax_cross_entropy(Value([[1000.0, 0.0]]), [1], [1.0]).data[0, 0]
        assert wrong == pytest.approx(1000.0, rel=1e-12)

    def test_unit_weights_equal_plain_mean(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        per_sample = [_nll_oracle(list(lg), int(y)) for lg, y in zip(logits, labels)]
        got = softmax_cross_entropy(Value(logits), labels, np.ones(6)).data[0, 0]
        assert got == pytest.approx(np.mean(per_sample), abs=1e-12)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        w = rng.uniform(0.1, 1.0, size=5)
        a = softmax_cross_entropy(Value(logits), labels, w).data[0, 0]
        b = softmax_cross_entropy(Value(logits), labels, 3.0 * w).data[0, 0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_all_zero_weights_yield_zero_loss_and_grad(self):
        tape = Tape()
        v = Value(np.random.default_rng(0).standard_normal((4, 3)))
        loss = softmax_cross_entropy(v, [0, 1, 2, 0], np.zeros(4), tape)
        assert loss.data[0, 0] == 0.0
        run_backward(tape, loss)
        np.testing.assert_array_equal(v.grad, 0.0)

    def test_input_validation(self):
        v = Value(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="empty"):
            softmax_cross_entropy(Value(np.zeros((0, 3))), [], [])
        with pytest.raises(ValueError, match="one entry per row"):
            softmax_cross_entropy(v, [0], [1.0, 1.0])
        with pytest.raises(ValueError, match="outside"):
            softmax_cross_entropy(v, [0, 3], [1.0, 1.0])
        with pytest.raises(ValueError, match="negative"):
            softmax_cross_entropy(v, [0, 1], [1.0, -1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        weights = rng.uniform(0.0, 2.0, size=5)

        def f():
            return softmax_cross_entropy(Value(logits), labels, weights).data[0, 0]

        tape = Tape()
        v = Value(logits)
        run_backward(tape, softmax_cross_entropy(v, labels, weights, tape))
        assert max_rel_err(v.grad, numeric_gradient(f, logits)) < GRAD_TOL


class TestGradReverse:
    def test_forward_is_identity(self):
        x = Value(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(grad_reverse(x, 0.3, Tape()).data, x.data)

    @pytest.mark.parametrize("lam", [0.0, 0.7, 1.0])
    def test_backward_negates_and_scales(self, lam):
        tape = Tape()
        x = Value(np.ones((2, 2)))
        out = grad_reverse(x, lam, tape)
        upstream = np.array([[1.0, -2.0], [0.5, 3.0]])
        out.grad[...] = upstream
        tape.backward()
        np.testing.assert_array_equal(x.grad, -lam * upstream)


class TestScalarSum:
    def test_value_and_backward(self):
        tape = Tape()
        parts = [Value([[2.0]]), Value([[-1.0]]), Value([[0.5]])]
        total = scalar_sum(parts, [1.0, 2.0, 4.0], tape)
        assert total.data[0, 0] == pytest.approx(2.0 - 2.0 + 2.0)
        run_backward(tape, total)
        assert [p.grad[0, 0] for p in parts] == [1.0, 2.0, 4.0]

    def test_default_coefficients_are_ones(self):
        parts = [Value([[1.5]]), Value([[2.5]])]
        assert scalar_sum(parts).data[0, 0] == pytest.approx(4.0)

    def test_coefficient_count_must_match(self):
        with pytest.raises(ValueError):
            scalar_sum([Value([[1.0]])], [1.0, 2.0])

    def test_backward_root_must_be_scalar(self):
        with pytest.raises(ValueError, match="1x1"):
            run_backward(Tape(), Value(np.zeros((2, 1))))


class TestSgdStep:
    def test_applies_update_and_zeroes_grads(self):
        net = Mlp([2, 2], ["linear"], np.random.default_rng(0))
        layer = net.layers[0]
        w_before = layer.w.copy()
        layer.gw[...] = 1.5
        layer.gb[...] = -2.0
        b_before = layer.b.copy()
        sgd_step(net, 0.1)
        np.testing.assert_allclose(layer.w, w_before - 0.15, atol=1e-15)
        np.testing.assert_allclose(layer.b, b_before + 0.2, atol=1e-15)
        assert (layer.gw == 0).all() and (layer.gb == 0).all()

    def test_weight_decay_pulls_weights_only(self):
        net = Mlp([2, 2], ["linear"], np.random.default_rng(0))
        layer = net.layers[0]
        layer.gw[...] = 1.5
        layer.gb[...] = -2.0
        w_before = layer.w.copy()
        b_before = layer.b.copy()
        sgd_step(net, 0.1, weight_decay=0.01)
        np.testing.assert_allclose(layer.w, w_before - 0.1 * (1.5 + 0.01 * w_before), atol=1e-15)
        np.testing.assert_allclose(layer.b, b_before + 0.2, atol=1e-15)

    def test_zero_decay_matches_plain_step(self):
        rng = np.random.default_rng(3)
        a = Mlp([3, 2], ["linear"], np.random.default_rng(7))
        b = Mlp([3, 2], ["linear"], np.random.default_rng(7))
        g = rng.normal(size=a.layers[0].gw.shape)
        a.layers[0].gw[...] = g
        b.layers[0].gw[...] = g
        sgd_step(a, 0.2)
        sgd_step(b, 0.2, weight_decay=0.0)
        np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)

    def test_nonfinite_gradient_aborts(self):
        net = Mlp([2, 2], ["linear"], np.random.default_rng(0))
        net.layers[0].gw[0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError, match="layer 0 parameter w"):
            sgd_step(net, 0.1)
        net.zero_grads()
        net.layers[0].gb[1] = np.inf
        with pytest.raises(NonFiniteGradientError, match="parameter b"):
            sgd_step(net, 0.1)

    def test_nonfinite_last_layer_leaves_earlier_layers_untouched(self):
        net = Mlp([2, 3, 2], ["relu", "linear"], np.random.default_rng(0))
        for layer in net.layers:
            layer.gw[...] = 0.5
            layer.gb[...] = 0.5
        net.layers[-1].gb[0] = np.nan
        before = [(l.w.copy(), l.b.copy()) for l in net.layers]
        with pytest.raises(NonFiniteGradientError, match="layer 1 parameter b"):
            sgd_step(net, 0.1, weight_decay=0.01)
        for layer, (w, b) in zip(net.layers, before):
            np.testing.assert_array_equal(layer.w, w)
            np.testing.assert_array_equal(layer.b, b)


def _net_grad_check(net, f, tol=GRAD_TOL):
    """FD-check every parameter of a net against its accumulated grads.

    ``f(tape)`` runs the forward pass and returns the scalar loss node;
    called with ``tape=None`` it must return the plain float loss.
    """
    net.zero_grads()
    tape = Tape()
    run_backward(tape, f(tape))
    worst = 0.0
    for p, g in net.param_arrays():
        fd = numeric_gradient(lambda: f(None), p)
        worst = max(worst, max_rel_err(g, fd))
    net.zero_grads()
    return worst


class TestMlpGradients:
    @pytest.mark.parametrize("acts", [["linear"], ["relu", "linear"], ["relu", "sigmoid"]])
    def test_cross_entropy_head_gradients(self, acts):
        rng = np.random.default_rng(17)
        sizes = [3] + [4] * (len(acts) - 1) + [2]
        net = Mlp(sizes, acts, rng)
        assert net.n_params <= 64
        x = rng.standard_normal((6, 3))
        labels = rng.integers(0, 2, size=6)
        weights = rng.uniform(0.2, 1.5, size=6)

        def f(tape):
            loss = softmax_cross_entropy(forward_mlp(net, x, tape), labels, weights, tape)
            return loss if tape is not None else loss.data[0, 0]

        assert _net_grad_check(net, f) < GRAD_TOL

    def test_input_gradient_through_two_layers(self):
        rng = np.random.default_rng(23)
        net = Mlp([4, 5, 3], ["relu", "linear"], rng)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=5)

        def f():
            return softmax_cross_entropy(forward_mlp(net, x), labels, np.ones(5)).data[0, 0]

        tape = Tape()
        v = Value(x)
        run_backward(tape, softmax_cross_entropy(forward_mlp(net, v, tape), labels, np.ones(5), tape))
        assert max_rel_err(v.grad, numeric_gradient(f, x)) < GRAD_TOL


def _params(net):
    return [p.tobytes() for p, _ in net.param_arrays()] + [g.tobytes() for _, g in net.param_arrays()]


class TestStackedBlocks:
    """One forward pass over stacked blocks against one pass per block."""

    @pytest.mark.parametrize("sizes", [[4, 4, 4], [5, 1, 7], [9]])
    def test_matches_separate_passes_bit_for_bit(self, sizes):
        rng = np.random.default_rng(31)
        tail = 3  # rows past the blocks: forwarded, never recorded
        x = rng.standard_normal((sum(sizes) + tail, 16))
        stacked = Mlp([16, 64, 16, 1], ["relu", "relu", "sigmoid"], np.random.default_rng(32))
        separate = Mlp([16, 64, 16, 1], ["relu", "relu", "sigmoid"], np.random.default_rng(32))
        g_out = rng.standard_normal((x.shape[0], 1))

        tape = Tape()
        v = Value(x)
        out = forward_mlp(stacked, v, tape, sizes)
        out.grad[...] = g_out
        tape.backward()

        bounds = np.cumsum([0, *sizes, tail])
        tape = Tape()
        parts, outs = [], []
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            parts.append(Value(x[a:b]))
            recorded = i < len(sizes)
            outs.append(forward_mlp(separate, parts[-1], tape if recorded else None))
            if recorded:
                outs[-1].grad[...] = g_out[a:b]
        tape.backward()

        assert out.data.tobytes() == np.concatenate([o.data for o in outs]).tobytes()
        assert _params(stacked) == _params(separate)
        want_grad = np.concatenate([p.grad for p in parts])
        assert v.grad.tobytes() == want_grad.tobytes()
        np.testing.assert_array_equal(v.grad[sum(sizes):], 0.0)

    def test_blocks_must_fit(self):
        net = Mlp([2, 3], ["linear"], np.random.default_rng(0))
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="do not fit"):
            forward_mlp(net, x, Tape(), [3, 2])
        with pytest.raises(ValueError, match="do not fit"):
            forward_mlp(net, x, Tape(), [0, 4])

    def test_empty_input_gives_empty_output(self):
        net = Mlp([3, 4, 2], ["relu", "linear"], np.random.default_rng(0))
        tape = Tape()
        out = forward_mlp(net, np.zeros((0, 3)), tape)
        assert out.data.shape == (0, 2)
        tape.backward()
        assert all((g == 0.0).all() for _, g in net.param_arrays())

    def test_raw_input_skips_its_gradient_product(self, monkeypatch):
        rng = np.random.default_rng(33)
        net = Mlp([3, 4], ["linear"], rng)
        x = rng.standard_normal((5, 3))
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        for inp in (x, Value(x)):
            tape = Tape()
            out = forward_mlp(net, inp, tape)
            calls.clear()
            out.grad[...] = 1.0
            tape.backward()
            # the weight gradient always; the input gradient only for a Value
            assert len(calls) == (2 if isinstance(inp, Value) else 1)
            net.zero_grads()

    def test_block_sums_match_per_block_sums(self):
        rng = np.random.default_rng(34)
        for shape in [(), (1,), (5,)]:
            sizes = [3, 3, 1, 8, 8, 2]
            x = rng.standard_normal((sum(sizes), *shape))
            got = block_sums(x, sizes)
            bounds = np.cumsum([0, *sizes])
            want = np.stack([x[a:b].sum(axis=0) for a, b in zip(bounds[:-1], bounds[1:])])
            assert got.tobytes() == want.tobytes()
