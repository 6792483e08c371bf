"""Numerics layer: forward oracles, exact backward rules, finite differences."""

import copy
import math

import numpy as np
import pytest
from helpers import (
    checked_sgd_update,
    held_nbytes,
    max_rel_err,
    numeric_gradient,
    param_pairs,
    passed,
    plan_arrays,
)

from uman.core import classification_loss
from uman.nn import (
    Mlp,
    NonFiniteGradientError,
    block_sums,
    forward_mlp,
    gradient_faults,
    l2_normalize,
    l2_normalize_backward,
    log_softmax,
    plan_nbytes,
    Plan,
    sgd_update,
    softmax,
)

GRAD_TOL = 1e-4


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
        for (pa, _), (pb, _) in zip(param_pairs(a), param_pairs(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_param_count(self):
        net = Mlp([3, 5, 2], ["relu", "linear"], np.random.default_rng(0))
        assert net.params.size == net.grads.size == (3 * 5 + 5) + (5 * 2 + 2)
        assert net.in_dim == 3

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
        got = forward_mlp(net, x)[-1]
        h = np.maximum(x @ net.layers[0].w + net.layers[0].b, 0.0)
        want = h @ net.layers[1].w + net.layers[1].b
        np.testing.assert_array_equal(got, want)

    def test_sigmoid_output_route(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 3, 1], ["relu", "sigmoid"], rng)
        x = rng.standard_normal((6, 4))
        got = forward_mlp(net, x)[-1]
        h = np.maximum(x @ net.layers[0].w + net.layers[0].b, 0.0)
        z = h @ net.layers[1].w + net.layers[1].b
        np.testing.assert_array_equal(got, 1.0 / (1.0 + np.exp(-z)))
        assert ((got > 0) & (got < 1)).all()

    def test_width_mismatch_raises(self):
        net = Mlp([3, 2], ["linear"], np.random.default_rng(0))
        with pytest.raises(ValueError, match="expects 3"):
            forward_mlp(net, np.zeros((1, 4)))


class TestL2Normalize:
    def test_rows_have_unit_norm(self):
        x = np.random.default_rng(0).standard_normal((100, 8))
        norms = np.linalg.norm(l2_normalize(x), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_row_stays_zero_and_finite(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = l2_normalize(x)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8], atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        coeff = rng.standard_normal((4, 6))

        def f():
            return float((coeff * l2_normalize(x)).sum())

        grad = l2_normalize_backward(x, coeff)
        assert max_rel_err(grad, numeric_gradient(f, x)) < GRAD_TOL


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
    """The package's cross entropy, ``core.classification_loss``: the mean
    over blocks of each block's mean negative log softmax probability."""

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sizes = [int(n) for n in rng.integers(1, 8, size=int(rng.integers(1, 4)))]
            k = int(rng.integers(2, 6))
            logits = rng.standard_normal((sum(sizes), k)) * rng.uniform(0.5, 30)
            labels = rng.integers(0, k, size=sum(sizes))
            bounds = np.cumsum([0, *sizes])
            want = np.mean([
                np.mean([_nll_oracle(list(logits[i]), int(labels[i])) for i in range(a, b)])
                for a, b in zip(bounds[:-1], bounds[1:])
            ])
            got, _ = classification_loss(logits, labels, sizes)
            assert abs(got - want) < 1e-9

    def test_frozen_values(self):
        assert classification_loss(
            np.array([[0.0, 0.0]]), [0], [1]
        )[0] == pytest.approx(math.log(2.0), abs=1e-12)
        confident, _ = classification_loss(np.array([[1000.0, 0.0]]), [0], [1])
        assert confident == pytest.approx(0.0, abs=1e-12)
        wrong, _ = classification_loss(np.array([[1000.0, 0.0]]), [1], [1])
        assert wrong == pytest.approx(1000.0, rel=1e-12)

    def test_input_validation(self):
        logits = np.zeros((2, 3))
        with pytest.raises(ValueError, match="nonempty"):
            classification_loss(np.zeros((0, 3)), [], [])
        with pytest.raises(ValueError, match="one label per source row"):
            classification_loss(logits, [0], [2])
        with pytest.raises(ValueError, match="outside"):
            classification_loss(logits, [0, 3], [2])
        with pytest.raises(ValueError, match="nonempty"):
            classification_loss(logits, [0, 1], [2, 0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        sizes = [1, 3, 2]

        _, grad = classification_loss(logits, labels, sizes)
        numeric = numeric_gradient(lambda: classification_loss(logits, labels, sizes)[0], logits)
        assert max_rel_err(grad, numeric) < GRAD_TOL


class TestSgdStep:
    """:func:`sgd_update` steps; :func:`gradient_faults` is the check every
    caller makes before it."""

    def test_applies_update_and_zeroes_grads(self):
        net = Mlp([2, 2], ["linear"], np.random.default_rng(0))
        layer = net.layers[0]
        w_before = layer.w.copy()
        layer.gw[...] = 1.5
        layer.gb[...] = -2.0
        b_before = layer.b.copy()
        sgd_update(net, 0.1)
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
        sgd_update(net, 0.1, weight_decay=0.01)
        np.testing.assert_allclose(layer.w, w_before - 0.1 * (1.5 + 0.01 * w_before), atol=1e-15)
        np.testing.assert_allclose(layer.b, b_before + 0.2, atol=1e-15)

    def test_zero_decay_matches_plain_step(self):
        rng = np.random.default_rng(3)
        a = Mlp([3, 2], ["linear"], np.random.default_rng(7))
        b = Mlp([3, 2], ["linear"], np.random.default_rng(7))
        g = rng.normal(size=a.layers[0].gw.shape)
        a.layers[0].gw[...] = g
        b.layers[0].gw[...] = g
        sgd_update(a, 0.2)
        sgd_update(b, 0.2, weight_decay=0.0)
        np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)

    def test_nonfinite_gradient_aborts(self):
        net = Mlp([2, 2], ["linear"], np.random.default_rng(0))
        net.layers[0].gw[0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError, match="layer 0 parameter w"):
            checked_sgd_update(net, 0.1)
        net.zero_grads()
        net.layers[0].gb[1] = np.inf
        with pytest.raises(NonFiniteGradientError, match="parameter b"):
            checked_sgd_update(net, 0.1)

    def test_gradient_faults_name_each_run_as_alone(self):
        nets = [Mlp([2, 3, 2], ["relu", "linear"], np.random.default_rng(r)) for r in range(3)]
        stacked = Mlp.stack(nets)
        assert gradient_faults(stacked) == {}
        stacked.layers[1].gb[0, 1] = np.nan
        stacked.layers[0].gw[2, :, 0] = np.inf
        nets[0].layers[1].gb[1] = np.nan
        nets[2].layers[0].gw[:, 0] = np.inf
        faults = gradient_faults(stacked)
        assert sorted(faults) == [0, 2]
        for r in (0, 2):
            with pytest.raises(NonFiniteGradientError) as alone:
                checked_sgd_update(nets[r], 0.1)
            assert faults[r] == str(alone.value)
        assert faults[2] == "layer 0 parameter w: 2 non-finite gradient entries"
        # the first net given names a run's first fault
        other = Mlp.stack(nets)
        other.layers[0].gb[0, 0] = np.inf
        assert gradient_faults(other, stacked)[0] == "layer 0 parameter b: 1 non-finite gradient entries"

    def test_nonfinite_last_layer_leaves_earlier_layers_untouched(self):
        net = Mlp([2, 3, 2], ["relu", "linear"], np.random.default_rng(0))
        for layer in net.layers:
            layer.gw[...] = 0.5
            layer.gb[...] = 0.5
        net.layers[-1].gb[0] = np.nan
        before = [(l.w.copy(), l.b.copy()) for l in net.layers]
        with pytest.raises(NonFiniteGradientError, match="layer 1 parameter b"):
            checked_sgd_update(net, 0.1, weight_decay=0.01)
        for layer, (w, b) in zip(net.layers, before):
            np.testing.assert_array_equal(layer.w, w)
            np.testing.assert_array_equal(layer.b, b)


def _net_grad_check(net, f):
    """FD-check every parameter of a net against its accumulated grads.

    ``f(backward)`` runs the forward pass and returns the loss; with
    ``backward`` true it also runs the backward pass into the net's buffers.
    """
    net.zero_grads()
    f(True)
    worst = 0.0
    for p, g in param_pairs(net):
        fd = numeric_gradient(lambda: f(False), p)
        worst = max(worst, max_rel_err(g, fd))
    net.zero_grads()
    return worst


class TestMlpGradients:
    @pytest.mark.parametrize("acts", [["linear"], ["relu", "linear"], ["relu", "sigmoid"]])
    def test_cross_entropy_head_gradients(self, acts):
        rng = np.random.default_rng(17)
        sizes = [3] + [4] * (len(acts) - 1) + [2]
        net = Mlp(sizes, acts, rng)
        assert net.params.size <= 64
        x = rng.standard_normal((6, 3))
        labels = rng.integers(0, 2, size=6)
        blocks = [2, 4]  # rows of the two blocks weigh 1/4 and 1/8

        def f(backward):
            plan = passed(net, x, blocks)
            loss, grad = classification_loss(plan.acts[-1], labels, blocks)
            if backward:
                plan.backward(grad)
            return loss

        assert _net_grad_check(net, f) < GRAD_TOL

    def test_input_gradient_through_two_layers(self):
        rng = np.random.default_rng(23)
        net = Mlp([4, 5, 3], ["relu", "linear"], rng)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=5)

        def f():
            return classification_loss(forward_mlp(net, x)[-1], labels, [5])[0]

        plan = passed(net, x)
        grad = plan.backward(classification_loss(plan.acts[-1], labels, [5])[1], input_grad=True)
        assert max_rel_err(grad, numeric_gradient(f, x)) < GRAD_TOL


def _params(net):
    return [p.tobytes() for p, _ in param_pairs(net)] + [g.tobytes() for _, g in param_pairs(net)]


class TestStackedBlocks:
    """One pass over stacked blocks against one pass per block."""

    @pytest.mark.parametrize("sizes", [[4, 4, 4], [5, 1, 7], [9]])
    def test_matches_separate_passes_bit_for_bit(self, sizes):
        rng = np.random.default_rng(31)
        tail = 3  # rows past the blocks: forwarded, never differentiated
        x = rng.standard_normal((sum(sizes) + tail, 16))
        stacked = Mlp([16, 64, 16, 1], ["relu", "relu", "sigmoid"], np.random.default_rng(32))
        separate = Mlp([16, 64, 16, 1], ["relu", "relu", "sigmoid"], np.random.default_rng(32))
        g_out = rng.standard_normal((sum(sizes), 1))

        plan = passed(stacked, x, sizes)
        grad = plan.backward(g_out, input_grad=True)

        bounds = np.cumsum([0, *sizes, tail])
        parts = [passed(separate, x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        want_grad = [
            parts[i].backward(g_out[bounds[i] : bounds[i + 1]], input_grad=True)
            for i in reversed(range(len(sizes)))
        ][::-1]

        assert plan.acts[-1].tobytes() == np.concatenate([p.acts[-1] for p in parts]).tobytes()
        assert _params(stacked) == _params(separate)
        assert grad.tobytes() == np.concatenate(want_grad).tobytes()

    @pytest.mark.parametrize("runs", [None, 3], ids=["no_run_axis", "three_runs"])
    @pytest.mark.parametrize(
        "sizes", [[32] * 6, [19, 32, 32], [8] * 11], ids=["six_equal", "ragged", "eleven_blocks"]
    )
    def test_block_sum_equals_adding_block_by_block(self, sizes, runs):
        """One sum over a layer's blocks leaves, in zeroed buffers, what
        adding one block after the other, last first, does; the 1-wide
        output's bias sums 11 blocks, where a pairwise sum would differ.
        With a run axis, every run also computes what it computes alone."""
        rng = np.random.default_rng(35)
        shape = ([16, 64, 16, 1], ["relu", "relu", "sigmoid"])
        alone = [Mlp(*shape, np.random.default_rng(40 + r)) for r in range(runs or 1)]
        xs = [rng.standard_normal((sum(sizes), 16)) for _ in alone]
        g_outs = [rng.standard_normal((sum(sizes), 1)) for _ in alone]
        if runs:
            net, x, g_out = Mlp.stack([Mlp(*shape, np.random.default_rng(40 + r)) for r in range(runs)]), np.stack(xs), np.stack(g_outs)
        else:
            net, x, g_out = Mlp(*shape, np.random.default_rng(40)), xs[0], g_outs[0]
        plan = passed(net, x, sizes)
        grad = plan.backward(g_out, input_grad=True)

        bounds = np.cumsum([0, *sizes])
        for r, (one, x_r, g_r) in enumerate(zip(alone, xs, g_outs)):
            parts = [passed(one, x_r[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
            want_grad = [
                parts[i].backward(g_r[bounds[i] : bounds[i + 1]], input_grad=True)
                for i in reversed(range(len(sizes)))
            ][::-1]
            got = net.take(r) if runs else net
            assert _params(got) == _params(one)
            got_out, got_grad = (plan.acts[-1][r], grad[r]) if runs else (plan.acts[-1], grad)
            assert got_out.tobytes() == np.concatenate([p.acts[-1] for p in parts]).tobytes()
            assert got_grad.tobytes() == np.concatenate(want_grad).tobytes()

    def test_blocks_must_fit(self):
        net = Mlp([2, 3], ["linear"], np.random.default_rng(0))
        x = np.zeros((4, 2))
        for blocks in ([3, 2], [0, 4]):
            with pytest.raises(ValueError, match="do not fit"):
                Plan(net, x, blocks)

    def test_empty_input_gives_empty_output(self):
        net = Mlp([3, 4, 2], ["relu", "linear"], np.random.default_rng(0))
        assert forward_mlp(net, np.zeros((0, 3)))[-1].shape == (0, 2)
        plan = passed(net, np.zeros((0, 3)))
        plan.backward(np.zeros((0, 2)))
        assert (net.grads == 0.0).all()

    def test_raw_input_skips_its_gradient_product(self, monkeypatch):
        rng = np.random.default_rng(33)
        net = Mlp([3, 4], ["linear"], rng)
        x = rng.standard_normal((5, 3))
        plan = passed(net, x)
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        for input_grad in (False, True):
            calls.clear()
            grad = plan.backward(np.ones((5, 4)), input_grad=input_grad)
            # the weight gradient always; the input gradient only on request,
            # which the feature net's raw input never makes
            assert len(calls) == (2 if input_grad else 1)
            assert (grad is None) == (not input_grad)
            net.zero_grads()

    def test_block_sums_match_per_block_sums(self):
        rng = np.random.default_rng(34)
        for shape in [(), (1,), (5,)]:
            sizes = [3, 3, 1, 8, 8, 2]
            x = rng.standard_normal((*shape, sum(sizes)))
            got = block_sums(x, sizes)
            bounds = np.cumsum([0, *sizes])
            want = np.stack([x[..., a:b].sum(axis=-1) for a, b in zip(bounds[:-1], bounds[1:])], axis=-1)
            assert got.tobytes() == want.tobytes()


class TestPlanBytes:
    @pytest.mark.parametrize(
        "shape, blocks",
        [
            (([16, 64, 16], ["relu", "linear"]), (32, 32, 32)),
            (([16, 8], ["linear"]), (32, 32)),
            (([16, 64, 7, 1], ["relu", "linear", "sigmoid"]), (20, 20, 10)),
            (([4, 5, 6, 3], ["linear", "linear", "relu"]), (4, 5)),
        ],
        ids=["feature_net", "classifier", "hidden_linear_and_sigmoid", "hidden_linear_first"],
    )
    def test_plan_nbytes_is_what_a_plan_holds(self, shape, blocks):
        """Per run, the bytes of a plan's buffers once it has passed back:
        its activations over every row, rows past the blocks included, and
        its backward buffers over the blocks' rows."""
        runs, rows = 2, sum(blocks) + 3
        rng = np.random.default_rng(0)
        net = Mlp.stack([Mlp(*shape, rng) for _ in range(runs)])
        plan = Plan(net, np.empty((runs, rows, shape[0][0])), blocks)
        plan.forward(rng.standard_normal((runs, rows, shape[0][0])))
        plan.backward(rng.standard_normal((runs, sum(blocks), shape[0][-1])), input_grad=True)
        assert held_nbytes(*plan_arrays(plan)) == runs * plan_nbytes(*shape, rows, blocks)


def _stacked(n_runs, shape=([5, 7, 3], ["relu", "linear"])):
    return [Mlp(*shape, np.random.default_rng(50 + r)) for r in range(n_runs)]


class TestFlatBuffers:
    """Every layer's parameters and gradients are views into one flat
    buffer per net: weights of every layer, then biases of every layer."""

    @pytest.mark.parametrize("runs", [None, 3], ids=["no_run_axis", "three_runs"])
    def test_layer_views_alias_the_buffers(self, runs):
        net = Mlp.stack(_stacked(runs)) if runs else _stacked(1)[0]
        views = [(l.w, l.gw) for l in net.layers] + [(l.b, l.gb) for l in net.layers]
        at = 0
        for param, grad in views:
            for view, buf in ((param, net.params), (grad, net.grads)):
                assert view.flags.c_contiguous
                assert view.base is buf
                assert np.shares_memory(view, buf[at : at + view.size])
            at += param.size
        assert at == net.params.size == net.grads.size
        # a write through the flat buffers shows in every layer
        net.params[...] = 2.0
        net.grads[...] = -1.0
        assert all((p == 2.0).all() and (g == -1.0).all() for p, g in views)
        net.zero_grads()
        assert all((g == 0.0).all() for _, g in views)

    def test_stack_and_take_round_trip(self):
        nets = _stacked(3)
        stacked = Mlp.stack(nets)
        assert (stacked.grads == 0.0).all()
        for r, one in enumerate(nets):
            assert _params(stacked.take(r)) == _params(one)
            assert stacked.take(r).layers[0].w.shape == one.layers[0].w.shape
        for layer in stacked.layers:
            layer.gw[...] = np.arange(layer.gw.size).reshape(layer.gw.shape)
            layer.gb[...] = -np.arange(layer.gb.size).reshape(layer.gb.shape)
        last = stacked.take(2)
        assert last.layers[0].w.shape == (5, 7)
        for new, old in zip(last.layers, stacked.layers):
            for name in ("w", "b", "gw", "gb"):
                assert getattr(new, name).tobytes() == getattr(old, name)[2].tobytes()
        # a copy: stepping the taken net leaves the stack alone
        before = stacked.params.copy()
        last.params += 1.0
        assert stacked.params.tobytes() == before.tobytes()
        assert _params(Mlp.stack([stacked.take(r) for r in range(3)]))[:4] == _params(stacked)[:4]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.003])
    @pytest.mark.parametrize("runs", [None, 3], ids=["no_run_axis", "three_runs"])
    def test_sgd_update_matches_the_per_layer_step(self, weight_decay, runs):
        """One update per region is, entry for entry, the step each layer
        took on its own."""
        rng = np.random.default_rng(36)
        net = Mlp.stack(_stacked(runs)) if runs else _stacked(1)[0]
        net.grads[...] = rng.standard_normal(net.grads.size) * 10.0 ** rng.integers(-8, 3, net.grads.size)
        want = copy.deepcopy(net)
        for layer in want.layers:
            if weight_decay:
                layer.w -= 0.15 * (layer.gw + weight_decay * layer.w)
            else:
                layer.w -= 0.15 * layer.gw
            layer.b -= 0.15 * layer.gb
            layer.gw[...], layer.gb[...] = 0.0, 0.0
        sgd_update(net, 0.15, weight_decay)
        assert _params(net) == _params(want)


class TestWidthOneBackward:
    """A 1-wide output layer's input gradient is one broadcast multiply;
    it must give the bits of the per-block matrix product it replaces."""

    @pytest.mark.parametrize("runs", [None, 3], ids=["no_run_axis", "three_runs"])
    @pytest.mark.parametrize("sizes", [[32, 32, 32], [19, 32, 5]], ids=["equal", "ragged"])
    def test_matches_per_block_matmul(self, sizes, runs):
        rng = np.random.default_rng(37)
        shape = ([16, 1], ["sigmoid"])
        nets = [Mlp(*shape, np.random.default_rng(60 + r)) for r in range(runs or 1)]
        for one in nets:
            one.layers[0].w[:3] = [[0.0], [-0.0], [1e-300]]  # zero and underflowing products
        net = Mlp.stack(nets) if runs else nets[0]
        lead = (runs,) if runs else ()
        x = rng.standard_normal((*lead, sum(sizes), 16))
        g_out = rng.standard_normal((*lead, sum(sizes), 1))
        g_out[..., :4, 0] = [0.0, -0.0, 1e-300, -1e-300]
        plan = passed(net, x, sizes)
        grad = plan.backward(g_out, input_grad=True)

        out = plan.acts[-1]
        dz = g_out * out * (1.0 - out)
        w_t = net.layers[0].w.swapaxes(-1, -2)
        bounds = np.cumsum([0, *sizes])
        want = np.concatenate(
            [np.matmul(dz[..., a:b, :], w_t) for a, b in zip(bounds[:-1], bounds[1:])], axis=-2
        )
        assert grad.tobytes() == want.tobytes()
        # the fixture does hold products whose sign of zero the matrix
        # product and a bare multiply disagree on
        assert (np.signbit(dz * w_t) != np.signbit(want)).any()

