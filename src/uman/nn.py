"""Dense MLP numerics with tape-based reverse-mode differentiation.

Everything runs on 2-d float64 numpy arrays. A forward pass builds
:class:`Value` nodes (activation matrix plus gradient buffer) and appends
one backward closure per operation to a :class:`Tape`; replaying the tape
in reverse accumulates exact gradients into every upstream ``Value`` and
into the parameter buffers of each :class:`Mlp`. The graph topology here is
fixed and small (feature net, classifier head, domain discriminator), so
closures over explicit buffers are all the machinery that is needed.

Passing ``tape=None`` to any forward function runs it in inference mode
without recording.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape",
    "Value",
    "Mlp",
    "NonFiniteGradientError",
    "forward_mlp",
    "mlp_apply",
    "l2_normalize",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy",
    "grad_reverse",
    "block_sums",
    "scalar_sum",
    "run_backward",
    "sgd_step",
]

_NORM_EPS = 1e-12
_PROB_CLIP = 1e-7


class NonFiniteGradientError(RuntimeError):
    """A NaN or infinity showed up in a gradient buffer."""


class Tape:
    """Ordered log of backward closures, replayed in exact reverse order."""

    __slots__ = ("_ops",)

    def __init__(self):
        self._ops = []

    def record(self, op):
        self._ops.append(op)

    def __len__(self):
        return len(self._ops)

    def backward(self):
        for op in reversed(self._ops):
            op()
        self._ops = []


class Value:
    """A 2-d float64 activation matrix together with its gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"Value expects a 2-d matrix, got shape {data.shape}")
        self.data = data
        self.grad = np.zeros_like(data)

    @property
    def shape(self):
        return self.data.shape


_ACTIVATIONS = ("linear", "relu", "sigmoid")


class _Layer:
    __slots__ = ("w", "b", "gw", "gb", "activation")

    def __init__(self, w, b, activation):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.w = w
        self.b = b
        self.gw = np.zeros_like(w)
        self.gb = np.zeros_like(b)
        self.activation = activation


class Mlp:
    """Fully connected net; weights drawn uniformly from +-1/sqrt(fan_in)."""

    def __init__(self, sizes, activations, rng):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output width")
        if len(activations) != len(sizes) - 1:
            raise ValueError("one activation per layer required")
        self.layers = []
        for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = rng.uniform(-bound, bound, size=fan_out)
            self.layers.append(_Layer(w, b, act))

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[1]

    @property
    def n_params(self) -> int:
        return sum(l.w.size + l.b.size for l in self.layers)

    def zero_grads(self):
        for l in self.layers:
            l.gw[...] = 0.0
            l.gb[...] = 0.0

    def param_arrays(self):
        """Flat list of (param, grad) pairs, in a fixed order."""
        out = []
        for l in self.layers:
            out.append((l.w, l.gw))
            out.append((l.b, l.gb))
        return out


def _runs(sizes):
    """Group consecutive blocks of equal size: (first row, count, rows each)."""
    runs, start = [], 0
    for n in sizes:
        if runs and runs[-1][2] == n:
            runs[-1][1] += 1
        else:
            runs.append([start, 1, n])
        start += n
    return runs


def block_sums(x: np.ndarray, sizes) -> np.ndarray:
    """Sum over the rows of each consecutive block of ``x``, ``sizes[i]`` rows
    for block i, one result row per block.

    Each block sums exactly as ``x[block].sum(axis=0)`` would on its own (a
    segmented ``np.add.reduceat`` associates differently), with one numpy
    call per run of equal-size blocks.
    """
    out = np.empty((len(sizes), *x.shape[1:]))
    i = 0
    for start, count, rows in _runs(sizes):
        block = x[start : start + count * rows].reshape(count, rows, *x.shape[1:])
        np.sum(block, axis=1, out=out[i : i + count])
        i += count
    return out


def forward_mlp(net: Mlp, x, tape: Tape | None = None, blocks=None) -> Value:
    """Run ``x`` through the net, recording backward closures on ``tape``.

    ``blocks`` lists row counts: the rows of ``x`` stack that many separate
    passes, in that order. Rows past the last block form one more pass that
    is not recorded and gets no gradient. Every output and every gradient is
    bit-identical to running the passes one by one, because BLAS rounds a
    row differently depending on where it sits in a call: each product is
    a batched matmul over runs of equal-size blocks, one BLAS call per block
    of the block's own shape, and the backward pass adds the blocks'
    parameter gradients in reverse order. By default all rows form one
    block. A raw array input gets no gradient, since no caller could read it.
    """
    wants_grad = isinstance(x, Value)
    v = x if wants_grad else Value(x)
    n, width = v.data.shape
    if width != net.in_dim:
        raise ValueError(f"input has {width} columns but the net expects {net.in_dim}")
    if blocks is None:
        blocks = [n] if n else []
    blocks = [int(b) for b in blocks]
    recorded = sum(blocks)
    if recorded > n or min(blocks, default=1) < 1:
        raise ValueError(f"blocks {blocks} do not fit in {n} rows")
    runs = _runs(blocks + [n - recorded] if recorded < n else blocks)
    replay = _runs(blocks)[::-1]
    for layer in net.layers:
        z = np.empty((n, layer.w.shape[1]))
        for start, count, rows in runs:
            stop = start + count * rows
            np.matmul(
                v.data[start:stop].reshape(count, rows, -1),
                layer.w,
                out=z[start:stop].reshape(count, rows, -1),
            )
        z += layer.b
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
        out = Value(a)
        if tape is not None:
            tape.record(_layer_backward(layer, v, out, replay, wants_grad))
        v = out
        wants_grad = True
    return v


def _layer_backward(layer, inp, out, replay, wants_grad):
    def op():
        if layer.activation == "relu":
            dz = out.grad * (out.data > 0.0)
        elif layer.activation == "sigmoid":
            s = out.data
            dz = out.grad * s * (1.0 - s)
        else:
            dz = out.grad
        w_t = layer.w.T
        for start, count, rows in replay:
            stop = start + count * rows
            d = dz[start:stop].reshape(count, rows, -1)
            x = inp.data[start:stop].reshape(count, rows, -1)
            for g in np.matmul(x.transpose(0, 2, 1), d)[::-1]:
                layer.gw += g
            for g in d.sum(axis=1)[::-1]:
                layer.gb += g
            if wants_grad:
                inp.grad[start:stop] += np.matmul(d, w_t).reshape(stop - start, -1)

    return op


def mlp_apply(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Inference-only forward pass on a raw array."""
    return forward_mlp(net, x, tape=None).data


def l2_normalize(x, tape: Tape | None = None) -> Value:
    """Scale every row to unit Euclidean norm.

    Rows with norm below 1e-12 get the epsilon added to the denominator
    instead of dividing by ~0; such rows stay near zero and their gradient
    term through the norm is suppressed.
    """
    v = x if isinstance(x, Value) else Value(x)
    norm = np.sqrt((v.data * v.data).sum(axis=1, keepdims=True))
    safe = np.where(norm < _NORM_EPS, norm + _NORM_EPS, norm)
    out = Value(v.data / safe)
    if tape is not None:
        def op():
            g = out.grad
            dot = (g * v.data).sum(axis=1, keepdims=True)
            v.grad += g / safe - v.data * (dot / (safe * safe * np.maximum(norm, _NORM_EPS)))

        tape.record(op)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits: Value, labels, weights, tape: Tape | None = None) -> Value:
    """Weighted cross entropy: sum_i w_i * nll_i / sum_i w_i.

    Returns a 1x1 scalar node. With all-equal weights this is the plain
    batch mean. An all-zero weight vector yields a zero loss with zero
    gradient (nothing to average).
    """
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n, k = logits.data.shape
    if n == 0:
        raise ValueError("empty batch")
    if labels.shape != (n,) or weights.shape != (n,):
        raise ValueError("labels and weights must each have one entry per row")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels outside [0, {k})")
    if (weights < 0).any():
        raise ValueError("negative weights")

    wsum = weights.sum()
    if wsum == 0.0:
        return Value(np.zeros((1, 1)))
    logp = log_softmax(logits.data)
    nll = -logp[np.arange(n), labels]
    out = Value([[float((weights * nll).sum() / wsum)]])
    if tape is not None:
        def op():
            coef = out.grad[0, 0]
            if coef == 0.0:
                return
            p = np.exp(logp)
            p[np.arange(n), labels] -= 1.0
            logits.grad += coef * p * (weights / wsum)[:, None]

        tape.record(op)
    return out


def grad_reverse(x: Value, lam: float, tape: Tape | None = None) -> Value:
    """Identity forward; backward multiplies the incoming gradient by -lam."""
    out = Value(x.data)
    if tape is not None:
        def op():
            x.grad += (-lam) * out.grad

        tape.record(op)
    return out


def scalar_sum(parts, coeffs=None, tape: Tape | None = None) -> Value:
    """Weighted sum of 1x1 scalar nodes as a new scalar node."""
    if coeffs is None:
        coeffs = [1.0] * len(parts)
    if len(coeffs) != len(parts):
        raise ValueError("one coefficient per part required")
    total = sum(c * p.data[0, 0] for c, p in zip(coeffs, parts))
    out = Value([[total]])
    if tape is not None:
        def op():
            for c, p in zip(coeffs, parts):
                p.grad += c * out.grad

        tape.record(op)
    return out


def run_backward(tape: Tape, root: Value):
    """Seed the root scalar with gradient 1 and replay the tape."""
    if root.data.shape != (1, 1):
        raise ValueError("backward root must be a 1x1 scalar node")
    root.grad[...] = 1.0
    tape.backward()


def sgd_step(net: Mlp, lr: float, weight_decay: float = 0.0):
    """Plain gradient step; zeroes the gradients afterwards.

    Every gradient is checked before any parameter moves, so a non-finite
    entry anywhere leaves the whole net untouched. ``weight_decay`` adds an
    L2 pull toward zero on the weight matrices (biases are exempt), which
    bounds the logit scale a linear head can reach and keeps softmax
    confidence meaningful off the training clusters."""
    for idx, layer in enumerate(net.layers):
        for name, g in (("w", layer.gw), ("b", layer.gb)):
            if not np.isfinite(g).all():
                bad = int((~np.isfinite(g)).sum())
                raise NonFiniteGradientError(
                    f"layer {idx} parameter {name}: {bad} non-finite gradient entries"
                )
    for layer in net.layers:
        if weight_decay:
            layer.w -= lr * (layer.gw + weight_decay * layer.w)
        else:
            layer.w -= lr * layer.gw
        layer.b -= lr * layer.gb
    net.zero_grads()
