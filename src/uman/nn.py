"""Dense MLP numerics with an explicit backward pass.

Everything runs on 2-d float64 numpy arrays. :func:`forward_mlp` returns
the activations of every layer, and :func:`backward_mlp` takes them back
with the loss gradient of the output, adding exact gradients into the
parameter buffers of the :class:`Mlp` and returning the gradient of the
input when the caller reads it. The package differentiates only two fixed
graphs, the training step and the alignment probe, and each spells out its
own chain of these calls; :func:`l2_normalize_backward` is the one other
link either needs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Mlp",
    "NonFiniteGradientError",
    "forward_mlp",
    "backward_mlp",
    "mlp_apply",
    "l2_normalize",
    "l2_normalize_backward",
    "softmax",
    "log_softmax",
    "block_sums",
    "sgd_step",
]

_NORM_EPS = 1e-12


class NonFiniteGradientError(RuntimeError):
    """A NaN or infinity showed up in a gradient buffer."""


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


def _check_blocks(blocks, n):
    if blocks is None:
        return [n] if n else []
    blocks = [int(b) for b in blocks]
    if sum(blocks) > n or min(blocks, default=1) < 1:
        raise ValueError(f"blocks {blocks} do not fit in {n} rows")
    return blocks


def forward_mlp(net: Mlp, x, blocks=None) -> list[np.ndarray]:
    """Run ``x`` through the net; returns the input and every layer's output.

    ``blocks`` lists row counts: the rows of ``x`` stack that many separate
    passes, in that order. Rows past the last block form one more pass, which
    :func:`backward_mlp` leaves out. Every output is bit-identical to running
    the passes one by one, because BLAS rounds a row differently depending
    on where it sits in a call: each product is a batched matmul over runs
    of equal-size blocks, one BLAS call per block of the block's own shape.
    By default all rows form one block.
    """
    x = np.asarray(x, dtype=np.float64)
    n, width = x.shape
    if width != net.in_dim:
        raise ValueError(f"input has {width} columns but the net expects {net.in_dim}")
    blocks = _check_blocks(blocks, n)
    in_blocks = sum(blocks)
    runs = _runs(blocks + [n - in_blocks] if in_blocks < n else blocks)
    acts = [x]
    for layer in net.layers:
        z = np.empty((n, layer.w.shape[1]))
        for start, count, rows in runs:
            stop = start + count * rows
            np.matmul(
                acts[-1][start:stop].reshape(count, rows, -1),
                layer.w,
                out=z[start:stop].reshape(count, rows, -1),
            )
        z += layer.b
        if layer.activation == "relu":
            acts.append(np.maximum(z, 0.0))
        elif layer.activation == "sigmoid":
            acts.append(1.0 / (1.0 + np.exp(-z)))
        else:
            acts.append(z)
    return acts


def backward_mlp(net: Mlp, acts, grad, blocks=None, input_grad=False):
    """Add the parameter gradients of one forward pass to the net's buffers.

    ``acts`` is what :func:`forward_mlp` returned for the same ``blocks``,
    and ``grad`` is the loss gradient of the output rows of the blocks,
    ``sum(blocks)`` of them. Each block's gradients are added on their own,
    last block first, so the buffers hold exactly what one backward pass per
    block, in reverse order, would leave. With ``input_grad`` the gradient of
    the input rows of the blocks is returned; otherwise its products are
    skipped and None is returned.
    """
    blocks = _check_blocks(blocks, acts[0].shape[0])
    n = sum(blocks)
    replay = _runs(blocks)[::-1]
    for i in reversed(range(len(net.layers))):
        layer, inp, out = net.layers[i], acts[i][:n], acts[i + 1][:n]
        if layer.activation == "relu":
            dz = grad * (out > 0.0)
        elif layer.activation == "sigmoid":
            dz = grad * out * (1.0 - out)
        else:
            dz = grad
        grad = np.empty_like(inp) if i or input_grad else None
        w_t = layer.w.T
        for start, count, rows in replay:
            stop = start + count * rows
            d = dz[start:stop].reshape(count, rows, -1)
            x = inp[start:stop].reshape(count, rows, -1)
            for g in np.matmul(x.transpose(0, 2, 1), d)[::-1]:
                layer.gw += g
            for g in d.sum(axis=1)[::-1]:
                layer.gb += g
            if grad is not None:
                grad[start:stop] = np.matmul(d, w_t).reshape(stop - start, -1)
    return grad


def mlp_apply(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Inference-only forward pass on a raw array."""
    return forward_mlp(net, x)[-1]


def _row_norms(x):
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return norm, np.where(norm < _NORM_EPS, norm + _NORM_EPS, norm)


def l2_normalize(x) -> np.ndarray:
    """Scale every row to unit Euclidean norm.

    Rows with norm below 1e-12 get the epsilon added to the denominator
    instead of dividing by ~0; such rows stay near zero and their gradient
    term through the norm is suppressed.
    """
    x = np.asarray(x, dtype=np.float64)
    return x / _row_norms(x)[1]


def l2_normalize_backward(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient with respect to ``x`` of a loss whose gradient with respect
    to ``l2_normalize(x)`` is ``grad``."""
    norm, safe = _row_norms(x)
    dot = (grad * x).sum(axis=1, keepdims=True)
    return grad / safe - x * (dot / (safe * safe * np.maximum(norm, _NORM_EPS)))


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


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
