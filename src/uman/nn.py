"""Dense MLP numerics with an explicit backward pass.

Everything runs on float64 numpy arrays of rows, ``(n, width)``, with an
optional leading run axis, ``(R, n, width)``: :meth:`Mlp.stack` holds R
nets of one shape as one net whose parameters carry that axis, and every
function here then computes each run exactly as it would alone. A net's
parameters, and its gradients, live in one flat buffer each, of which
every layer's arrays are views, so zeroing, checking and stepping a
net's gradients take one numpy call per buffer region, not one per
layer. A :class:`Plan` keeps the activations of a forward pass over
stacked blocks of rows, and its backward pass takes them back with the
loss gradient of the output, adding exact gradients into the parameter
buffers of the :class:`Mlp` and returning the gradient of the input when
the caller reads it. The package differentiates only two fixed graphs,
the training step and the alignment probe, and each lays out one plan per
net and batch; :func:`l2_normalize_backward` is the one other link either
needs, and :func:`forward_mlp` is the one-pass inference call. Each
checks its gradients with :func:`gradient_faults` before
:func:`sgd_update` moves a parameter.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "Mlp",
    "Plan",
    "plan_nbytes",
    "NonFiniteGradientError",
    "forward_mlp",
    "l2_normalize",
    "l2_normalize_backward",
    "row_norms",
    "softmax",
    "log_softmax",
    "block_sums",
    "gradient_faults",
    "sgd_update",
]

_NORM_EPS = 1e-12


class NonFiniteGradientError(RuntimeError):
    """A NaN or infinity showed up in a gradient buffer. Training sets
    ``step`` to the step whose gradient it was."""

    step: int | None = None


_ACTIVATIONS = ("linear", "relu", "sigmoid")


class _Layer:
    """Views of one layer into its net's flat buffers."""

    __slots__ = ("w", "b", "gw", "gb", "activation")

    def __init__(self, w, b, gw, gb, activation):
        self.w, self.b, self.gw, self.gb, self.activation = w, b, gw, gb, activation


class Mlp:
    """Fully connected net; weights drawn uniformly from +-1/sqrt(fan_in).

    Parameters live in one flat buffer, ``params``, and their gradients in
    another of the same layout, ``grads``: every layer's weights, then every
    layer's biases, layer by layer. A run axis sits inside each layer's
    segment, so every layer's ``w``, ``b``, ``gw`` and ``gb`` is a
    C-contiguous view into the buffers, and zeroing, checking or stepping
    all of a net's gradients takes one call per region.
    """

    def __init__(self, sizes, activations, rng):
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output width")
        if len(activations) != len(sizes) - 1:
            raise ValueError("one activation per layer required")
        self._allocate(list(zip(sizes[:-1], sizes[1:])), activations, ())
        for layer in self.layers:
            bound = 1.0 / np.sqrt(layer.w.shape[0])
            layer.w[...] = rng.uniform(-bound, bound, size=layer.w.shape)
            layer.b[...] = rng.uniform(-bound, bound, size=layer.b.shape)

    def _allocate(self, shapes, activations, lead):
        """Lay out zeroed buffers for layers of the given (fan_in, fan_out)
        shapes, each with the leading run axis ``lead`` (or none)."""
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        runs = math.prod(lead)
        n_weights = runs * sum(i * o for i, o in shapes)
        size = n_weights + runs * sum(o for _, o in shapes)
        self.params, self.grads = np.zeros(size), np.zeros(size)
        self._split = n_weights
        self.layers = []
        w_at, b_at = 0, n_weights
        for (fan_in, fan_out), act in zip(shapes, activations):
            w_end, b_end = w_at + runs * fan_in * fan_out, b_at + runs * fan_out
            w, gw = (buf[w_at:w_end].reshape(*lead, fan_in, fan_out) for buf in (self.params, self.grads))
            b, gb = (buf[b_at:b_end].reshape(*lead, fan_out) for buf in (self.params, self.grads))
            self.layers.append(_Layer(w, b, gw, gb, act))
            w_at, b_at = w_end, b_end

    @classmethod
    def _like(cls, net, lead):
        out = cls.__new__(cls)
        out._allocate(
            [layer.w.shape[-2:] for layer in net.layers], [layer.activation for layer in net.layers], lead
        )
        return out

    @classmethod
    def stack(cls, nets):
        """One net whose parameters stack those of ``nets``, which share
        their shape, along a leading run axis; its gradients are zero."""
        net = cls._like(nets[0], (len(nets),))
        for i, layer in enumerate(net.layers):
            for r, one in enumerate(nets):
                layer.w[r], layer.b[r] = one.layers[i].w, one.layers[i].b
        return net

    def take(self, run: int):
        """Copy of one run of a stacked net as its own net, without the run
        axis, gradient buffers included."""
        net = Mlp._like(self, ())
        for new, old in zip(net.layers, self.layers):
            for name in ("w", "b", "gw", "gb"):
                getattr(new, name)[...] = getattr(old, name)[run]
        return net

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[-2]

    def zero_grads(self):
        self.grads[...] = 0.0


@functools.lru_cache(maxsize=256)
def _runs(sizes: tuple):
    """Group consecutive blocks of equal size: (first row, count, rows each).
    Cached: a training loop asks for the same few layouts every step."""
    runs, start = [], 0
    for n in sizes:
        if runs and runs[-1][2] == n:
            runs[-1][1] += 1
        else:
            runs.append([start, 1, n])
        start += n
    return tuple(map(tuple, runs))


def block_sums(x: np.ndarray, sizes) -> np.ndarray:
    """Sum over each consecutive block of ``x`` along the last axis,
    ``sizes[i]`` entries for block i, one result entry per block.

    Each block sums exactly as ``x[..., block].sum(-1)`` would on its own (a
    segmented ``np.add.reduceat`` associates differently), with one numpy
    call per run of equal-size blocks.
    """
    lead = x.shape[:-1]
    out = np.empty((*lead, len(sizes)))
    i = 0
    for start, count, rows in _runs(tuple(sizes)):
        block = x[..., start : start + count * rows]
        np.add.reduce(block.reshape(*lead, count, rows), axis=-1, out=out[..., i : i + count])
        i += count
    return out


def _check_blocks(blocks, n):
    if blocks is None:
        return (n,) if n else ()
    blocks = tuple(int(b) for b in blocks)
    if sum(blocks) > n or min(blocks, default=1) < 1:
        raise ValueError(f"blocks {list(blocks)} do not fit in {n} rows")
    return blocks


class Plan:
    """One pass of a net forward and back over a fixed batch layout, laid
    out once: the activation buffers (input first), the buffers of the
    backward pass, and every view of them, of the net's parameters and of
    its gradient buffers that the passes read or write.

    ``x`` is the input buffer, and the plan allocates one output buffer
    per layer. ``blocks`` lists row counts: the rows of ``x`` stack that
    many separate passes, in that order. Rows past the last block form one
    more pass, which :meth:`backward` leaves out. By default all rows form
    one block. Every output is bit-identical to running the passes one by
    one, because BLAS rounds a row differently depending on where it sits
    in a call: each product is a batched matmul over runs of equal-size
    blocks, one BLAS call per block of the block's own shape. With a
    leading run axis on ``x`` and the net, run r's rows go through run r's
    parameters, and every block of every run is its own BLAS call as
    before. Each pass overwrites the buffers of the one before. A plan
    holds views of its net's buffers and serves that net alone.
    """

    def __init__(self, net: Mlp, x: np.ndarray, blocks=None):
        *lead, rows, _ = x.shape
        acts = [x] + [np.empty((*lead, rows, layer.w.shape[-1])) for layer in net.layers]
        self.net, self.acts, self.lead = net, acts, tuple(lead)
        self.blocks = _check_blocks(blocks, rows)
        n = sum(self.blocks)
        runs = _runs(self.blocks + (rows - n,) if n < rows else self.blocks)
        self._forward = [
            # one weight matrix per block of a run
            (list(zip(self._groups(inp, runs), self._groups(z, runs))), layer.w[..., None, :, :], layer.b[..., None, :], z)
            for layer, inp, z in zip(net.layers, acts[:-1], acts[1:])
        ]
        self._backward = None

    def _groups(self, a, runs):
        """Views of the rows of ``a``, one ``lead + (count, rows, width)``
        view per run of equal-size blocks."""
        return [a[..., start : start + count * rows, :].reshape(*self.lead, count, rows, -1) for start, count, rows in runs]

    def forward(self, x) -> list[np.ndarray]:
        """Run ``x`` through the net, copied into the input buffer unless it
        is that buffer; returns the buffers."""
        if x is not self.acts[0]:
            np.copyto(self.acts[0], x)
        for (groups, w, b, z), layer in zip(self._forward, self.net.layers):
            for inp, out in groups:
                np.matmul(inp, w, out=out)
            z += b
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=z)
            elif layer.activation == "sigmoid":
                np.divide(1.0, np.add(1.0, np.exp(np.negative(z, out=z), out=z), out=z), out=z)
        return self.acts

    def _lay_backward(self):
        """Per layer, last first: its outputs, its dz buffer (the input
        gradient's buffer of the layer above, for a hidden linear layer),
        its activation's scratch buffer (the ReLU mask, the sigmoid's
        1 - out), its input gradient's buffer, its transposed
        weights, its per-block gradient buffers in reverse block order, and
        per run of equal-size blocks the views of its transposed inputs,
        dz, the per-block gradients and its input gradient."""
        n = sum(self.blocks)
        runs = _runs(self.blocks)
        firsts = np.cumsum([0] + [count for _, count, _ in runs]).tolist()
        laid, grad = [], None
        for i in reversed(range(len(self.net.layers))):
            layer, inp, out = self.net.layers[i], self.acts[i][..., :n, :], self.acts[i + 1][..., :n, :]
            dz = grad if layer.activation == "linear" and grad is not None else np.empty(out.shape)
            scratch = None if layer.activation == "linear" else np.empty(out.shape, bool if layer.activation == "relu" else float)
            grad = np.empty(inp.shape)
            gw = np.empty((*self.lead, len(self.blocks), *layer.w.shape[-2:]))
            gb = np.empty((*self.lead, len(self.blocks), layer.w.shape[-1]))
            views = zip(self._groups(inp, runs), self._groups(dz, runs), self._groups(grad, runs), firsts, firsts[1:])
            groups = [(x.swapaxes(-1, -2), d, gw[..., a:e, :, :], gb[..., a:e, :], g) for x, d, g, a, e in views]
            # the transposed view, not a contiguous copy: BLAS rounds the
            # two layouts differently
            w_t = layer.w.swapaxes(-1, -2)
            laid.append((layer, out, dz, scratch, grad, w_t, gw[..., ::-1, :, :], gb[..., ::-1, :], groups))
        return laid

    def backward(self, grad, input_grad: bool = False):
        """Add the parameter gradients of the plan's last forward pass to
        the net's buffers.

        ``grad`` is the loss gradient of the output rows of the blocks,
        ``sum(blocks)`` of them. The blocks' gradients are summed one after
        the other, last block first, and the sum is added to the buffers,
        which must be zero: they then hold exactly what one backward pass
        per block, in reverse order, would leave. With ``input_grad`` the
        gradient of the input rows of the blocks is returned; otherwise its
        products are skipped and None is returned."""
        if self._backward is None:
            self._backward = self._lay_backward()
        last = len(self._backward) - 1
        for k, (layer, out, dz, scratch, into, w_t, gw, gb, groups) in enumerate(self._backward):
            if layer.activation == "relu":
                np.multiply(grad, np.greater(out, 0.0, out=scratch), out=dz)
            elif layer.activation == "sigmoid":
                np.multiply(np.multiply(grad, out, out=dz), np.subtract(1.0, out, out=scratch), out=dz)
            elif dz is not grad:
                np.copyto(dz, grad)
            if k == last and not input_grad:
                into = None
            by_block = into is not None and w_t.shape[-2] > 1
            if into is not None and not by_block:
                # a 1-wide output's input gradient is an outer product: a k=1
                # matrix product adds each entry's one product to a zero
                # accumulator, and so does adding 0.0, which turns a -0.0
                # product into +0.0 and leaves every other value as it is
                np.add(np.multiply(dz, w_t, out=into), 0.0, out=into)
            for x_t, d, gw_run, gb_run, into_run in groups:
                np.matmul(x_t, d, out=gw_run)
                np.add.reduce(d, axis=-2, out=gb_run)
                if by_block:
                    np.matmul(d, w_t[..., None, :, :], out=into_run)
            # One sum over the blocks, last first, adds what one backward per
            # block in reverse order would. It is exact only because the
            # buffers are zero here: a net runs one backward per step, and
            # sgd_update zeroes its buffers.
            if groups:
                layer.gw += _sum_in_order(gw, -3, gw.shape[-1] * gw.shape[-2])
                layer.gb += _sum_in_order(gb, -2, gb.shape[-1])
            grad = into
        return grad


def plan_nbytes(widths, activations, rows: int, blocks) -> int:
    """The bytes of a run's share of the buffers of a :class:`Plan` over
    ``rows`` input rows, for a net of these layer widths (input first) and
    activations, once it has passed back the rows of ``blocks``: its
    activations and, per layer, what :meth:`Plan._lay_backward` allocates."""
    n, count = sum(blocks), len(blocks)
    nbytes = 8 * rows * sum(widths)
    for k, (fan_in, fan_out, activation) in enumerate(reversed(list(zip(widths, widths[1:], activations)))):
        dz = 0 if activation == "linear" and k else n * fan_out  # a hidden linear layer's is shared
        scratch = {"linear": 0, "relu": 1, "sigmoid": 8}[activation] * n * fan_out
        nbytes += 8 * (dz + n * fan_in + count * (fan_in + 1) * fan_out) + scratch
    return nbytes


def forward_mlp(net: Mlp, x) -> list[np.ndarray]:
    """Run ``x`` through the net in one pass; returns the input and every
    layer's output. The pass runs in a :class:`Plan` of its own, over ``x``
    as its input buffer."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.in_dim:
        raise ValueError(f"input has {x.shape[-1]} columns but the net expects {net.in_dim}")
    return Plan(net, x).forward(x)


def _sum_in_order(stack, axis, width):
    """Sum ``stack`` over ``axis`` (-3 or -2) strictly from first entry to
    last; ``width`` is the size of each entry.

    ``np.add.reduce`` adds in order while a wider axis stays inside the
    summed one. When that leaves the summed axis innermost (width 1, as for
    the bias of a 1-wide output) it pairs terms up from 8 entries on, and
    the running sum of ``np.add.accumulate``, slow on wide entries, keeps
    the order instead.
    """
    if width > 1 or stack.shape[axis] < 8:
        return np.add.reduce(stack, axis=axis)
    return np.add.accumulate(stack, axis=axis)[(..., -1) + (slice(None),) * (-1 - axis)]


def row_norms(x):
    """Each row's Euclidean norm, and the denominator :func:`l2_normalize`
    divides the row by; :func:`l2_normalize_backward` takes the pair back."""
    norm = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    return norm, np.where(norm < _NORM_EPS, norm + _NORM_EPS, norm)


def l2_normalize(x, norms=None) -> np.ndarray:
    """Scale every row to unit Euclidean norm.

    Rows with norm below 1e-12 get the epsilon added to the denominator
    instead of dividing by ~0; such rows stay near zero and their gradient
    term through the norm is suppressed. ``norms`` are ``row_norms(x)``,
    computed here if not given.
    """
    x = np.asarray(x, dtype=np.float64)
    return x / (norms or row_norms(x))[1]


def l2_normalize_backward(x: np.ndarray, grad: np.ndarray, norms=None) -> np.ndarray:
    """Gradient with respect to ``x`` of a loss whose gradient with respect
    to ``l2_normalize(x)`` is ``grad``; ``norms`` as for :func:`l2_normalize`."""
    norm, safe = norms or row_norms(x)
    dot = np.add.reduce(grad * x, axis=-1, keepdims=True)
    return grad / safe - x * (dot / (safe * safe * np.maximum(norm, _NORM_EPS)))


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def gradient_faults(*nets) -> dict[int, str]:
    """Runs with a NaN or infinity in a gradient buffer of ``nets``.

    Maps each such run (0 for a net without a run axis) to the message of
    :class:`NonFiniteGradientError` for its first faulty buffer: nets in
    the given order, then layers, then ``w`` before ``b``. One check covers
    every run of every net, so a caller can end the faulty runs before any
    parameter moves; only a net that fails it is scanned layer by layer.
    """
    faults = {}
    for net in nets:
        if np.logical_and.reduce(np.isfinite(net.grads)):
            continue
        for idx, layer in enumerate(net.layers):
            runs = layer.w.shape[0] if layer.w.ndim == 3 else 1
            for name, g in (("w", layer.gw), ("b", layer.gb)):
                finite = np.isfinite(g)
                if np.logical_and.reduce(finite, axis=None):
                    continue
                for r, run_finite in enumerate(finite.reshape(runs, -1)):
                    if r not in faults and not run_finite.all():
                        bad = int((~run_finite).sum())
                        faults[r] = f"layer {idx} parameter {name}: {bad} non-finite gradient entries"
    return faults


def sgd_update(net: Mlp, lr: float, weight_decay: float = 0.0):
    """Plain gradient step; zeroes the gradients afterwards.

    It does not check the gradients: a caller checks them with
    :func:`gradient_faults` first, so a non-finite entry anywhere leaves
    the whole net untouched. ``weight_decay`` adds an L2 pull toward zero
    on the weight matrices (biases are exempt), which bounds the logit
    scale a linear head can reach and keeps softmax confidence meaningful
    off the training clusters. The step is computed in the gradient
    buffer, which is zeroed next: the weights' gradients take their decay
    term, then every gradient is scaled by ``lr`` and subtracted, entry by
    entry as ``w -= lr * (gw + weight_decay * w)`` and ``b -= lr * gb``."""
    if weight_decay:
        net.grads[: net._split] += weight_decay * net.params[: net._split]
    net.grads *= lr
    net.params -= net.grads
    net.zero_grads()
