"""Margin-driven class weighting and adversarial multi-source training.

The training objective couples a joint source classification loss with a
weighted domain-adversarial loss over one shared feature net F, classifier
head G, and domain discriminator D:

* every target sample gets a pseudo-label and a prediction margin (top
  probability minus runner-up) from the current classifier;
* a running per-class register averages those margins over the batches seen
  so far, but only while every source sub-batch is classified with error
  below a gate threshold, so garbage early predictions never enter it;
* source samples are weighted by their class's register value, target
  samples by margin times the register value of their pseudo-label, which
  down-weights source-private classes and likely-unknown target samples in
  the domain loss;
* one backward pass realizes the min-max: the discriminator descends the
  domain loss while a gradient-reversal stage feeds the negated (and
  ramped) feature gradient back into F.

At inference a sample is assigned its argmax class when its margin clears
the rejection threshold w0 and is marked UNKNOWN otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .labelspace import LabelPartition, typed_fields
from .nn import (
    Mlp,
    NonFiniteGradientError,
    Plan,
    block_sums,
    forward_mlp,
    gradient_faults,
    l2_normalize,
    l2_normalize_backward,
    log_softmax,
    plan_nbytes,
    row_norms,
    sgd_update,
    softmax,
)

__all__ = [
    "UNKNOWN",
    "METHODS",
    "ADVERSARIAL",
    "batch_margins",
    "margin_vector",
    "TargetMarginRegister",
    "sample_weights",
    "normalize_weights",
    "classification_loss",
    "domain_loss",
    "grl_lambda",
    "Hyperparams",
    "trace_columns",
    "TrainResult",
    "TrainingDiverged",
    "net_shapes",
    "BatchLayout",
    "batch_layout",
    "step_floats",
    "MAX_RUN_FLOATS",
    "run_floats",
    "cost_problems",
    "check_labels",
    "train",
    "train_runs",
    "extract_features",
    "predict_classes",
]

UNKNOWN = -1

# the full method and its two ablations: classification only, and
# adversarial alignment with every domain-loss weight forced to 1
METHODS = ("uman", "source_only", "unweighted_adv")
ADVERSARIAL = ("uman", "unweighted_adv")  # the methods that train D, and so read the target's rows


def batch_margins(probs: np.ndarray):
    """Pseudo-labels and margins (top probability minus runner-up) per row.

    ``probs`` is ``(n, k)``, or ``(R, n, k)`` with a leading run axis. The
    argmax breaks ties toward the lowest index. Probabilities live in the
    simplex, so every margin is inside [0, 1].
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim < 2 or probs.shape[-1] < 2:
        raise ValueError("expected a (n, k>=2) probability matrix")
    pseudo = probs.argmax(axis=-1)
    part = probs.copy()
    part.partition(-2, axis=-1)
    margins = part[..., -1] - part[..., -2]
    return pseudo, margins


def margin_vector(pseudo, margins, n_classes: int):
    """Per-class mean margin over a batch, grouped by pseudo-label.

    Takes the pseudo-labels and margins of :func:`batch_margins`. Returns
    ``(values, present)`` where ``present[c]`` says whether any sample was
    pseudo-labeled c; absent classes get value 0. With a leading run axis
    every run is grouped on its own. A label outside [0, n_classes) raises.
    """
    pseudo = np.asarray(pseudo)
    if ((pseudo < 0) | (pseudo >= n_classes)).any():
        raise ValueError(f"pseudo-labels outside [0, {n_classes})")
    lead = pseudo.shape[:-1]
    runs = math.prod(lead)
    # one bincount for every run: run r counts into bins r*C .. r*C + C-1,
    # in the order of its own samples, as a bincount of that run alone
    bins = (pseudo + np.arange(0, runs * n_classes, n_classes).reshape(*lead, 1)).ravel()
    sums = np.bincount(bins, weights=np.ravel(margins), minlength=runs * n_classes)
    counts = np.bincount(bins, minlength=runs * n_classes)
    present = counts > 0
    values = sums / np.maximum(counts, 1)
    return values.reshape(*lead, n_classes), present.reshape(*lead, n_classes)


class TargetMarginRegister:
    """Running per-class mean of batch margin vectors.

    Classes absent from a batch contribute nothing to their component, so
    after any update history each component equals the plain mean of the
    contributions that class actually received; never-seen classes stay 0.
    ``step`` counts update calls. With ``runs``, the register holds that
    many independent registers along a leading run axis, and ``step``
    holds one count per run.
    """

    def __init__(self, n_classes: int, runs: int | None = None):
        if n_classes < 1:
            raise ValueError("need at least one class")
        shape = (n_classes,) if runs is None else (runs, n_classes)
        self.n_classes = n_classes
        self.step = 0 if runs is None else np.zeros(runs, dtype=np.int64)
        self._sums = np.zeros(shape)
        self._counts = np.zeros(shape, dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return self._sums / np.maximum(self._counts, 1)

    def update(self, vector, present):
        """Add one margin vector per run, checked to lie in [0, 1], where no
        NaN lies. Training adds the margins it computes itself, which lie
        there by construction, through :meth:`add_steps` unchecked and
        gated: a ``uman`` step one step at a time, the ablations a chunk of
        steps at once."""
        vector = np.asarray(vector, dtype=np.float64)
        present = np.asarray(present, dtype=bool)
        if vector.shape != self._sums.shape or present.shape != self._sums.shape:
            raise ValueError(f"expected vectors of length {self.n_classes}")
        if not (np.minimum.reduce(vector, axis=None) >= -1e-12 and np.maximum.reduce(vector, axis=None) <= 1 + 1e-12):
            raise ValueError("margin contributions must lie in [0, 1]")
        self.add_steps(vector[None], present[None], np.ones((1, *vector.shape[:-1]), dtype=bool))

    def add_steps(self, vectors, present, gates):
        """:meth:`update` for several steps at once, in order down a leading
        step axis, with no range check and one gate flag per step and run:
        a run whose gate is closed takes nothing from that step. A closed
        gate or an absent class adds +0.0, which leaves every sum as it is
        (a sum starts at +0.0 and so is never -0.0), so one running sum down
        the step axis equals the steps' masked adds one after the other."""
        taken = present & gates[..., None]
        steps = np.where(taken, vectors, 0.0)
        steps[0] += self._sums
        np.add.accumulate(steps, axis=0, out=steps)
        self._sums[...] = steps[-1]
        self._counts += np.add.reduce(taken, axis=0)
        self.step += np.add.reduce(gates, axis=0).tolist()

    def take(self, run: int):
        """A copy of run ``run``'s own register."""
        out = TargetMarginRegister(self.n_classes)
        out._sums, out._counts, out.step = self._sums[run].copy(), self._counts[run].copy(), int(self.step[run])
        return out


def sample_weights(register: TargetMarginRegister, source_labels, pseudo, margins):
    """Raw domain-loss weights before normalization.

    A source sample weighs the register value of its class; a target sample
    its margin times the register value of its pseudo-label. Returns the
    weights of the source rows, in the order of ``source_labels``, and those
    of the target rows. A register with a run axis reads run r's values for
    row r of the labels, pseudo-labels and margins.
    """
    values = register.values
    if values.ndim == 1:
        return values[source_labels], margins * values[pseudo]
    runs = np.arange(len(values))[:, None]
    return values[runs, source_labels], margins * values[runs, pseudo]


def normalize_weights(raw) -> np.ndarray:
    """Divide by the group mean so the output averages to 1; all-zero stays
    zero. The group is the last axis: one per run with a run axis."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size and np.minimum.reduce(raw, axis=None) < 0:
        raise ValueError("weights must be nonnegative")
    if raw.shape[-1] == 0:
        return np.zeros_like(raw)
    mean = _mean(raw, keepdims=True)
    # a zero mean means an all-zero group, which divides by 1 and stays zero
    return raw / np.where(mean == 0.0, 1.0, mean)


def _sum_terms(terms):
    """Sum over the last axis strictly term by term, as a Python ``sum``
    starting at 0.0 adds them: a running sum, then + 0.0, which turns the
    -0.0 of an all-(-0.0) run into the 0.0 such a ``sum`` gives."""
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def _mean(x, keepdims=False):
    """``x.mean(axis=-1)`` bit for bit (the sum divided by the count),
    without its Python-level overhead."""
    return np.add.reduce(x, axis=-1, keepdims=keepdims) / x.shape[-1]


def _frozen(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=64)
def _source_layout(sizes: tuple):
    """:func:`classification_loss`'s arrays that depend on the source
    block sizes alone: the sizes and each row's 1/size. Cached, read-only."""
    sizes_f = np.array(sizes, dtype=np.float64)
    return _frozen(sizes_f), _frozen(np.repeat(1.0 / sizes_f, sizes)[:, None])


@functools.lru_cache(maxsize=64)
def _label_base(lead: tuple, n: int, k: int):
    """Flat index of the first logit of every row of an ``(*lead, n, k)``
    array; adding a row's label gives the flat index of its label's logit.
    Cached, read-only."""
    return _frozen(np.arange(math.prod(lead) * n).reshape(*lead, n) * k)


def classification_loss(logits: np.ndarray, labels, sizes):
    """Average of the per-source mean cross entropies and its gradient.

    ``logits`` stacks the sources' rows, ``sizes[i]`` of them for source i,
    and ``labels`` holds one integer per source row. Rows past the sources (the
    target's, in a training step) are not classified. A row of source i
    weighs 1/(M * sizes[i]) for M sources. Returns ``(value, grad)``, where
    ``grad`` is the gradient of the value with respect to the source rows.
    With a leading run axis on ``logits`` and ``labels``, ``value`` holds
    one loss per run.
    """
    sizes = tuple(int(n) for n in sizes)
    labels = np.asarray(labels)
    *lead, n_rows, k = logits.shape
    n, m = sum(sizes), len(sizes)
    if m == 0 or min(sizes) < 1 or labels.shape != (*lead, n) or n_rows < n:
        raise ValueError("need nonempty source blocks with one label per source row")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    if np.minimum.reduce(labels, axis=None) < 0 or np.maximum.reduce(labels, axis=None) >= k:
        raise ValueError(f"labels outside [0, {k})")
    value, grad = _classification_loss(logits, _label_base(tuple(lead), n, k) + labels.astype(np.int64, copy=False), sizes)
    return value if lead else float(value), grad


def _classification_loss(logits, at_labels, sizes: tuple):
    """:func:`classification_loss` without its checks, given the flat index
    of every source row's label logit (:func:`_label_base` plus the labels)."""
    sizes_f, inv_size = _source_layout(sizes)
    m = len(sizes)
    # logp and p below are fresh C-contiguous arrays, so reshape(-1) is a
    # view: one flat index reads, and writes, each row's label entry
    logp = log_softmax(logits[..., : at_labels.shape[-1], :])
    nll = -logp.reshape(-1)[at_labels]
    # each source's mean on its own, then summed term by term: the same
    # arithmetic as one cross-entropy term per source
    value = _sum_terms((1.0 / m) * (block_sums(nll, sizes) / sizes_f))
    p = np.exp(logp)
    p.reshape(-1)[at_labels] -= 1.0
    p *= 1.0 / m
    p *= inv_size
    return value, p


_CLIP = 1e-7


@functools.lru_cache(maxsize=64)
def _domain_layout(sizes: tuple):
    """:func:`domain_loss`'s arrays that depend on the block sizes alone:
    the sizes, and each row's block count signed by its domain. The
    sources' rows descend, and a negative count flips their sign exactly.
    Cached, read-only."""
    m = len(sizes) - 1
    per_block = [-m * s for s in sizes[:-1]] + [sizes[-1]]
    return (
        _frozen(np.array(sizes, dtype=np.float64)),
        _frozen(np.repeat(np.array(per_block, dtype=np.float64), sizes)),
    )


def domain_loss(out: np.ndarray, weights, sizes):
    """Weighted domain discrimination loss and its gradient.

    ``out`` stacks the discriminator outputs of the sources' rows,
    ``sizes[i]`` of them for source i, and then the ``sizes[-1]`` target
    rows; ``weights`` has one entry per row. Sources should be scored 1 and
    the target 0: mean over sources of E[-w log D] plus E[-w log(1 - D)] on
    the target. Discriminator outputs are clipped away from {0, 1} before
    the log, and a clipped row gets no gradient. Weights are taken as
    constants. Returns ``(value, grad)`` with ``grad`` shaped like ``out``.
    With a leading run axis on ``out`` and ``weights``, ``value`` holds one
    loss per run.
    """
    sizes = tuple(int(n) for n in sizes)
    m = len(sizes) - 1
    n = sum(sizes)
    w = np.asarray(weights, dtype=np.float64)
    lead = out.shape[:-2]
    if m < 1 or min(sizes) < 1 or out.shape[-2:] != (n, 1) or w.shape != (*lead, n):
        raise ValueError("need source and target blocks with one output and weight per row")
    total, grad = _domain_loss(out, w, sizes)
    return total if lead else float(total), grad


def _domain_loss(out, w, sizes: tuple):
    """:func:`domain_loss` without its checks."""
    sizes_f, counts = _domain_layout(sizes)
    m = len(sizes) - 1
    n_src = out.shape[-2] - sizes[-1]
    raw = out[..., 0]
    # np.clip's arithmetic without its Python-level wrapper
    d = np.minimum(np.maximum(raw, _CLIP), 1 - _CLIP)
    # probability given to each row's own domain
    q = np.concatenate([d[..., :n_src], 1.0 - d[..., n_src:]], axis=-1)
    means = block_sums(-w * np.log(q), sizes) / sizes_f
    means[..., :-1] /= m
    inside = (raw > _CLIP) & (raw < 1 - _CLIP)
    return _sum_terms(means), (inside * (w / (counts * q)))[..., None]


def grl_lambda(step: int, total_steps: int, max_lambda: float = 1.0, gamma: float = 10.0) -> float:
    """Ramp of the gradient-reversal coefficient from 0 toward max_lambda."""
    p = step / total_steps if total_steps > 0 else 1.0
    return max_lambda * (2.0 / (1.0 + math.exp(-gamma * p)) - 1.0)


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs. Architecture widths are deliberately small; the
    problems this targets are low-dimensional point clouds."""

    w0: float = 0.5
    epsilon: float = 0.1
    max_steps: int = 2500
    batch_size: int = 32
    lr_features: float = 0.1
    lr_classifier: float = 0.1
    lr_discriminator: float = 0.1
    grl_max_lambda: float = 1.0
    grl_gamma: float = 10.0
    weight_decay: float = 0.0
    feature_hidden: tuple[int, ...] = (64,)
    feature_dim: int = 32
    disc_hidden: tuple[int, ...] = (32,)
    seed: int = 0

    __post_init__ = typed_fields

    def violations(self) -> list[str]:
        out = []
        if not 0.0 <= self.w0 <= 1.0:
            out.append(f"w0 must lie in [0, 1], got {self.w0}")
        if not 0.0 <= self.epsilon <= 1.0:
            out.append(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.max_steps < 0:
            out.append(f"max_steps must be >= 0, got {self.max_steps}")
        if self.batch_size < 1:
            out.append(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("lr_features", "lr_classifier", "lr_discriminator"):
            if getattr(self, name) <= 0:
                out.append(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("grl_max_lambda", "grl_gamma", "weight_decay", "seed"):
            if getattr(self, name) < 0:
                out.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.feature_dim < 1:
            out.append(f"feature_dim must be >= 1, got {self.feature_dim}")
        for name in ("feature_hidden", "disc_hidden"):
            if any(h < 1 for h in getattr(self, name)):
                out.append(f"{name} widths must be >= 1, got {getattr(self, name)}")
        return out


def trace_columns(n_sources: int) -> tuple[str, ...]:
    """The columns of a run's trace, one row per step, as ``trace.csv``
    names them: the step, both losses, each source's batch error rate, the
    mean raw (pre-normalization) domain-loss weight of the source rows of
    common and of private classes and of the target rows (0 for a group
    with no rows, and for every group without D), and the gate (1 when the
    register took the step's margins, else 0)."""
    return (
        "step", "class_loss", "domain_loss", *(f"err_source_{i + 1}" for i in range(n_sources)),
        "mean_weight_common", "mean_weight_private", "mean_weight_target", "tmr_updated",
    )


# where training writes each of :func:`trace_columns`
_STEP, _CLASS_LOSS, _DOMAIN_LOSS, _ERRORS = 0, 1, 2, slice(3, -4)
_COMMON, _PRIVATE, _TARGET, _GATE = -4, -3, -2, -1


@dataclass
class TrainResult:
    """A trained run. ``trace`` is its ``(steps, columns)`` float64 view of
    its batch's trace, with the columns of :func:`trace_columns`."""

    feature_net: Mlp
    classifier: Mlp
    discriminator: Mlp
    register: TargetMarginRegister
    trace: np.ndarray


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss; carries a copy of the run's last
    finished trace row, or None if it diverged at step 0."""

    def __init__(self, step: int, last_report: np.ndarray | None):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
        self.last_report = last_report


def net_shapes(hp: Hyperparams, in_dim: int, n_classes: int):
    """The layer widths, input first, and activations of F, G and D."""
    return (
        ([in_dim, *hp.feature_hidden, hp.feature_dim], ["relu"] * len(hp.feature_hidden) + ["linear"]),
        ([hp.feature_dim, n_classes], ["linear"]),
        ([hp.feature_dim, *hp.disc_hidden, 1], ["relu"] * len(hp.disc_hidden) + ["sigmoid"]),
    )


def _build_nets(hp: Hyperparams, in_dim: int, n_classes: int):
    rngs = (np.random.default_rng(np.random.SeedSequence(hp.seed, spawn_key=(100 + tag,))) for tag in range(3))
    return tuple(Mlp(*shape, rng) for shape, rng in zip(net_shapes(hp, in_dim, n_classes), rngs))


class BatchLayout(NamedTuple):
    """What every run of one training batch shares. The runs' data, seeds
    and target classes may differ."""

    sub_batch_sizes: tuple[int, ...]
    input_width: int
    source_classes: int
    common_classes: tuple[int, ...]
    hyperparams: Hyperparams  # with seed 0


def batch_layout(partition: LabelPartition, hp: Hyperparams, lengths, input_width: int) -> BatchLayout:
    """The layout of a run of this label partition and these
    hyperparameters whose domains hold ``lengths`` rows, in domain order,
    of ``input_width`` columns each."""
    sizes = tuple(min(hp.batch_size, n) for n in lengths)
    return BatchLayout(sizes, input_width, partition.n_source_classes, partition.common_union, replace(hp, seed=0))


def check_labels(k: int, ds, partition: LabelPartition | None = None) -> None:
    """Refuse dataset ``k`` of a run when a label array it carries is not
    one label per row or, given the run's ``partition``, when its
    evaluation labels name a class outside the target label set."""
    for name in ("labels", "eval_labels"):
        if (labels := getattr(ds, name)) is not None and np.shape(labels) != (len(ds),):
            raise ValueError(f"dataset {k} has {name} of shape {np.shape(labels)}, not one per row ({len(ds)},)")
    if partition is not None and ds.eval_labels is not None:
        extra = set(np.unique(ds.eval_labels).tolist()) - set(partition.target_labels)
        if extra:
            raise ValueError(f"target evaluation labels {sorted(extra)} outside the target label set")


def _check_runs(runs, partition, method: str):
    """Validate a batch of runs, each against its own label partition (one
    for all runs, or a list of one per run), and hold them to the memory
    bound (:func:`cost_problems`); returns their hyperparameters and layout."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not runs:
        raise ValueError("need at least one run")
    partitions = [partition] * len(runs) if isinstance(partition, LabelPartition) else list(partition)
    if len(partitions) != len(runs):
        raise ValueError(f"expected one label partition per run, got {len(partitions)} for {len(runs)} runs")
    layouts = []
    for (datasets, run_hp), partition in zip(runs, partitions):
        if len(datasets) != partition.n_sources + 1:
            raise ValueError(
                f"expected {partition.n_sources} source datasets plus one target, got {len(datasets)}"
            )
        for k, ds in enumerate(datasets):
            if ds.features.ndim != 2 or ds.features.shape[1:] != datasets[0].features.shape[1:]:
                raise ValueError(f"dataset {k} has features of shape {ds.features.shape}, not 2-d as wide as dataset 0's")
            if len(ds) == 0:
                raise ValueError(f"dataset {k} is empty")
            check_labels(k, ds)
        if partition.source_union != tuple(range(partition.n_source_classes)):
            raise ValueError("source classes must form a contiguous range starting at 0")
        for i, ds in enumerate(datasets[:-1]):
            if ds.labels is None:
                raise ValueError(f"dataset {i} has no labels but is used as a source")
            extra = set(np.unique(ds.labels).tolist()) - set(partition.source_labels[i])
            if extra:
                raise ValueError(f"source {i + 1} carries labels {sorted(extra)} outside its label set")
        target = datasets[-1]
        if target.labels is not None:
            raise ValueError("the last dataset must be the unlabeled target")
        check_labels(len(datasets) - 1, target, partition)
        layouts.append(batch_layout(partition, run_hp, [len(ds) for ds in datasets], datasets[0].features.shape[1]))
    for r, layout in enumerate(layouts):
        if layout.hyperparams != layouts[0].hyperparams:
            raise ValueError("the runs of one batch may differ only in the seed")
        for name, mine, first in zip(BatchLayout._fields, layout, layouts[0]):
            if mine != first:
                raise ValueError(
                    f"the runs of one batch need one layout: run {r} has {name.replace('_', ' ')} {mine}, run 0 {first}"
                )
    for problem in cost_problems([(layout, sum(map(len, datasets)), (method,)) for layout, (datasets, _) in zip(layouts, runs)]):
        raise ValueError(problem)
    return runs[0][1], layouts[0]


def train(
    datasets,
    partition: LabelPartition,
    hp: Hyperparams,
    *,
    method: str = "uman",
) -> TrainResult:
    """Run the per-batch training loop for ``hp.max_steps`` steps.

    ``method`` is one of :data:`METHODS`. ``"uman"`` is the register-based
    scheme described in the module docstring. ``"source_only"`` drops the
    domain loss entirely (classification only; the register is never
    touched). ``"unweighted_adv"`` forces every domain-loss weight to 1,
    which turns the run into plain unweighted adversarial adaptation while
    leaving every other code path identical. This is :func:`train_runs`
    for one run, raising the error that ends a diverging run.
    """
    [result] = train_runs([(datasets, hp)], partition, method=method)
    if isinstance(result, Exception):
        raise result
    return result


@np.errstate(all="ignore")
def train_runs(runs, partition, *, method: str = "uman") -> list:
    """Train several runs of one method as one batch along a leading run axis.

    ``runs`` lists ``(datasets, hp)`` pairs, and ``partition`` is their
    label partition, or a list of one per run; each run is checked against
    its own. The runs must share one :class:`BatchLayout`; their data and
    target classes may differ. Each step runs each net forward once, each
    loss once, one backward pass and one SGD update per net for all runs
    together, and every run's result is bit for bit the one :func:`train`
    gives it alone. Returns one entry per run, in order: its
    :class:`TrainResult`, or the :class:`TrainingDiverged` or
    :class:`~uman.nn.NonFiniteGradientError` it ended with, either carrying
    the step in ``step``: a check between each backward pass and SGD
    records each run whose loss, or else gradient, is not finite, and the
    others go on. A run that ended keeps its row of the run axis, which
    computes on unread to the end of the batch, as every operation of a
    step is per run. Every outcome is built once, when the batch ends:
    after the last chunk's flush, or after the current chunk's once every
    run has ended, so a diverged run's last trace row is complete. A
    :class:`_Batch` holds the batch's state, its trace one float64 array of
    ``(runs, max_steps, columns)``, the columns of :func:`trace_columns`,
    and each net's :class:`~uman.nn.Plan`. The steps run with numpy's
    floating-point warnings off: nothing reads the values of a run that
    overflows.
    """
    hp, layout = _check_runs(runs, partition, method)
    lrs = (hp.lr_features, hp.lr_classifier, hp.lr_discriminator)
    batch = _Batch(runs, layout, method)
    # the nets with a plan: F, G and, when adversarial, D. Without the domain
    # loss D is outside the graph; stepping it would still apply weight decay
    stepped = [plan.net for plan in batch.plans if plan]
    for step in range(hp.max_steps):
        if (j := step % CHUNK) == 0:
            batch.draw(step)
        acts = _forward(batch.plans, batch.x[j])
        weights = _weigh(batch, j, acts[1][-1])
        eg, ed, g_logits, g_d = _losses(acts, batch.at_labels[j], weights, batch.sizes)
        batch.trace[:, step, _CLASS_LOSS], batch.trace[:, step, _DOMAIN_LOSS] = eg, ed
        _backward(batch.plans, acts[3], g_logits, g_d, step, hp)

        # one check of every run's losses and gradients before any parameter
        # moves, of the runs not yet ended: a failed run is recorded with its
        # gradient's fault, or None when its loss is not finite. An ended
        # run's gradients are zeroed first, so each net's one whole-buffer
        # check passes over its row
        if batch.ended:
            rows = list(batch.ended)
            for layer in (layer for net in stepped for layer in net.layers):
                layer.gw[rows] = layer.gb[rows] = 0.0
        failed = gradient_faults(*stepped)
        losses = batch.trace[:, step, _CLASS_LOSS : _DOMAIN_LOSS + 1]
        if not np.isfinite(losses).all():
            failed.update((r, None) for r in np.flatnonzero(~np.isfinite(losses).all(axis=-1)).tolist())
        if failed:
            for r, fault in failed.items():
                batch.ended.setdefault(r, (step, fault))
            if len(batch.ended) == len(runs):
                batch.flush(j + 1)
                return batch.results()
        for net, lr in zip(stepped, lrs):
            sgd_update(net, lr, hp.weight_decay)
        if j == CHUNK - 1 or step == hp.max_steps - 1:
            batch.flush(j + 1)
    return batch.results()


# steps per batch draw, and per pass of the trace work no update reads
CHUNK = 16


def _chunk_stream(runs, sizes: tuple, labelled: int = -1):
    """The rows ``runs``, a list of ``(datasets, seed)`` pairs, draw,
    :data:`CHUNK` steps per item ``(x, labels)``, two buffers allocated once
    and refilled in place: ``x[s, r]`` stacks run r's sub-batches of step s,
    ``sizes[k]`` rows of its dataset k in dataset order, and ``labels[s, r]``
    the labels of the rows of its datasets before the slice bound
    ``labelled`` (by default all but the last, the unlabeled target). Each
    (run, domain) pair shuffles one permutation per epoch from its own
    stream, seeded by the run's seed and the domain's id, and drops the
    ragged tail. One gather per pair per chunk reads the dataset's own
    arrays, so runs may share a dataset."""
    bounds, labelled = np.cumsum([0, *sizes]).tolist(), len(sizes[:labelled])
    x = np.empty((CHUNK, len(runs), bounds[-1], runs[0][0][0].features.shape[1]))
    labels = np.empty((CHUNK, len(runs), bounds[labelled]), dtype=np.int64)

    def index_stream(ds, seed, size):
        # the epochs' tail-less permutations end to end, a chunk of sub-batches at a time
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ds.domain_id,)))
        left, n = np.empty(0, dtype=np.int64), len(ds)
        while True:
            while len(left) < CHUNK * size:
                left = np.concatenate([left, rng.permutation(n)[: n - n % size]])
            yield left[: CHUNK * size].reshape(CHUNK, size)
            left = left[CHUNK * size :]

    def refills(streams):
        while True:
            for r, run in enumerate(streams):
                for k, (ds, stream) in enumerate(run):
                    idx = next(stream)
                    x[:, r, bounds[k] : bounds[k + 1]] = ds.features[idx]
                    if k < labelled:
                        labels[:, r, bounds[k] : bounds[k + 1]] = ds.labels[idx]
            yield x, labels

    return refills([[(ds, index_stream(ds, seed, size)) for ds, size in zip(datasets, sizes)] for datasets, seed in runs])


class _Batch:
    """A method batch's training state, built once per :func:`train_runs`.

    Its constants: the method, the sub-batch sizes of its layout
    (``sizes``), the common-class mask and the gate's epsilon. Every run's
    row of the run axis, kept from the first step to the last, a run's
    row ``r`` being its entry of ``runs``: the stacked nets, their plans,
    the register and the trace. ``ended`` maps the row of each failed run
    to its step and its gradient fault (None for a non-finite loss), from
    which :meth:`results` builds its error. And the current chunk of up to
    :data:`CHUNK` steps from step ``first``, in buffers allocated once that
    each draw refills: the plans' rows drawn, their labels and, in the
    ablations, G's outputs; and the arrays derived from the labels.

    In ``source_only`` and ``unweighted_adv`` no parameter update reads the
    source error rates, the margins, the gate or the register, so a step
    files only G's outputs, and :meth:`flush` derives the rest once for
    all the chunk's steps: it writes the error rates, gates and weight
    means into the trace and adds the gated margins to the register. A
    ``uman`` step reads its register, so :func:`_weigh` writes its trace
    row step by step.
    """

    def __init__(self, runs, layout: BatchLayout, method: str):
        hp, n_classes = runs[0][1], layout.source_classes
        self.method, self.sizes, self.epsilon = method, layout.sub_batch_sizes, hp.epsilon
        self.common_mask = np.zeros(n_classes, dtype=bool)
        self.common_mask[list(layout.common_classes)] = True
        built = (_build_nets(run_hp, layout.input_width, n_classes) for _, run_hp in runs)
        self.nets = [Mlp.stack(role) for role in zip(*built)]
        self.register = TargetMarginRegister(n_classes, runs=len(runs))
        self.ended: dict = {}  # row -> (step, gradient fault or None) of each failed run
        self.trace = np.zeros((len(runs), hp.max_steps, len(trace_columns(len(self.sizes) - 1))))
        self.trace[..., _STEP] = np.arange(hp.max_steps)
        rows, blocks = _plan_rows(self.sizes, method)
        self.plans = [  # F's, G's and, when adversarial, D's (else None), over new buffers
            None if b is None else Plan(net, np.empty((len(runs), rows, net.in_dim)), b) for net, b in zip(self.nets, blocks)
        ]
        fed = len(blocks[0])  # the domains the nets read: without D, the sources alone
        seeds = (int(np.random.SeedSequence(run_hp.seed, spawn_key=(200,)).generate_state(1)[0]) for _, run_hp in runs)
        self._draws = _chunk_stream([(ds[:fed], s) for (ds, _), s in zip(runs, seeds)], self.sizes[:fed], len(self.sizes) - 1)
        self.logits = None if method == "uman" else np.empty((CHUNK, *self.plans[1].acts[-1].shape))
        self.ones = np.ones(self.plans[2].acts[-1].shape[:-1]) if method == "unweighted_adv" else None

    def draw(self, first: int):
        """Refill the chunk's buffers from step ``first`` on; derive its label arrays."""
        (self.x, self.labels), self.first = next(self._draws), first
        runs, n_src = self.labels.shape[1:]
        self.at_labels = _label_base((runs,), n_src, len(self.common_mask)) + self.labels
        self.in_common = self.common_mask[self.labels]
        self.n_commons = np.add.reduce(self.in_common, axis=-1).tolist()

    def flush(self, stop: int):
        """Write the ablations' trace values of the chunk's steps before
        position ``stop``, and add those steps' gated margins to the
        register. A chunk flushes once, when its last step or the batch
        ends."""
        if self.method == "uman":
            return
        errors, gate, _, _ = self.gate(0, stop, self.logits[:stop])
        steps = slice(self.first, self.first + stop)
        self.trace[:, steps, _ERRORS] = errors.swapaxes(0, 1)
        if self.method == "unweighted_adv":
            # a group of ones has a mean raw weight of exactly 1, or 0 if empty
            in_common = self.in_common[:stop].swapaxes(0, 1)
            self.trace[:, steps, _COMMON] = in_common.any(axis=-1)
            self.trace[:, steps, _PRIVATE] = ~in_common.all(axis=-1)
            self.trace[:, steps, _TARGET] = 1.0
            self.trace[:, steps, _GATE] = gate.T

    def gate(self, lo: int, hi: int, logits):
        """Each run's source error rates in the chunk's steps ``lo`` to
        ``hi`` - 1, from G's outputs ``logits`` of those steps along a leading
        step axis; and, when adversarial, its gates (whether its register
        takes the step's margins: every error rate below epsilon) and its
        target rows' pseudo-labels and margins (else no gate opens, and
        None). The register takes the gated margin vectors in step order."""
        labels, sizes = self.labels[lo:hi], self.sizes[:-1]
        n_src = labels.shape[-1]
        errors = block_sums(logits[..., :n_src, :].argmax(axis=-1) != labels, sizes) / sizes
        if self.method not in ADVERSARIAL:
            return errors, np.zeros(errors.shape[:-1], dtype=bool), None, None
        # detached predictions drive margins, the gate, and all weights
        pseudo, margins = batch_margins(softmax(logits[..., n_src:, :]))
        gate = np.maximum.reduce(errors, axis=-1) < self.epsilon
        if gate.any():
            self.register.add_steps(*margin_vector(pseudo, margins, self.register.n_classes), gate)
        return errors, gate, pseudo, margins

    def results(self) -> list:
        """Every run's outcome, built once the batch ends: a
        :class:`TrainResult`, or for a run in ``ended`` the error it ended
        with at its step, a :class:`TrainingDiverged` carrying a copy of its
        last finished trace row when its loss was not finite, else a
        :class:`~uman.nn.NonFiniteGradientError` with its gradient's fault."""
        return [self._outcome(r) for r in range(len(self.trace))]

    def _outcome(self, r: int):
        if r not in self.ended:
            return TrainResult(*(net.take(r) for net in self.nets), self.register.take(r), self.trace[r])
        step, fault = self.ended[r]
        if fault is None:
            return TrainingDiverged(step, self.trace[r, step - 1].copy() if step else None)
        error = NonFiniteGradientError(fault)
        error.step = step
        return error


def _plan_rows(sizes: tuple, method: str):
    """The rows of every net's plan, and the blocks of them that F, G and D
    each pass back (None for D in a method that does not train it). The
    source sub-batches and, when D takes part, the target rows go through
    each net as one stack of blocks; without D nothing reads the target's
    features, and G's gradient covers only the source blocks either way."""
    if method in ADVERSARIAL:
        return sum(sizes), (sizes, sizes[:-1], sizes)
    return sum(sizes[:-1]), (sizes[:-1], sizes[:-1], None)


def step_floats(layout: BatchLayout, method: str) -> int:
    """The float64 values one run of a ``method`` batch of this layout
    holds in its step buffers, as :class:`_Batch` allocates them, once: each
    net's plan with its backward buffers, and a chunk of the plans' rows,
    drawn and, in the ablations, G's outputs."""
    rows, blocks = _plan_rows(layout.sub_batch_sizes, method)
    shapes = net_shapes(layout.hyperparams, layout.input_width, layout.source_classes)
    plans = sum(plan_nbytes(*shape, rows, b) for shape, b in zip(shapes, blocks) if b is not None)
    outputs = 0 if method == "uman" else layout.source_classes
    return plans // 8 + CHUNK * rows * (layout.input_width + outputs)


# the most float64 values the runs of one method batch may hold in their
# datasets, parameters, step buffers and traces: 800 MB
MAX_RUN_FLOATS = 10**8


def run_floats(layout: BatchLayout, rows: int, methods) -> tuple[int, int, int, int, int]:
    """What one run of this layout holds, in float64 values: its ``rows``
    dataset rows and their columns, the parameters of its nets, the step
    buffers of the largest of its ``methods``' batches (:func:`step_floats`),
    and its trace's rows and columns (one row per step)."""
    shapes = net_shapes(layout.hyperparams, layout.input_width, layout.source_classes)
    params = sum((fan_in + 1) * fan_out for widths, _ in shapes for fan_in, fan_out in zip(widths, widths[1:]))
    buffers = max(step_floats(layout, method) for method in methods)
    return rows, params, buffers, layout.hyperparams.max_steps, len(trace_columns(len(layout.sub_batch_sizes) - 1))


def cost_problems(runs) -> list[str]:
    """Why a method batch would not fit in memory: its runs' datasets (rows
    times columns), parameters, step buffers and traces (steps times
    columns) together may hold at most :data:`MAX_RUN_FLOATS` float64
    values. ``runs`` lists each run's ``(layout, rows, methods)`` of
    :func:`run_floats`, then its data's :func:`~uman.synth.rotation_floats`
    if yet to be generated: :func:`uman.cli._plan` costs the batches it
    packs, and :func:`train_runs` its own runs before it allocates anything."""
    terms: dict[tuple, int] = {}  # (floats, breakdown) of one run: runs
    for layout, rows, methods, *rotation in runs:
        rows, params, buffers, steps, columns = run_floats(layout, rows, methods)
        dim, rotation = layout.input_width, sum(rotation)
        term = (
            rows * dim + params + buffers + steps * columns + rotation,
            f"{rows:,} dataset rows x {dim} columns + {params:,} parameters + {buffers:,} step buffer floats"
            f" + {steps:,} trace rows x {columns} columns" + (f" + {rotation:,} rotation floats" if rotation else ""),
        )
        terms[term] = terms.get(term, 0) + 1
    total = sum(floats * runs for (floats, _), runs in terms.items())
    if total <= MAX_RUN_FLOATS:
        return []
    parts = " + ".join(f"{runs} run{'s' if runs > 1 else ''} x ({text})" for (_, text), runs in terms.items())
    return [f"a method batch would hold {total:,} floats ({parts}), above the limit of {MAX_RUN_FLOATS:,}"]


def _forward(plans, x):
    """The activations of F, G and, with a D plan, D (else None), in their
    plans' buffers, and the row norms of F's outputs."""
    f_plan, g_plan, d_plan = plans
    f_acts = f_plan.forward(x)
    norms = row_norms(f_acts[-1])
    feats = l2_normalize(f_acts[-1], norms)
    g_acts = g_plan.forward(feats)
    d_acts = None if d_plan is None else d_plan.forward(feats)
    return [f_acts, g_acts, d_acts, norms]


def _weigh(batch: _Batch, j: int, logits):
    """The domain-loss weights of step ``j`` of the batch's chunk (None
    without D; every weight is 1 in unweighted_adv). The ablations file G's
    outputs in the chunk; a uman step gates its margins here
    (:meth:`_Batch.gate`), computes each run's weights and writes its trace
    values: the error rates, the gate, and the mean raw weight of its
    common-class and of its private-class source rows (0 for an empty
    group) and of its target rows."""
    if batch.method != "uman":
        batch.logits[j] = logits
        return batch.ones
    errors, gate, pseudo, margins = batch.gate(j, j + 1, logits[None])
    n_src = batch.labels.shape[-1]
    raw_ws, raw_wt = sample_weights(batch.register, batch.labels[j], pseudo[0], margins[0])
    weights = np.concatenate([normalize_weights(raw_ws), normalize_weights(raw_wt)], axis=-1)
    trace, step = batch.trace, batch.first + j
    trace[:, step, _ERRORS], trace[:, step, _GATE] = errors[0], gate[0]
    trace[:, step, _TARGET] = _mean(raw_wt)
    for r, (ws, common, n_common) in enumerate(zip(raw_ws, batch.in_common[j], batch.n_commons[j])):
        if n_common:
            trace[r, step, _COMMON] = _mean(ws[common])
        if n_common < n_src:
            trace[r, step, _PRIVATE] = _mean(ws[~common])
    return weights


def _losses(acts, at_labels, weights, sizes):
    """Each run's classification and domain loss (0 without D), and their
    gradients of G's and of D's outputs (None without D)."""
    g_acts, d_acts = acts[1:3]
    eg, g_logits = _classification_loss(g_acts[-1], at_labels, sizes[:-1])
    if d_acts is None:
        return eg, 0.0, g_logits, None
    ed, g_d = _domain_loss(d_acts[-1], weights, sizes)
    return eg, ed, g_logits, g_d


def _backward(plans, norms, g_logits, g_d, step: int, hp: Hyperparams):
    """One backward pass realizes the min-max: D descends the domain loss,
    and the gradient-reversal layer hands the features D's input gradient
    times -lambda, to which G's input gradient is added; without a D plan
    only the source rows have a gradient. ``norms`` are F's outputs' row
    norms from :func:`_forward`."""
    f_plan, g_plan, d_plan = plans
    g_src = g_plan.backward(g_logits, input_grad=True)
    if d_plan is None:
        g_feats = g_src
    else:
        lam = grl_lambda(step, hp.max_steps, hp.grl_max_lambda, hp.grl_gamma)
        g_feats = -lam * d_plan.backward(g_d, input_grad=True)
        g_feats[:, : g_src.shape[1]] += g_src
    f_plan.backward(l2_normalize_backward(f_plan.acts[-1], g_feats, norms))


@np.errstate(all="ignore")
def extract_features(feature_net: Mlp, x: np.ndarray) -> np.ndarray:
    """Unit-norm features as consumed by the classifier and discriminator.
    A net whose outputs overflow, as one trained at a huge learning rate
    may without its losses leaving the finite range, gives the zero or NaN
    rows numpy computes for them, without a warning."""
    return l2_normalize(forward_mlp(feature_net, x)[-1])


@np.errstate(all="ignore")
def predict_classes(feature_net: Mlp, classifier: Mlp, x: np.ndarray, w0: float) -> np.ndarray:
    """Batch inference: argmax class where the margin clears ``w0`` (as
    :class:`Hyperparams` takes it), else UNKNOWN; quiet on overflow as :func:`extract_features` is."""
    w0 = Hyperparams(w0=w0).w0
    probs = softmax(forward_mlp(classifier, extract_features(feature_net, x))[-1])
    pseudo, margins = batch_margins(probs)
    return np.where(margins >= w0, pseudo, UNKNOWN)
