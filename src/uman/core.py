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
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .labelspace import LabelPartition
from .nn import (
    Mlp,
    NonFiniteGradientError,
    Plan,
    backward_mlp,
    block_sums,
    forward_mlp,
    gradient_faults,
    l2_normalize,
    l2_normalize_backward,
    log_softmax,
    row_norms,
    sgd_update,
    softmax,
)
from .synth import run_batches

__all__ = [
    "UNKNOWN",
    "METHODS",
    "batch_margins",
    "margin_vector",
    "TargetMarginRegister",
    "sample_weights",
    "normalize_weights",
    "classification_loss",
    "domain_loss",
    "grl_lambda",
    "Hyperparams",
    "LossReport",
    "TrainResult",
    "TrainingDiverged",
    "BatchLayout",
    "batch_layout",
    "train",
    "train_runs",
    "extract_features",
    "predict_classes",
]

UNKNOWN = -1

# the full method and its two ablations: classification only, and
# adversarial alignment with every domain-loss weight forced to 1
METHODS = ("uman", "source_only", "unweighted_adv")


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
    every run is grouped on its own.
    """
    pseudo = np.asarray(pseudo)
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
        """Add one margin vector per run, checked to lie in [0, 1]. Training
        adds the margins it computes itself, which lie there by
        construction, through :meth:`add_steps` unchecked and gated: a
        ``uman`` step one step at a time, the ablations a chunk of steps at
        once."""
        vector = np.asarray(vector, dtype=np.float64)
        present = np.asarray(present, dtype=bool)
        if vector.shape != self._sums.shape or present.shape != self._sums.shape:
            raise ValueError(f"expected vectors of length {self.n_classes}")
        if np.minimum.reduce(vector, axis=None) < -1e-12 or np.maximum.reduce(vector, axis=None) > 1 + 1e-12:
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

    def take(self, runs):
        """Copy of the given runs: a list keeps the run axis, an integer
        gives that run's own register."""
        out = TargetMarginRegister(self.n_classes)
        out._sums, out._counts = self._sums[runs].copy(), self._counts[runs].copy()
        out.step = self.step[runs].copy() if isinstance(runs, list) else int(self.step[runs])
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
    and ``labels`` has one entry per source row. Rows past the sources (the
    target's, in a training step) are not classified. A row of source i
    weighs 1/(M * sizes[i]) for M sources. Returns ``(value, grad)``, where
    ``grad`` is the gradient of the value with respect to the source rows.
    With a leading run axis on ``logits`` and ``labels``, ``value`` holds
    one loss per run.
    """
    sizes = tuple(int(n) for n in sizes)
    labels = np.asarray(labels, dtype=np.int64)
    *lead, n_rows, k = logits.shape
    n, m = sum(sizes), len(sizes)
    if m == 0 or min(sizes) < 1 or labels.shape != (*lead, n) or n_rows < n:
        raise ValueError("need nonempty source blocks with one label per source row")
    if np.minimum.reduce(labels, axis=None) < 0 or np.maximum.reduce(labels, axis=None) >= k:
        raise ValueError(f"labels outside [0, {k})")
    value, grad = _classification_loss(logits, _label_base(tuple(lead), n, k) + labels, sizes)
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
        for name in ("grl_max_lambda", "weight_decay", "seed"):
            if getattr(self, name) < 0:
                out.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.feature_dim < 1:
            out.append(f"feature_dim must be >= 1, got {self.feature_dim}")
        for name in ("feature_hidden", "disc_hidden"):
            if any(h < 1 for h in getattr(self, name)):
                out.append(f"{name} widths must be >= 1, got {getattr(self, name)}")
        return out


@dataclass(frozen=True)
class LossReport:
    """Per-step trace row. Weight summaries are the raw (pre-normalization)
    values; groups with no samples in the batch report 0."""

    step: int
    class_loss: float
    domain_loss: float
    source_errors: tuple[float, ...]
    mean_weight_common: float
    mean_weight_private: float
    mean_weight_target: float
    tmr_updated: bool = False


@dataclass
class TrainResult:
    feature_net: Mlp
    classifier: Mlp
    discriminator: Mlp
    register: TargetMarginRegister
    trace: list[LossReport] = field(default_factory=list)


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss; carries the last finite trace row."""

    def __init__(self, step: int, last_report: LossReport | None):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
        self.last_report = last_report


def _build_nets(hp: Hyperparams, in_dim: int, n_classes: int):
    def rng(tag):
        return np.random.default_rng(np.random.SeedSequence(hp.seed, spawn_key=(100 + tag,)))

    f_sizes = [in_dim, *hp.feature_hidden, hp.feature_dim]
    feature_net = Mlp(f_sizes, ["relu"] * len(hp.feature_hidden) + ["linear"], rng(0))
    classifier = Mlp([hp.feature_dim, n_classes], ["linear"], rng(1))
    d_sizes = [hp.feature_dim, *hp.disc_hidden, 1]
    discriminator = Mlp(d_sizes, ["relu"] * len(hp.disc_hidden) + ["sigmoid"], rng(2))
    return feature_net, classifier, discriminator


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


def _check_runs(runs, partition, method: str):
    """Validate a batch of runs, each against its own label partition (one
    for all runs, or a list of one per run); returns the hyperparameters and
    the layout the runs share."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not runs:
        raise ValueError("need at least one run")
    partitions = [partition] * len(runs) if isinstance(partition, LabelPartition) else list(partition)
    if len(partitions) != len(runs):
        raise ValueError(f"expected one label partition per run, got {len(partitions)} for {len(runs)} runs")
    layouts = []
    for (datasets, run_hp), partition in zip(runs, partitions):
        problems = run_hp.violations()
        if problems:
            raise ValueError("; ".join(problems))
        if len(datasets) != partition.n_sources + 1:
            raise ValueError(
                f"expected {partition.n_sources} source datasets plus one target, got {len(datasets)}"
            )
        if partition.source_union != tuple(range(partition.n_source_classes)):
            raise ValueError("source classes must form a contiguous range starting at 0")
        for i, ds in enumerate(datasets[:-1]):
            if ds.labels is None:
                raise ValueError(f"dataset {i} has no labels but is used as a source")
            extra = set(np.unique(ds.labels)) - set(partition.source_labels[i])
            if extra:
                raise ValueError(f"source {i + 1} carries labels {sorted(extra)} outside its label set")
        target = datasets[-1]
        if target.labels is not None:
            raise ValueError("the last dataset must be the unlabeled target")
        if target.eval_labels is not None:
            extra = set(np.unique(target.eval_labels)) - set(partition.target_labels)
            if extra:
                raise ValueError(f"target evaluation labels {sorted(extra)} outside the target label set")
        layouts.append(batch_layout(partition, run_hp, [len(ds) for ds in datasets], datasets[0].features.shape[1]))
    for r, layout in enumerate(layouts):
        if layout.hyperparams != layouts[0].hyperparams:
            raise ValueError("the runs of one batch may differ only in the seed")
        for name, mine, first in zip(BatchLayout._fields, layout, layouts[0]):
            if mine != first:
                raise ValueError(
                    f"the runs of one batch need one layout: run {r} has {name.replace('_', ' ')} {mine}, run 0 {first}"
                )
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
    :class:`TrainResult`, or the
    :class:`TrainingDiverged` or :class:`~uman.nn.NonFiniteGradientError` it
    ended with, either carrying the step in ``step``. A run that diverges
    leaves the batch at that step, before any of its parameters move, and
    the other runs go on; a run whose loss is not finite leaves before the
    step's backward pass, as it does alone. Batches are drawn, and trace
    rows built, a :class:`_Chunk` of steps at a time. The steps run with
    numpy's floating-point warnings off: a run that overflows ends with
    the error above, and nothing else reads its values.
    """
    hp, layout = _check_runs(runs, partition, method)
    adversarial = method != "source_only"
    n_stepped = 3 if adversarial else 2  # F, G and, when adversarial, D
    lrs = (hp.lr_features, hp.lr_classifier, hp.lr_discriminator)

    n_classes = layout.source_classes
    built = (_build_nets(run_hp, layout.input_width, n_classes) for _, run_hp in runs)
    nets = [Mlp.stack(role) for role in zip(*built)]
    common_mask = np.zeros(n_classes, dtype=bool)
    common_mask[list(layout.common_classes)] = True

    batch_seeds = [
        int(np.random.SeedSequence(run_hp.seed, spawn_key=(200,)).generate_state(1)[0])
        for _, run_hp in runs
    ]
    batches = run_batches(
        [(datasets, seed) for (datasets, _), seed in zip(runs, batch_seeds)], hp.batch_size, steps=CHUNK
    )

    stack = _Stack(nets, TargetMarginRegister(n_classes, runs=len(runs)), len(runs))
    for step in range(hp.max_steps):
        if (j := step % CHUNK) == 0:
            chunk = _Chunk(step, next(batches), stack.ids, method, common_mask, hp.epsilon)
        stack.plans = stack.plans or _plans(stack.nets, chunk.sizes, adversarial, len(stack.ids))
        acts = _forward(stack.nets, stack.plans, chunk.x[j], chunk.sizes, adversarial)
        weights = _weigh(method, chunk, j, acts[1][-1], stack.register)
        eg, ed, g_logits, g_d = _losses(acts, chunk.at_labels[j], weights, chunk.sizes)
        chunk.file(j, eg, ed)

        # a run whose loss is not finite stops here, before its backward, as
        # it would alone; its last trace row is the previous step's
        if not all(map(math.isfinite, eg + ed)):
            chunk.flush(stack, stop=j)
            failed = {
                r: TrainingDiverged(step, stack.last_row(r))
                for r, (c_loss, d_loss) in enumerate(zip(eg, ed))
                if not (math.isfinite(c_loss) and math.isfinite(d_loss))
            }
            if (keep := stack.drop(failed, chunk)) is None:
                return stack.outcomes
            acts, g_logits, g_d = _take((acts, g_logits, g_d), keep)
            stack.plans = _plans(stack.nets, chunk.sizes, adversarial, len(keep), acts)

        _backward(stack.nets, stack.plans, acts, g_logits, g_d, chunk.sizes, step, hp)

        # one check of every gradient of every run before any parameter
        # moves; D is outside the graph in classification-only runs, and
        # stepping it there would still apply weight decay
        failed = {r: NonFiniteGradientError(m) for r, m in gradient_faults(*stack.nets[:n_stepped]).items()}
        if failed:
            for error in failed.values():
                error.step = step
            if stack.drop(failed, chunk) is None:
                return stack.outcomes
        for net, lr in zip(stack.nets[:n_stepped], lrs):
            sgd_update(net, lr, hp.weight_decay)
        if j == CHUNK - 1 or step == hp.max_steps - 1:
            chunk.flush(stack)
            chunk = None  # freed before the next chunk is drawn
    return stack.results()


class _Stack:
    """The runs of a batch that still train, stacked along the run axis:
    the entry of ``runs`` each row trains (``ids``), their nets, their
    register and the nets' plans (None until the next step builds them).
    Traces and outcomes are kept by entry of ``runs``."""

    def __init__(self, nets, register: TargetMarginRegister, n_runs: int):
        self.ids, self.nets, self.register, self.plans = list(range(n_runs)), nets, register, None
        self.outcomes: list = [None] * n_runs
        self.traces: list[list[LossReport]] = [[] for _ in range(n_runs)]

    def last_row(self, r: int) -> LossReport | None:
        trace = self.traces[self.ids[r]]
        return trace[-1] if trace else None

    def drop(self, failed: dict, chunk: _Chunk) -> list | None:
        """Record the errors of the runs at the ``failed`` positions and
        keep the others, with their rows of the chunk's draws; returns the
        positions kept, or None if no run is left. The chunk's pending
        steps flush first, this one included: a failed run's trace is not
        read again."""
        chunk.flush(self)
        for r, error in failed.items():
            self.outcomes[self.ids[r]] = error
        keep = [r for r in range(len(self.ids)) if r not in failed]
        if not keep:
            return None
        chunk.take(keep)
        self.ids, self.nets = [self.ids[r] for r in keep], [net.take(keep) for net in self.nets]
        self.register, self.plans = self.register.take(keep), None
        return keep

    def results(self) -> list:
        """Every run's outcome, the runs that trained to the end included."""
        for r, i in enumerate(self.ids):
            self.outcomes[i] = TrainResult(*(net.take(r) for net in self.nets), self.register.take(r), self.traces[i])
        return self.outcomes


def _take(arrays, keep):
    if isinstance(arrays, (list, tuple)):
        return type(arrays)(_take(a, keep) for a in arrays)
    return None if arrays is None else arrays[keep]


# steps per batch draw, and per pass of the trace work no update reads
CHUNK = 16


class _Chunk:
    """Up to :data:`CHUNK` consecutive steps of a batch: their draws, the
    arrays derived from the labels once for all of them, and what each step
    files for its trace rows until :meth:`flush` builds them.

    In ``source_only`` and ``unweighted_adv`` no parameter update reads the
    source error rates, the margins, the gate or the register, so a step
    files only G's outputs and its losses, and the flush derives the rest,
    and adds the gated margins to the register, once for every pending
    step. A ``uman`` step reads its register, so :func:`_weigh` files its
    trace values step by step.
    """

    def __init__(self, first: int, draws, ids, method: str, common_mask, epsilon: float):
        x, labels, self.sizes = draws
        if len(ids) < x.shape[1]:  # runs that failed draw on, unused
            x, labels = x[:, ids], labels[:, ids]
        self.first, self.start, self.stop = first, 0, 0
        self.method, self.common_mask, self.epsilon = method, common_mask, epsilon
        self.losses, self.marks = [None] * CHUNK, [None] * CHUNK
        self._hold(x, labels)

    def _hold(self, x, labels):
        """Keep the draws of the runs in the stack, with their label arrays
        and the buffers of their layout."""
        self.x, self.labels = x, labels
        runs, n_src = labels.shape[1:]
        self.at_labels = _label_base((runs,), n_src, len(self.common_mask)) + labels
        self.in_common = self.common_mask[labels]
        self.n_commons = np.add.reduce(self.in_common, axis=-1).tolist()
        rows = x.shape[2] if self.method == "unweighted_adv" else n_src
        self.logits = None if self.method == "uman" else np.empty((CHUNK, runs, rows, len(self.common_mask)))
        self.ones = np.ones(x.shape[1:3]) if self.method == "unweighted_adv" else None

    def take(self, keep):
        """Keep the given runs of the stack; nothing may be pending."""
        self._hold(self.x[:, keep], self.labels[:, keep])

    def file(self, j: int, eg, ed):
        self.losses[j], self.stop = (eg, ed), j + 1

    def flush(self, stack: _Stack, stop=None):
        """Append the rows of the pending steps before position ``stop``
        (every filed step by default) to the traces of the stack's runs."""
        lo, hi = self.start, self.stop if stop is None else stop
        if lo == hi:
            return
        self.start = hi
        marks = self.marks[lo:hi] if self.method == "uman" else self._marks(lo, hi, stack.register)
        steps = range(self.first + lo, self.first + hi)
        for step, (eg, ed), (errors, gate, means) in zip(steps, self.losses[lo:hi], marks):
            for i, c_loss, d_loss, err, updated, weight_means in zip(stack.ids, eg, ed, errors, gate, means):
                stack.traces[i].append(LossReport(step, c_loss, d_loss, tuple(err), *weight_means, tmr_updated=updated))

    def _marks(self, lo: int, hi: int, register: TargetMarginRegister):
        """The ablations' source error rates, gates and trace weights of
        steps ``lo`` to ``hi`` - 1."""
        errors, gate, _, _ = self.gate(lo, hi, self.logits[lo:hi], register)
        if self.method == "source_only":
            means = [[(0.0, 0.0, 0.0)] * errors.shape[1]] * (hi - lo)
        else:
            # a group of ones has a mean raw weight of exactly 1, or 0 if empty
            n_src = self.labels.shape[-1]
            means = [
                [(1.0 if n_common else 0.0, 1.0 if n_common < n_src else 0.0, 1.0) for n_common in step]
                for step in self.n_commons[lo:hi]
            ]
        return zip(errors.tolist(), gate.tolist(), means)

    def gate(self, lo: int, hi: int, logits, register: TargetMarginRegister):
        """Each run's source error rates in steps ``lo`` to ``hi`` - 1, from
        G's outputs ``logits`` of those steps along a leading step axis; and,
        when adversarial, its gates (whether its register takes the step's
        margins: every error rate below epsilon) and its target rows'
        pseudo-labels and margins (else no gate opens, and None). The
        register takes the gated margin vectors in step order."""
        labels, sizes = self.labels[lo:hi], self.sizes[:-1]
        n_src = labels.shape[-1]
        errors = block_sums(logits[..., :n_src, :].argmax(axis=-1) != labels, sizes) / sizes
        if self.method == "source_only":
            return errors, np.zeros(errors.shape[:-1], dtype=bool), None, None
        # detached predictions drive margins, the gate, and all weights
        pseudo, margins = batch_margins(softmax(logits[..., n_src:, :]))
        gate = np.maximum.reduce(errors, axis=-1) < self.epsilon
        if gate.any():
            register.add_steps(*margin_vector(pseudo, margins, register.n_classes), gate)
        return errors, gate, pseudo, margins


def _plans(nets, sizes, adversarial: bool, runs: int, acts=(None, None, None)) -> list:
    """The plans of F, G and, when adversarial, D (else None) for a step of
    ``runs`` runs, over the activations in ``acts`` that :func:`_forward`
    returned, or over new buffers."""
    n = sum(sizes) if adversarial else sum(sizes[:-1])
    blocks = (sizes if adversarial else sizes[:-1], sizes[:-1], sizes)
    return [
        Plan(net, net_acts or [np.empty((runs, n, net.in_dim))], net_blocks) if adversarial or k < 2 else None
        for k, (net, net_acts, net_blocks) in enumerate(zip(nets, acts, blocks))
    ]


def _forward(nets, plans, x, sizes, adversarial: bool):
    """The activations of F, G and, when adversarial, D (else None), in
    their plans' buffers, and the row norms of F's outputs. The source
    sub-batches and, when D takes part, the target rows go through each net
    as one stack of blocks; without D nothing reads the target's features,
    and G's gradient covers only the source blocks either way."""
    n_src = sum(sizes[:-1])
    f_in, f_blocks = (x, sizes) if adversarial else (x[:, :n_src], sizes[:-1])
    f_acts = forward_mlp(nets[0], f_in, f_blocks, plan=plans[0])
    norms = row_norms(f_acts[-1])
    feats = l2_normalize(f_acts[-1], norms)
    g_acts = forward_mlp(nets[1], feats, sizes[:-1], plan=plans[1])
    d_acts = forward_mlp(nets[2], feats, sizes, plan=plans[2]) if adversarial else None
    return [f_acts, g_acts, d_acts, norms]


def _weigh(method: str, chunk: _Chunk, j: int, logits, register: TargetMarginRegister):
    """The domain-loss weights of step ``j`` of the chunk (None without D;
    every weight is 1 in unweighted_adv). The ablations file G's outputs
    in the chunk; a uman step gates its margins here (:meth:`_Chunk.gate`)
    and computes each run's weights and its trace weights: the mean raw
    weight of its common-class and of its private-class source rows (0 for
    an empty group) and of its target rows."""
    if method != "uman":
        chunk.logits[j] = logits
        return chunk.ones
    errors, gate, pseudo, margins = chunk.gate(j, j + 1, logits[None], register)
    n_src = chunk.labels.shape[-1]
    raw_ws, raw_wt = sample_weights(register, chunk.labels[j], pseudo[0], margins[0])
    weights = np.concatenate([normalize_weights(raw_ws), normalize_weights(raw_wt)], axis=-1)
    means = [
        (
            float(_mean(ws[common])) if n_common else 0.0,
            float(_mean(ws[~common])) if n_common < n_src else 0.0,
            wt,
        )
        for ws, common, n_common, wt in zip(raw_ws, chunk.in_common[j], chunk.n_commons[j], _mean(raw_wt).tolist())
    ]
    chunk.marks[j] = (errors[0].tolist(), gate[0].tolist(), means)
    return weights


def _losses(acts, at_labels, weights, sizes):
    """Each run's classification and domain loss (0 without D), and their
    gradients of G's and of D's outputs (None without D)."""
    g_acts, d_acts = acts[1:3]
    eg, g_logits = _classification_loss(g_acts[-1], at_labels, sizes[:-1])
    if d_acts is None:
        return eg.tolist(), [0.0] * len(eg), g_logits, None
    ed, g_d = _domain_loss(d_acts[-1], weights, sizes)
    return eg.tolist(), ed.tolist(), g_logits, g_d


def _backward(nets, plans, acts, g_logits, g_d, sizes, step: int, hp: Hyperparams):
    """One backward pass realizes the min-max: D descends the domain loss,
    and the gradient-reversal layer hands the features D's input gradient
    times -lambda, to which G's input gradient is added; without D only the
    source rows have a gradient."""
    feature_net, classifier, discriminator = nets
    f_acts, g_acts, d_acts, norms = acts
    g_src = backward_mlp(classifier, g_acts, g_logits, sizes[:-1], input_grad=True, plan=plans[1])
    if d_acts is None:
        g_feats, f_blocks = g_src, sizes[:-1]
    else:
        lam = grl_lambda(step, hp.max_steps, hp.grl_max_lambda, hp.grl_gamma)
        g_feats = -lam * backward_mlp(discriminator, d_acts, g_d, sizes, input_grad=True, plan=plans[2])
        g_feats[:, : sum(sizes[:-1])] += g_src
        f_blocks = sizes
    backward_mlp(feature_net, f_acts, l2_normalize_backward(f_acts[-1], g_feats, norms), f_blocks, plan=plans[0])


@np.errstate(all="ignore")
def extract_features(feature_net: Mlp, x: np.ndarray) -> np.ndarray:
    """Unit-norm features as consumed by the classifier and discriminator.
    A net whose outputs overflow, as one trained at a huge learning rate
    may without its losses leaving the finite range, gives the zero or NaN
    rows numpy computes for them, without a warning."""
    return l2_normalize(forward_mlp(feature_net, x)[-1])


@np.errstate(all="ignore")
def predict_classes(feature_net: Mlp, classifier: Mlp, x: np.ndarray, w0: float) -> np.ndarray:
    """Batch inference: argmax class where the margin clears w0, else
    UNKNOWN; quiet on overflow as :func:`extract_features` is."""
    probs = softmax(forward_mlp(classifier, extract_features(feature_net, x))[-1])
    pseudo, margins = batch_margins(probs)
    return np.where(margins >= w0, pseudo, UNKNOWN)
