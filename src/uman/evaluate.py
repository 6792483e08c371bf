"""Evaluation protocol, reference baselines, and feature-alignment probes.

Accuracy is reported per class over the shared classes plus one pooled
"unknown" entry: a target-private sample counts as correct only when the
model rejects it, a shared-class sample only when the model names its exact
class. The headline number is the unweighted mean over those entries, so
rejection quality carries the same weight as each shared class.

:func:`evaluate` scores the nets :func:`uman.core.train` returns. The
baselines are that training loop under another ``method`` name:
``source_only`` drops the domain loss, ``unweighted_adv`` forces every
domain-loss weight to 1. Comparing against them isolates, respectively, the
value of adversarial alignment and the value of the margin-register
weighting.

The alignment probes train a fresh linear classifier to tell two frozen
feature populations apart; balanced accuracy near 0.5 means the populations
are indistinguishable (aligned), high balanced accuracy means they remain
separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UNKNOWN, Hyperparams, check_labels, classification_loss, extract_features, predict_classes
from .labelspace import LabelPartition, typed_value
from .nn import Mlp, NonFiniteGradientError, Plan, forward_mlp, gradient_faults, sgd_update
from .synth import DomainDataset

__all__ = [
    "EvalReport",
    "ProbeReport",
    "PROBE_KINDS",
    "score_predictions",
    "evaluate",
    "transfer_gain",
    "alignment_probe",
]

PROBE_KINDS = (
    "source-vs-target-common",
    "source-vs-target-private",
    "source-vs-source-shared",
)


@dataclass(frozen=True)
class EvalReport:
    """Per-class accuracies over the shared classes plus the pooled unknown
    entry at the rejection threshold ``w0``. Keys are class indices as
    strings, plus "unknown". Entries with zero test samples are listed in
    ``excluded`` and left out of the mean. A report holds what was measured
    only; a run's config hash, method and seed are its caller's to record,
    as ``uman run`` does beside it in report.json."""

    w0: float
    per_class_accuracy: dict
    mean_per_class_accuracy: float
    n_evaluated: dict
    excluded: tuple = ()


def score_predictions(preds, labels, partition: LabelPartition, w0: float) -> EvalReport:
    """Protocol arithmetic on raw predictions.

    A sample with a shared-class label counts as correct only when predicted
    as exactly that class; one with a target-private label only when
    predicted UNKNOWN. The mean runs over the per-class entries plus the
    pooled unknown entry, skipping the entries with no samples, which the
    report lists in ``excluded``.
    Predictions and labels must have one shape, and ``w0`` is the threshold
    they were made at, which Hyperparams would accept.
    """
    preds, labels = np.asarray(preds), np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"predictions of shape {preds.shape} do not match labels of shape {labels.shape}")
    w0 = Hyperparams(w0=w0).w0
    per_class, n_eval, excluded = {}, {}, []
    # each entry's name, its samples and the prediction that scores one of them right
    entries = [(str(c), labels == c, c) for c in partition.common_union]
    entries.append(("unknown", np.isin(labels, np.asarray(partition.target_private, dtype=labels.dtype)), UNKNOWN))
    for name, mask, wanted in entries:
        n_eval[name] = int(mask.sum())
        if not mask.any():
            excluded.append(name)
            continue
        per_class[name] = float((preds[mask] == wanted).mean())
    if not per_class:
        raise ValueError("every accuracy entry is empty; nothing to score")
    mean = float(np.mean(list(per_class.values())))
    return EvalReport(w0, per_class, mean, n_eval, tuple(excluded))


def evaluate(feature_net: Mlp, classifier: Mlp, test: DomainDataset, partition: LabelPartition, w0: float) -> EvalReport:
    """Score a labeled target test set under the rejection threshold w0.

    The test set is the target of a run of ``partition``: it is refused, as
    training refuses its target, when its evaluation labels are not one per
    row or name a class outside the target label set, and ``w0`` is refused
    as Hyperparams refuses it.
    """
    if test.eval_labels is None:
        raise ValueError("the test set carries no evaluation labels")
    if len(test) == 0:
        raise ValueError("empty test set")
    check_labels(partition.n_sources, test, partition)
    preds = predict_classes(feature_net, classifier, test.features, w0)
    return score_predictions(preds, test.eval_labels, partition, w0)


def transfer_gain(report: EvalReport, source_only_report: EvalReport) -> float:
    """Mean-accuracy edge of a method over the source-only baseline.

    The two reports must count the same test samples per entry (the same
    ``n_evaluated``, which fixes the entries) at the same ``w0``. A report
    records neither its method nor its config, so that the second one is
    the source-only run of the first one's config is the caller's to know.
    """
    for name in ("n_evaluated", "w0"):
        mine, theirs = getattr(report, name), getattr(source_only_report, name)
        if mine != theirs:
            raise ValueError(f"reports were produced under different configurations: {name} {mine} against {theirs}")
    return report.mean_per_class_accuracy - source_only_report.mean_per_class_accuracy


@dataclass(frozen=True)
class ProbeReport:
    """Held-out balanced accuracy of a fresh two-population classifier."""

    balanced_accuracy: float
    n_a: int
    n_b: int


def _probe_populations(feature_net, datasets, partition, kind, pair):
    sources, target = datasets[:-1], datasets[-1]
    if kind == "source-vs-source-shared":
        i, j = pair
        if not (1 <= i <= len(sources) and 1 <= j <= len(sources)):
            raise ValueError(f"probe pair {pair} names a source outside [1, {len(sources)}]")
        if i == j:
            raise ValueError(f"probe pair {pair} names source {i} twice; the probe compares two sources")
        shared = set(partition.source_labels[i - 1]) & set(partition.source_labels[j - 1])
        if not shared:
            raise ValueError(f"sources {i} and {j} share no classes; the probe has nothing to compare")
        sel = sorted(shared)
        a = sources[i - 1].features[np.isin(sources[i - 1].labels, sel)]
        b = sources[j - 1].features[np.isin(sources[j - 1].labels, sel)]
        names = (f"source {i} shared-class samples", f"source {j} shared-class samples")
    else:
        if target.eval_labels is None:
            raise ValueError("the target dataset carries no evaluation labels")
        if kind == "source-vs-target-common":
            src_sel, tgt_sel = partition.common_union, partition.common_union
        else:  # source-vs-target-private
            src_sel, tgt_sel = partition.source_private_union, partition.target_private
        # concatenating the sources realizes their even mixture: a label
        # carried by k sources contributes k blocks, exactly the mass it has
        # in the center of the source distributions
        a = np.concatenate(
            [s.features[np.isin(s.labels, src_sel)] for s in sources]
        )
        b = target.features[np.isin(target.eval_labels, tgt_sel)]
        names = ("source samples", "target samples")
    for pop, name in ((a, names[0]), (b, names[1])):
        if pop.shape[0] < 5:
            raise ValueError(f"population of {name} has only {pop.shape[0]} samples; need at least 5")
    return extract_features(feature_net, a), extract_features(feature_net, b)


def alignment_probe(
    feature_net: Mlp,
    datasets,
    partition: LabelPartition,
    kind: str,
    seed: int = 0,
    pair: tuple[int, int] = (1, 2),
) -> ProbeReport:
    """Train a fresh linear classifier to tell two feature populations apart.

    The probe is softmax regression, the usual two-sample statistic for
    distribution alignment. Each population gets an 80/20 split seeded by
    ``seed`` (>= 0); the probe takes 300 full-batch steps at rate 0.5 on
    the mean of the two populations' mean cross entropies and reports
    balanced accuracy (mean per-population recall) on the held-out fifths.
    """
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r}; expected one of {PROBE_KINDS}")
    if (seed := typed_value("seed", "int", seed)) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    fa, fb = _probe_populations(feature_net, datasets, partition, kind, pair)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(31,)))

    def split(f):
        n = f.shape[0]
        n_test = max(1, round(0.2 * n))
        order = rng.permutation(n)
        return f[order[n_test:]], f[order[:n_test]]

    a_train, a_test = split(fa)
    b_train, b_test = split(fb)
    x = np.concatenate([a_train, b_train])
    y = np.concatenate([np.zeros(len(a_train), dtype=np.int64), np.ones(len(b_train), dtype=np.int64)])
    # one loss block per population, so both weigh the same whatever their
    # sizes: the probe optimizes the balanced accuracy we score
    sizes = [len(a_train), len(b_train)]

    probe = Mlp([x.shape[1], 2], ["linear"], rng)
    plan = Plan(probe, x)
    for _ in range(300):
        _, grad = classification_loss(plan.forward(x)[-1], y, sizes)
        plan.backward(grad)
        faults = gradient_faults(probe)
        if faults:
            raise NonFiniteGradientError(faults[0])
        sgd_update(probe, 0.5)

    recall_a = float((forward_mlp(probe, a_test)[-1].argmax(axis=1) == 0).mean())
    recall_b = float((forward_mlp(probe, b_test)[-1].argmax(axis=1) == 1).mean())
    return ProbeReport(
        balanced_accuracy=(recall_a + recall_b) / 2.0,
        n_a=fa.shape[0],
        n_b=fb.shape[0],
    )
