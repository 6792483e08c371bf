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

import warnings
from dataclasses import dataclass

import numpy as np

from .core import UNKNOWN, classification_loss, extract_features, predict_classes
from .labelspace import LabelPartition
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
    entry. Keys are class indices as strings, plus "unknown". Entries with
    zero test samples are listed in ``excluded`` and left out of the mean."""

    method: str
    w0: float
    per_class_accuracy: dict
    mean_per_class_accuracy: float
    n_evaluated: dict
    excluded: tuple = ()
    config_hash: str = ""
    seed: int | None = None


def score_predictions(
    preds,
    labels,
    partition: LabelPartition,
    w0: float,
    method: str = "",
    config_hash: str = "",
    seed: int | None = None,
) -> EvalReport:
    """Protocol arithmetic on raw predictions.

    A sample with a shared-class label counts as correct only when predicted
    as exactly that class; one with a target-private label only when
    predicted UNKNOWN. The mean runs over the per-class entries plus the
    pooled unknown entry, skipping (with a warning) entries with no samples.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
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
    for name in excluded:
        warnings.warn(f"no test samples for entry {name!r}; excluded from the mean")
    if not per_class:
        raise ValueError("every accuracy entry is empty; nothing to score")

    return EvalReport(
        method=method,
        w0=w0,
        per_class_accuracy=per_class,
        mean_per_class_accuracy=float(np.mean(list(per_class.values()))),
        n_evaluated=n_eval,
        excluded=tuple(excluded),
        config_hash=config_hash,
        seed=seed,
    )


def evaluate(
    feature_net: Mlp,
    classifier: Mlp,
    test: DomainDataset,
    partition: LabelPartition,
    w0: float,
    method: str = "",
    config_hash: str = "",
    seed: int | None = None,
) -> EvalReport:
    """Score a labeled target test set under the rejection threshold w0."""
    if test.eval_labels is None:
        raise ValueError("the test set carries no evaluation labels")
    if len(test) == 0:
        raise ValueError("empty test set")
    preds = predict_classes(feature_net, classifier, test.features, w0)
    return score_predictions(
        preds, test.eval_labels, partition, w0,
        method=method, config_hash=config_hash, seed=seed,
    )


def transfer_gain(report: EvalReport, source_only_report: EvalReport) -> float:
    """Mean-accuracy edge of a method over the source-only baseline."""
    if source_only_report.method and source_only_report.method != "source_only":
        raise ValueError(f"baseline report comes from {source_only_report.method!r}, not source_only")
    comparable = (
        set(report.per_class_accuracy) == set(source_only_report.per_class_accuracy)
        and report.n_evaluated == source_only_report.n_evaluated
        and report.w0 == source_only_report.w0
        and (
            not report.config_hash
            or not source_only_report.config_hash
            or report.config_hash == source_only_report.config_hash
        )
    )
    if not comparable:
        raise ValueError("reports were produced under different configurations")
    return report.mean_per_class_accuracy - source_only_report.mean_per_class_accuracy


@dataclass(frozen=True)
class ProbeReport:
    """Held-out balanced accuracy of a fresh two-population classifier."""

    kind: str
    balanced_accuracy: float
    n_a: int
    n_b: int


def _probe_populations(feature_net, datasets, partition, kind, pair):
    sources, target = datasets[:-1], datasets[-1]
    if kind == "source-vs-source-shared":
        i, j = pair
        if not (1 <= i <= len(sources) and 1 <= j <= len(sources)):
            raise ValueError(f"probe pair {pair} names a source outside [1, {len(sources)}]")
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
        elif kind == "source-vs-target-private":
            src_sel, tgt_sel = partition.source_private_union, partition.target_private
        else:
            raise ValueError(f"unknown probe kind {kind!r}; expected one of {PROBE_KINDS}")
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
    distribution alignment. Each population gets a seeded 80/20 split; the
    probe takes 300 full-batch steps at rate 0.5 on the mean of the two
    populations' mean cross entropies and reports balanced accuracy (mean
    per-population recall) on the held-out fifths.
    """
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
        kind=kind,
        balanced_accuracy=(recall_a + recall_b) / 2.0,
        n_a=fa.shape[0],
        n_b=fb.shape[0],
    )
