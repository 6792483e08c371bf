"""Synthetic multi-domain Gaussian data with controllable domain gaps.

Every class c gets a global center mu_c ~ N(0, class_center_scale^2 I).
Domain k draws samples N(mu_c, noise_sigma^2 I) for each class in its label
set and then applies its own affine map x -> R_k x + b_k, where R_k is a
seeded random rotation (identity when domain_rotation is off) and
b_k ~ N(0, domain_shift_scale^2 I). Raising domain_shift_scale therefore
widens the gap between domains while leaving within-domain class structure
intact.

All randomness is drawn unit-scaled and multiplied by the configured scale
afterwards, from independent seeded streams per (purpose, domain). Two
consequences worth relying on: the same seed reproduces the same data
bit for bit, and changing one scale knob changes only what that knob
controls. ``draw`` indexes independent sample draws on top of a fixed
domain structure (fresh noise, same centers/rotations/shifts), which is how
held-out target test sets are produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labelspace import LabelPartition

__all__ = [
    "SyntheticSpec",
    "DomainDataset",
    "generate",
    "run_batches",
]

# spawn_key purpose tags for the per-stream seed derivation
_CENTERS, _SHIFT, _ROTATION, _NOISE = 0, 1, 2, 3


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the generator; ``seed`` pins everything."""

    feature_dim: int = 16
    samples_per_class: int = 200
    class_center_scale: float = 2.0
    noise_sigma: float = 0.5
    domain_shift_scale: float = 1.0
    domain_rotation: bool = False
    seed: int = 0

    def violations(self) -> list[str]:
        out = []
        if self.feature_dim < 1:
            out.append(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.samples_per_class < 1:
            out.append(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        for name in ("class_center_scale", "noise_sigma", "domain_shift_scale", "seed"):
            if getattr(self, name) < 0:
                out.append(f"{name} must be >= 0, got {getattr(self, name)}")
        return out


@dataclass
class DomainDataset:
    """Samples of one domain. Sources carry ``labels``; the target hides its
    labels from training and keeps them only in ``eval_labels``."""

    domain_id: int
    features: np.ndarray
    labels: np.ndarray | None
    eval_labels: np.ndarray | None

    def __len__(self):
        return self.features.shape[0]


def _rng(spec: SyntheticSpec, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=key))


def _rotation(spec: SyntheticSpec, domain: int) -> np.ndarray:
    d = spec.feature_dim
    if not spec.domain_rotation:
        return np.eye(d)
    g = _rng(spec, _ROTATION, domain).standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))  # fix the sign convention so q is well defined
    return q


def generate(spec: SyntheticSpec, partition: LabelPartition, draw: int = 0) -> list[DomainDataset]:
    """Build one dataset per source domain plus the target, in domain order.

    Domain ids are 0..M-1 for the sources and M for the target. ``draw``
    selects an independent sample draw over the same domain structure.
    """
    problems = spec.violations()
    if problems:
        raise ValueError("; ".join(problems))
    d = spec.feature_dim
    centers = spec.class_center_scale * _rng(spec, _CENTERS).standard_normal(
        (partition.total_classes, d)
    )

    datasets = []
    label_sets = [set(s) for s in partition.source_labels] + [set(partition.target_labels)]
    for domain, classes in enumerate(label_sets):
        rot = _rotation(spec, domain)
        shift = spec.domain_shift_scale * _rng(spec, _SHIFT, domain).standard_normal(d)
        noise_rng = _rng(spec, _NOISE, domain, draw)
        xs, ys = [], []
        for c in sorted(classes):
            x = centers[c] + spec.noise_sigma * noise_rng.standard_normal(
                (spec.samples_per_class, d)
            )
            xs.append(x)
            ys.append(np.full(spec.samples_per_class, c, dtype=np.int64))
        features = np.concatenate(xs) @ rot.T + shift
        labels = np.concatenate(ys)
        if domain == len(label_sets) - 1:
            datasets.append(DomainDataset(domain, features, None, labels))
        else:
            datasets.append(DomainDataset(domain, features, labels, labels))
    return datasets


def run_batches(runs, batch_size: int, steps: int | None = None):
    """Endless stream of the batches of several runs at once, stacked along
    a leading run axis.

    ``runs`` lists ``(datasets, seed)`` pairs. Their datasets may differ in
    length, but every run must draw sub-batches of the same sizes from its
    domains in order. Every step yields ``(features, labels, sizes)``: row r
    of ``features`` stacks run r's sub-batches, one per dataset in dataset
    order; row r of ``labels`` holds the labels of the rows of every
    dataset but the last (the sources; the last dataset is the unlabeled
    target); ``sizes`` holds the row count of each sub-batch. Each domain
    of each run shuffles its own index permutation per epoch from its own
    stream, seeded by the run's seed and the domain's id, and drops the
    ragged tail, so a sub-batch always has exactly
    ``min(batch_size, len(dataset))`` rows. A run's rows are what it draws
    alone. Rows are gathered from each dataset's own arrays, so the stream
    holds no copy of the datasets, and runs may share a dataset object.

    With ``steps``, each item holds that many consecutive steps along a
    new leading axis of ``features`` and ``labels``: step s of item c is
    step ``c * steps + s`` of the stream above, and one gather per dataset
    takes all of them. Training draws :data:`uman.core.CHUNK` steps per item.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    sizes = tuple(min(batch_size, len(ds)) for ds in runs[0][0])
    for r, (datasets, _) in enumerate(runs):
        if (run_sizes := tuple(min(batch_size, len(ds)) for ds in datasets)) != sizes:
            raise ValueError(
                f"the runs of one batch need the same sub-batch sizes: run {r} draws {run_sizes}, run 0 {sizes}"
            )
        for ds in datasets:
            if len(ds) == 0:
                raise ValueError(f"domain {ds.domain_id} is empty")
        for ds in datasets[:-1]:
            if ds.labels is None:
                raise ValueError(f"domain {ds.domain_id} has no labels but is used as a source")

    count = steps or 1
    bounds = np.cumsum([0, *sizes]).tolist()

    def index_stream(ds, seed, size):
        # the epochs' permutations without their ragged tails, end to end,
        # handed out ``count`` sub-batches at a time
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ds.domain_id,)))
        n = len(ds)
        left = np.empty(0, dtype=np.int64)
        while True:
            while len(left) < count * size:
                left = np.concatenate([left, rng.permutation(n)[: n - n % size]])
            yield left[: count * size].reshape(count, size)
            left = left[count * size :]

    streams = [[(ds, index_stream(ds, seed, size)) for ds, size in zip(datasets, sizes)] for datasets, seed in runs]
    first = runs[0][0][0].features
    while True:
        features = np.empty((count, len(runs), bounds[-1], first.shape[1]), dtype=first.dtype)
        labels = np.empty((count, len(runs), bounds[-2]), dtype=np.int64)
        for r, run in enumerate(streams):
            for k, (ds, stream) in enumerate(run):
                idx = next(stream)
                features[:, r, bounds[k] : bounds[k + 1]] = ds.features[idx]
                if k < len(sizes) - 1:
                    labels[:, r, bounds[k] : bounds[k + 1]] = ds.labels[idx]
        if steps is None:
            features, labels = features[0], labels[0]
        yield features, labels, sizes
