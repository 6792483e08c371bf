"""Synthetic multi-domain Gaussian data with controllable domain gaps: the
data generator and nothing else (training draws its batches in ``core``).

Every class c gets a global center mu_c ~ N(0, class_center_scale^2 I).
Domain k draws samples N(mu_c, noise_sigma^2 I) for each class in its label
set and then applies its own affine map x -> R_k x + b_k, where R_k is a
seeded random rotation (the identity, never built, when domain_rotation is
off) and b_k ~ N(0, domain_shift_scale^2 I). Raising domain_shift_scale
therefore widens the gap between domains while leaving within-domain class
structure intact.

All randomness is drawn unit-scaled and multiplied by the configured scale
afterwards, from independent seeded streams per (purpose, domain). Two
consequences worth relying on: the same seed reproduces the same data
bit for bit, and changing one scale knob changes only what that knob
controls. ``draw`` indexes independent sample draws on top of a fixed
domain structure (fresh noise, same centers/rotations/shifts), which is how
held-out target test sets are produced. Data of more values than the
memory bound of a training batch (``core.MAX_RUN_FLOATS``) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .labelspace import LabelPartition, typed_fields, typed_value

__all__ = [
    "SyntheticSpec",
    "DomainDataset",
    "domain_rows",
    "rotation_floats",
    "generate",
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

    __post_init__ = typed_fields

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
    g = _rng(spec, _ROTATION, domain).standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))  # fix the sign convention so q is well defined
    return q


def domain_rows(spec: SyntheticSpec, partition: LabelPartition) -> list[int]:
    """Each domain's row count, in the order :func:`generate` builds them."""
    return [spec.samples_per_class * len(labels) for labels in (*partition.source_labels, partition.target_labels)]


def rotation_floats(spec: SyntheticSpec) -> int:
    """The float64 values :func:`generate` holds besides its rows to rotate a
    domain of d columns: 4.25 d**2 (numpy's QR of a d x d draw peaks at 4.14
    to 4.25 d**2 for d = 250 to 2,000), or 0 without ``domain_rotation``."""
    return -(-17 * spec.feature_dim**2 // 4) if spec.domain_rotation else 0


def generate(spec: SyntheticSpec, partition: LabelPartition, draw: int = 0) -> list[DomainDataset]:
    """Build one dataset per source domain plus the target, in domain order.

    Domain ids are 0..M-1 for the sources and M for the target. ``draw``,
    an integer >= 0, selects an independent draw over the same domains.
    Data past :data:`~uman.core.MAX_RUN_FLOATS` values (:func:`rotation_floats` too) is refused first.
    """
    if (draw := typed_value("draw", "int", draw)) < 0:
        raise ValueError(f"draw must be >= 0, got {draw}")
    d, rows, rotation = spec.feature_dim, sum(domain_rows(spec, partition)), rotation_floats(spec)
    if rows * d + rotation > core.MAX_RUN_FLOATS:
        held = f"{rows:,} rows x {d} columns" + (f" + {rotation:,} rotation floats" if rotation else "")
        raise ValueError(f"the datasets would hold {held}, above the limit of {core.MAX_RUN_FLOATS:,}")
    centers = spec.class_center_scale * _rng(spec, _CENTERS).standard_normal((partition.total_classes, d))

    datasets = []
    label_sets = [set(s) for s in partition.source_labels] + [set(partition.target_labels)]
    for domain, classes in enumerate(label_sets):
        shift = spec.domain_shift_scale * _rng(spec, _SHIFT, domain).standard_normal(d)
        noise_rng = _rng(spec, _NOISE, domain, draw)
        xs, ys = [], []
        for c in sorted(classes):
            xs.append(centers[c] + spec.noise_sigma * noise_rng.standard_normal((spec.samples_per_class, d)))
            ys.append(np.full(spec.samples_per_class, c, dtype=np.int64))
        x = np.concatenate(xs)
        features = (x @ _rotation(spec, domain).T if spec.domain_rotation else x) + shift
        labels = np.concatenate(ys)
        datasets.append(DomainDataset(domain, features, None if domain == len(label_sets) - 1 else labels, labels))
    return datasets
