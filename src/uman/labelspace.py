"""Label-set algebra for multi-source adaptation setups.

A setup with M source domains and one target is described by integer block
sizes: for each source, how many of its classes are shared with the target
and how many are private to it, plus the size of the overall shared set and
the number of target-only classes. This module turns such a size matrix
into concrete class index sets, which a built :class:`UmdaMatrix` keeps as
its ``partition``, and computes the derived quantities used elsewhere (set
unions, Jaccard similarities).

Index layout convention: classes shared with the target occupy the range
[0, n_common), source-private classes the next range, and target-private
classes the last one. The union of all source label sets is therefore
always the contiguous range [0, n_source_classes), which the training code
relies on when sizing the classifier head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

__all__ = [
    "ConfigError",
    "LabelConfigError",
    "UmdaMatrix",
    "LabelPartition",
    "partition_from_matrix",
    "jaccard_source_target",
    "jaccard_source_source",
    "MAX_CLASSES",
]

# the label sets are built as Python sets, so the matrix bounds the memory
# a config can claim; no experiment here comes near this many classes
MAX_CLASSES = 10_000


class ConfigError(ValueError):
    """Config values that make no experiment, one problem per argument;
    ``str()`` joins them with "; "."""

    def __str__(self):
        return "; ".join(self.args)


class LabelConfigError(ConfigError):
    """A label-set configuration that cannot be realized."""


def typed_value(name: str, annotation: str, value):
    """``value`` as a config field annotated ``annotation`` holds it: an
    integer (Python or numpy, not a bool) as an int, a sequence of them as
    a tuple of ints, a finite real (not a bool) as a float, a bool, or None
    where the annotation allows it; else TypeError or ValueError naming ``name``."""
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation or kind == "bool" and isinstance(value, bool):
        return value
    if kind == "float" and isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond every float
            number = math.inf if value > 0 else -math.inf
        # NaN and the infinities pass every range check
        if not math.isfinite(number):
            raise ValueError(f"{name} must be a finite number, got {number!r}")
        return number
    # sizes and widths come as a list, a tuple or a 1-d (numpy) array, never a string or a mapping
    many = kind.startswith("tuple") and (isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1)
    entries = value if many else (value,)
    if (many or kind == "int") and all(isinstance(v, Integral) and not isinstance(v, bool) for v in entries):
        return tuple([int(v) for v in entries]) if many else int(value)
    want = {"float": "a real number", "bool": "a bool"}.get(kind, "integral")
    raise TypeError(f"{name} must be {want}, got {value!r}")


def typed_fields(config) -> None:
    """A frozen config section's ``__post_init__``: :func:`typed_value` for
    each field, then its range rule: the problems its ``violations()``
    lists raise a :class:`ConfigError` (a :class:`LabelConfigError` for an
    :class:`UmdaMatrix`). Neither step builds a tuple of unknown length, as
    ``fields()`` does: the interpreter's free lists keep such a tuple, and a
    run's traced memory counts it."""
    for f in config.__dataclass_fields__.values():
        object.__setattr__(config, f.name, typed_value(f.name, f.type, getattr(config, f.name)))
    if problems := config.violations():
        raise (LabelConfigError if isinstance(config, UmdaMatrix) else ConfigError)(*problems)


@dataclass(frozen=True)
class UmdaMatrix:
    """Block sizes of a multi-source label configuration.

    ``common_sizes[k]`` is the number of classes source k+1 shares with the
    target and ``private_sizes[k]`` the number it keeps to itself.
    ``target_common`` is the size of the union of all shared blocks and
    ``target_private`` the number of target-only classes.

    ``common_overlap`` / ``private_overlap`` optionally pin the size of the
    intersection of source 1's and source 2's shared (private) blocks, in a
    2-source setup only. Without a pin the layout rule below decides the
    overlaps. A matrix is built only when :meth:`violations` finds nothing
    and a layout realizes it; ``partition`` holds that layout, outside the
    fields that equality, hash and ``repr`` compare.
    """

    common_sizes: tuple[int, ...]
    private_sizes: tuple[int, ...]
    target_common: int
    target_private: int
    common_overlap: int | None = None
    private_overlap: int | None = None

    def __post_init__(self):
        typed_fields(self)
        object.__setattr__(self, "partition", partition_from_matrix(self))

    @property
    def n_sources(self) -> int:
        return len(self.common_sizes)

    def violations(self) -> list[str]:
        """Collect every constraint violation instead of stopping at the first."""
        out = []
        m = self.n_sources
        if m < 1:
            out.append("at least one source domain is required")
        entries = sum(self.common_sizes) + sum(self.private_sizes) + self.target_common + self.target_private
        if entries > MAX_CLASSES:
            out.append(f"block sizes sum to {entries}, above the limit of {MAX_CLASSES} classes")
        if len(self.private_sizes) != m:
            out.append(
                f"common_sizes has {m} entries but private_sizes has {len(self.private_sizes)}"
            )
        for name, values in (("common_sizes", self.common_sizes), ("private_sizes", self.private_sizes)):
            for k, v in enumerate(values):
                if v < 0:
                    out.append(f"{name}[{k}] is negative ({v})")
        if self.target_common < 0:
            out.append(f"target_common is negative ({self.target_common})")
        if self.target_private < 0:
            out.append(f"target_private is negative ({self.target_private})")
        for k, sizes in enumerate(zip(self.common_sizes, self.private_sizes)):
            if sizes == (0, 0):
                out.append(f"source {k + 1} has no classes")
        if (self.target_common, self.target_private) == (0, 0):
            out.append("the target has no classes")
        for k, v in enumerate(self.common_sizes):
            if v > self.target_common:
                out.append(
                    f"common_sizes[{k}]={v} exceeds target_common={self.target_common}"
                )
        if sum(self.common_sizes) < self.target_common:
            out.append(
                f"common blocks sum to {sum(self.common_sizes)} and cannot cover "
                f"target_common={self.target_common}"
            )
        for label, o in (("common_overlap", self.common_overlap), ("private_overlap", self.private_overlap)):
            if o is None:
                continue
            if m != 2:
                out.append(f"{label} overrides are only supported for the pair (1, 2) of a 2-source setup")
                continue
            sizes = self.common_sizes if label == "common_overlap" else self.private_sizes
            if not 0 <= o <= min(sizes):
                out.append(f"{label}[(1, 2)]={o} is outside [0, {min(sizes)}]")
            if label == "common_overlap" and sum(sizes) - o != self.target_common:
                out.append(
                    f"common_overlap[(1, 2)]={o} is inconsistent: "
                    f"{sizes[0]}+{sizes[1]}-{o} != target_common={self.target_common}"
                )
        return out


def _layout_blocks(sizes, window, what):
    """Place len(sizes) blocks inside [0, window) so their union covers it.

    Primary rule: block k starts at floor(k * window / m) and wraps, which
    spreads pairwise overlaps as evenly as possible. When unequal sizes make
    that rule leave part of the window uncovered, fall back to a sequential
    layout that distributes the total required overlap evenly between
    neighbours. Raises when no rule can realize the sizes. Every block fits
    the window and together they can cover it, as a built
    :class:`UmdaMatrix` holds; so a single block fills it.
    """
    m = len(sizes)
    if window == 0:
        return [frozenset() for _ in sizes]

    starts = [(k * window) // m for k in range(m)]
    blocks = [
        frozenset((st + i) % window for i in range(sz)) for st, sz in zip(starts, sizes)
    ]
    if len(frozenset().union(*blocks)) == window:
        return blocks

    budget = sum(sizes) - window
    prefix = 0
    starts, ok = [], True
    for k, sz in enumerate(sizes):
        st = prefix - (k * budget) // (m - 1)
        if st < 0 or st + sz > window:
            ok = False
            break
        starts.append(st)
        prefix += sz
    if ok:
        blocks = [
            frozenset(range(st, st + sz)) for st, sz in zip(starts, sizes)
        ]
        if len(frozenset().union(*blocks)) == window:
            return blocks
    raise LabelConfigError(
        f"{what}: sizes {tuple(sizes)} admit no deterministic layout over window {window}"
    )


def _layout_pair(n1, n2, overlap):
    """Two blocks of n1 and n2 classes from 0 up that share ``overlap``; a
    built :class:`UmdaMatrix` holds that the overlap fits both blocks and,
    for shared blocks, that they span target_common."""
    a = frozenset(range(n1))
    b = frozenset(range(n1 - overlap, n1 - overlap + n2))
    return [a, b]


def _sorted(values) -> tuple[int, ...]:
    return tuple(sorted(int(v) for v in values))


@dataclass(frozen=True)
class LabelPartition:
    """Concrete class index sets realizing an :class:`UmdaMatrix`.

    The fields are the per-source label sets and the target label set;
    everything else is derived set algebra, computed on first access.
    """

    total_classes: int
    source_labels: tuple[tuple[int, ...], ...]
    target_labels: tuple[int, ...]

    def __post_init__(self):
        total = self.total_classes
        for k, s in enumerate(self.source_labels):
            bad = [c for c in s if not 0 <= c < total]
            if bad:
                raise LabelConfigError(f"source {k + 1} labels {bad} outside [0, {total})")
        if any(not 0 <= c < total for c in self.target_labels):
            raise LabelConfigError(f"target labels outside [0, {total})")

    @classmethod
    def from_primaries(cls, source_labels, target_labels, total_classes):
        return cls(
            total_classes=int(total_classes),
            source_labels=tuple(_sorted(s) for s in source_labels),
            target_labels=_sorted(target_labels),
        )

    @property
    def n_sources(self) -> int:
        return len(self.source_labels)

    @property
    def n_source_classes(self) -> int:
        return len(self.source_union)

    @cached_property
    def common_per_source(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_sorted(set(s) & set(self.target_labels)) for s in self.source_labels)

    @cached_property
    def private_per_source(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_sorted(set(s) - set(self.target_labels)) for s in self.source_labels)

    @cached_property
    def common_union(self) -> tuple[int, ...]:
        return _sorted(set().union(*self.common_per_source))

    @cached_property
    def source_union(self) -> tuple[int, ...]:
        return _sorted(set().union(*self.source_labels))

    @cached_property
    def source_private_union(self) -> tuple[int, ...]:
        return _sorted(set().union(*self.private_per_source))

    @cached_property
    def target_private(self) -> tuple[int, ...]:
        return _sorted(set(self.target_labels) - set(self.source_union))


def partition_from_matrix(matrix: UmdaMatrix) -> LabelPartition:
    """Realize a size matrix as concrete class index sets.

    Shared blocks are placed inside [0, target_common) by the layout rule of
    :func:`_layout_blocks`; private blocks are placed after them, disjoint by
    default; target-only classes take the final indices. A pinned overlap
    sets the intersection of the two blocks instead of the default rule.
    """
    n_common = matrix.target_common
    if matrix.common_overlap is None:
        common_blocks = _layout_blocks(matrix.common_sizes, n_common, "common blocks")
    else:
        common_blocks = _layout_pair(*matrix.common_sizes, matrix.common_overlap)

    window = sum(matrix.private_sizes) - (matrix.private_overlap or 0)
    if matrix.private_overlap is None:
        private_blocks = _layout_blocks(matrix.private_sizes, window, "private blocks")
    else:
        private_blocks = _layout_pair(*matrix.private_sizes, matrix.private_overlap)

    total = n_common + window + matrix.target_private
    source_labels = [
        frozenset(c) | frozenset(n_common + p for p in priv)
        for c, priv in zip(common_blocks, private_blocks)
    ]
    target_labels = frozenset(range(n_common)) | frozenset(
        range(n_common + window, total)
    )
    return LabelPartition.from_primaries(source_labels, target_labels, total)


def _jaccard(a: set, b: set, what: str) -> float:
    union = a | b
    if not union:
        raise LabelConfigError(f"jaccard of two empty sets is undefined ({what})")
    return len(a & b) / len(union)


def jaccard_source_target(partition: LabelPartition, i: int) -> float:
    """Jaccard similarity between source i's label set and the target's (i is 1-based)."""
    if not 1 <= i <= partition.n_sources:
        raise LabelConfigError(f"source index {i} outside [1, {partition.n_sources}]")
    return _jaccard(
        set(partition.source_labels[i - 1]), set(partition.target_labels), f"source {i} vs target"
    )


def jaccard_source_source(partition: LabelPartition, i: int, j: int) -> float:
    """Jaccard similarity between two sources' label sets (1-based indices)."""
    for k in (i, j):
        if not 1 <= k <= partition.n_sources:
            raise LabelConfigError(f"source index {k} outside [1, {partition.n_sources}]")
    return _jaccard(
        set(partition.source_labels[i - 1]),
        set(partition.source_labels[j - 1]),
        f"source {i} vs source {j}",
    )
