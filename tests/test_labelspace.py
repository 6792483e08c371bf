"""Label-set algebra: frozen layouts, set-algebra oracles, round trips."""

import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import PROPERTY

from uman.labelspace import (
    LabelConfigError,
    LabelPartition,
    UmdaMatrix,
    jaccard_source_source,
    jaccard_source_target,
    partition_from_matrix,
)


def measured_sizes(p):
    """Block sizes of a partition by set arithmetic on its label sets."""
    target = set(p.target_labels)
    sources = [set(s) for s in p.source_labels]
    return (
        tuple(len(s & target) for s in sources),
        tuple(len(s - target) for s in sources),
        len(set().union(*sources) & target),
        len(target - set().union(*sources)),
    )


def matrix_sizes(m):
    return m.common_sizes, m.private_sizes, m.target_common, m.target_private


def refusal(*args, **kw) -> tuple[str, ...]:
    """The problems ``UmdaMatrix(*args, **kw)`` is refused with at
    construction, one per argument of the error."""
    with pytest.raises(LabelConfigError) as refused:
        UmdaMatrix(*args, **kw)
    assert str(refused.value) == "; ".join(refused.value.args)
    return refused.value.args


class TestMatrixValidation:
    def test_collects_every_violation(self):
        msgs = refusal((-1, 9), (2,), 4, -2)
        assert len(msgs) >= 4
        assert any("negative" in m for m in msgs)
        assert any("common_sizes has 2 entries" in m for m in msgs)
        assert any("exceeds target_common" in m for m in msgs)

    def test_common_blocks_must_cover_target_common(self):
        assert any("cannot cover" in m for m in refusal((2, 2), (1, 1), 6, 0))

    def test_every_domain_needs_a_class(self):
        assert "source 2 has no classes" in refusal((2, 0), (1, 0), 2, 1)
        assert "the target has no classes" in refusal((0, 0), (2, 2), 0, 0)
        assert refusal((0,), (0,), 0, 0) == ("source 1 has no classes", "the target has no classes")

    @pytest.mark.parametrize(
        "args, message",
        [
            (((), (), 1, 0), "at least one source domain is required"),
            (((2,), (1,), -1, 1), "target_common is negative (-1)"),
        ],
        ids=["no source", "negative target_common"],
    )
    def test_violation_text(self, args, message):
        assert message in refusal(*args)

    @pytest.mark.parametrize(
        "args, kw, message",
        [
            (((4.7, 4), (0, 0), 6, 0), {}, "common_sizes must be integral, got (4.7, 4)"),
            (((4, 4), (0, 0), 6, 0), {"common_overlap": 2.0}, "common_overlap must be integral, got 2.0"),
            (((4, 4), (0, 0), "6", 0), {}, "target_common must be integral, got '6'"),
            (((True, 4), (0, 0), 6, 0), {}, "common_sizes must be integral, got (True, 4)"),
            (((4, 4), (0, 0), 6, False), {}, "target_private must be integral, got False"),
            ((np.array([[4, 4]]), (0, 0), 6, 0), {}, "common_sizes must be integral, got array([[4, 4]])"),
        ],
        ids=["fractional size", "fractional pin", "string", "bool entry", "bool", "2-d array"],
    )
    def test_non_integers_are_refused_by_field(self, args, kw, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            UmdaMatrix(*args, **kw)

    def test_numpy_integers_are_taken_as_ints(self):
        matrix = UmdaMatrix(np.array([4, 4]), (0, 0), np.int64(6), 0, common_overlap=np.int32(2))
        assert matrix == UmdaMatrix((4, 4), (0, 0), 6, 0, common_overlap=2)
        assert all(type(v) is int for v in (*matrix.common_sizes, matrix.target_common, matrix.common_overlap))
        assert partition_from_matrix(matrix) == partition_from_matrix(UmdaMatrix((4, 4), (0, 0), 6, 0, common_overlap=2))

    def test_valid_matrix_has_no_violations(self):
        assert UmdaMatrix((4, 4), (3, 3), 6, 3).violations() == []

    def test_override_pair_restrictions(self):
        assert any("2-source" in m for m in refusal((2, 2, 2), (1, 1, 1), 3, 0, common_overlap=1))

    def test_common_override_must_match_union_size(self):
        for o in (0, 1):  # a pin of 0 is a pin
            assert any("inconsistent" in m for m in refusal((4, 4), (0, 0), 6, 0, common_overlap=o)), o
        good = UmdaMatrix((4, 4), (0, 0), 6, 0, common_overlap=2)
        assert good.violations() == []


class TestLayouts:
    def test_single_source_is_contiguous(self):
        p = partition_from_matrix(UmdaMatrix((3,), (2,), 3, 1))
        assert p.source_labels == ((0, 1, 2, 3, 4),)
        assert p.target_labels == (0, 1, 2, 5)
        assert p.common_per_source == ((0, 1, 2),)
        assert p.private_per_source == ((3, 4),)
        assert p.target_private == (5,)
        assert p.total_classes == 6

    def test_two_source_spread_rule(self):
        # window 6, starts 0 and 3: blocks {0..3} and {3,4,5,0} overlap in {0, 3}
        p = partition_from_matrix(UmdaMatrix((4, 4), (3, 3), 6, 3))
        c1, c2 = (set(c) for c in p.common_per_source)
        assert c1 == {0, 1, 2, 3}
        assert c2 == {0, 3, 4, 5}
        assert len(c1 & c2) == 2
        assert c1 | c2 == set(range(6))
        # privates tile disjointly after the shared range
        p1, p2 = (set(q) for q in p.private_per_source)
        assert p1 == {6, 7, 8} and p2 == {9, 10, 11}
        assert set(p.target_private) == {12, 13, 14}

    def test_office_style_overlap(self):
        p = partition_from_matrix(UmdaMatrix((7, 7), (5, 5), 10, 11))
        c1, c2 = (set(c) for c in p.common_per_source)
        assert len(c1 & c2) == 4
        assert c1 | c2 == set(range(10))
        assert p.total_classes == 10 + 10 + 11
        assert jaccard_source_target(p, 1) == pytest.approx(7 / 26)
        assert jaccard_source_source(p, 1, 2) == pytest.approx(4 / 20)

    def test_unequal_sizes_fall_back_to_sequential_cover(self):
        # spread rule leaves index gaps here; the fallback still covers the window
        p = partition_from_matrix(UmdaMatrix((2, 2, 2, 1), (1, 1, 1, 1), 7, 1))
        assert set().union(*(set(c) for c in p.common_per_source)) == set(range(7))
        sizes = [len(c) for c in p.common_per_source]
        assert sizes == [2, 2, 2, 1]

    def test_disjoint_blocks_when_sizes_exactly_tile(self):
        p = partition_from_matrix(UmdaMatrix((3, 3), (2, 2), 6, 0))
        c1, c2 = (set(c) for c in p.common_per_source)
        assert c1 == {0, 1, 2} and c2 == {3, 4, 5}

    def test_pinned_common_overlap(self):
        p = partition_from_matrix(UmdaMatrix((4, 4), (0, 0), 6, 0, common_overlap=2))
        c1, c2 = (set(c) for c in p.common_per_source)
        assert len(c1 & c2) == 2
        assert c1 | c2 == set(range(6))

    def test_pinned_private_overlap(self):
        p = partition_from_matrix(
            UmdaMatrix((3, 3), (3, 3), 6, 0, private_overlap=2)
        )
        p1, p2 = (set(q) for q in p.private_per_source)
        assert len(p1 & p2) == 2
        assert len(p1 | p2) == 4
        assert p.total_classes == 6 + 4

    def test_infeasible_layout_raises(self):
        # in range, but the common blocks leave part of their window uncovered
        assert refusal((4, 3, 1), (0, 0, 1), 5, 0) == ("common blocks: sizes (4, 3, 1) admit no deterministic layout over window 5",)


class TestPartition:
    def test_derived_sets_follow_from_primaries(self):
        p = LabelPartition.from_primaries(
            source_labels=[(0, 1, 5), (1, 2, 6)], target_labels=(0, 1, 2, 3), total_classes=7
        )
        assert p.common_per_source == ((0, 1), (1, 2))
        assert p.private_per_source == ((5,), (6,))
        assert p.common_union == (0, 1, 2)
        assert p.source_union == (0, 1, 2, 5, 6)
        assert p.source_private_union == (5, 6)
        assert p.target_private == (3,)

    def test_derived_sets_leave_equality_hash_and_pickling_alone(self):
        fresh = partition_from_matrix(UmdaMatrix((4, 4), (3, 3), 6, 3))
        used = partition_from_matrix(UmdaMatrix((4, 4), (3, 3), 6, 3))
        assert used.target_private == (12, 13, 14)
        assert used == fresh and hash(used) == hash(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == fresh and back.common_union == used.common_union

    def test_matrix_keeps_its_layout_outside_its_fields(self):
        matrix = UmdaMatrix((4, 4), (3, 3), 6, 3)
        assert matrix.partition == partition_from_matrix(matrix)
        other = UmdaMatrix((4, 4), (3, 3), 6, 3)
        object.__setattr__(other, "partition", None)
        assert other == matrix and hash(other) == hash(matrix) and repr(other) == repr(matrix)
        assert "partition" not in repr(matrix)
        back = pickle.loads(pickle.dumps(matrix))
        assert back == matrix and back.partition == matrix.partition
        # replace() builds, and so lays out, the new matrix
        assert replace(matrix, target_private=5).partition.target_private == (12, 13, 14, 15, 16)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(LabelConfigError, match="outside"):
            LabelPartition.from_primaries([(0, 9)], (0,), total_classes=3)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: LabelPartition.from_primaries([(0, 1)], (0, 5), total_classes=3), "target labels outside [0, 3)"),
            (
                lambda: jaccard_source_target(LabelPartition.from_primaries([()], (), total_classes=1), 1),
                "jaccard of two empty sets is undefined (source 1 vs target)",
            ),
        ],
        ids=["target label", "empty jaccard"],
    )
    def test_rejection_text(self, call, message):
        with pytest.raises(LabelConfigError, match=f"^{re.escape(message)}$"):
            call()

    def test_matrix_round_trip_on_frozen_examples(self):
        for matrix in (
            UmdaMatrix((3,), (2,), 3, 1),
            UmdaMatrix((4, 4), (3, 3), 6, 3),
            UmdaMatrix((7, 7), (5, 5), 10, 11),
            UmdaMatrix((2, 2, 2), (1, 1, 1), 3, 0),
        ):
            assert measured_sizes(partition_from_matrix(matrix)) == matrix_sizes(matrix)


@st.composite
def matrix_args(draw):
    """The block sizes of a matrix, in or out of range."""
    m = draw(st.integers(1, 4))
    window = draw(st.integers(0, 8))
    if window == 0:
        commons = tuple(0 for _ in range(m))
    else:
        commons = tuple(draw(st.integers(1, window)) for _ in range(m))
    privates = tuple(draw(st.integers(0, 4)) for _ in range(m))
    return commons, privates, window, draw(st.integers(0, 4))


class TestMatrixProperties:
    @given(matrix_args())
    @settings(PROPERTY, max_examples=120)
    def test_round_trip_or_explicit_rejection(self, args):
        try:
            matrix = UmdaMatrix(*args)
        except LabelConfigError:
            # sizes out of range, or that no deterministic layout realizes,
            # are refused when built, not mangled
            return
        p = matrix.partition
        assert p == partition_from_matrix(matrix)
        assert measured_sizes(p) == matrix_sizes(matrix)
        # every class index is used exactly once across the three ranges
        used = set(p.common_union) | set(p.source_private_union) | set(p.target_private)
        assert used == set(range(p.total_classes))
        assert len(p.common_union) + len(p.source_private_union) + len(p.target_private) == p.total_classes


class TestMembershipMasks:
    def test_three_ranges_partition_all_classes(self):
        p = partition_from_matrix(UmdaMatrix((7, 7), (5, 5), 10, 11))
        stacked = np.zeros(p.total_classes, dtype=int)
        for labels in (p.common_union, p.source_private_union, p.target_private):
            mask = np.zeros(p.total_classes, dtype=bool)
            mask[list(labels)] = True
            stacked += mask.astype(int)
        assert (stacked == 1).all()


class TestJaccard:
    def test_matches_set_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            total = int(rng.integers(2, 15))
            s1 = set(int(c) for c in rng.choice(total, size=rng.integers(1, total), replace=False))
            s2 = set(int(c) for c in rng.choice(total, size=rng.integers(1, total), replace=False))
            tgt = set(int(c) for c in rng.choice(total, size=rng.integers(1, total), replace=False))
            p = LabelPartition.from_primaries([s1, s2], tgt, total)
            assert jaccard_source_target(p, 1) == pytest.approx(
                len(s1 & tgt) / len(s1 | tgt), abs=1e-12
            )
            assert jaccard_source_source(p, 1, 2) == pytest.approx(
                len(s1 & s2) / len(s1 | s2), abs=1e-12
            )

    def test_is_symmetric(self):
        p = partition_from_matrix(UmdaMatrix((4, 4), (3, 3), 6, 3))
        assert jaccard_source_source(p, 1, 2) == jaccard_source_source(p, 2, 1)

    def test_index_validation(self):
        p = partition_from_matrix(UmdaMatrix((3,), (2,), 3, 1))
        with pytest.raises(LabelConfigError, match="outside"):
            jaccard_source_target(p, 0)
        with pytest.raises(LabelConfigError, match="outside"):
            jaccard_source_source(p, 1, 2)
