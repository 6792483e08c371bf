"""Synthetic data generator: determinism, knob isolation, domain-gap control."""

import re
import tracemalloc

import numpy as np
import pytest

import uman.core
import uman.synth
from uman.labelspace import UmdaMatrix, partition_from_matrix
from uman.synth import SyntheticSpec, domain_rows, generate

MATRIX = UmdaMatrix((4, 4), (3, 3), 6, 3)


@pytest.fixture(scope="module")
def partition():
    return partition_from_matrix(MATRIX)


def spec(**kw):
    base = dict(feature_dim=8, samples_per_class=40, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_collects_violations(self):
        with pytest.raises(ValueError) as refused:
            SyntheticSpec(feature_dim=0, samples_per_class=0, noise_sigma=-1.0)
        assert refused.value.args == (
            "feature_dim must be >= 1, got 0",
            "samples_per_class must be >= 1, got 0",
            "noise_sigma must be >= 0, got -1.0",
        )

    def test_defaults_are_valid(self):
        assert SyntheticSpec().violations() == []
        with pytest.raises(ValueError, match="^feature_dim must be >= 1, got 0$"):
            SyntheticSpec(feature_dim=0)


class TestGenerate:
    def test_domains_shapes_and_label_sets(self, partition):
        datasets = generate(spec(), partition)
        assert len(datasets) == 3
        for k, ds in enumerate(datasets):
            assert ds.domain_id == k
        s1, s2, tgt = datasets
        for ds, classes in zip((s1, s2), partition.source_labels):
            assert ds.labels is not None
            assert ds.features.shape == (40 * len(classes), 8)
            assert set(np.unique(ds.labels)) == set(classes)
            assert (np.bincount(ds.labels, minlength=partition.total_classes)[list(classes)] == 40).all()
        assert tgt.labels is None
        assert set(np.unique(tgt.eval_labels)) == set(partition.target_labels)
        assert len(tgt) == 40 * len(partition.target_labels)

    def test_same_seed_is_bit_identical(self, partition):
        a = generate(spec(), partition)
        b = generate(spec(), partition)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.features, db.features)

    def test_different_seeds_differ(self, partition):
        a = generate(spec(seed=0), partition)
        b = generate(spec(seed=1), partition)
        assert not np.array_equal(a[0].features, b[0].features)

    def test_fresh_draw_keeps_structure_but_resamples_noise(self, partition):
        a = generate(spec(noise_sigma=0.3), partition, draw=0)
        b = generate(spec(noise_sigma=0.3), partition, draw=1)
        assert not np.array_equal(a[0].features, b[0].features)
        # same centers and shifts: per-class means agree up to noise-of-the-mean
        la = a[0].labels
        for c in np.unique(la):
            ma = a[0].features[la == c].mean(axis=0)
            mb = b[0].features[b[0].labels == c].mean(axis=0)
            sem = 0.3 / np.sqrt(40)
            assert np.abs(ma - mb).max() < 6 * sem

    def test_zero_noise_pins_samples_to_shifted_centers(self, partition):
        datasets = generate(spec(noise_sigma=0.0), partition)
        for ds in datasets[:-1]:
            for c in np.unique(ds.labels):
                rows = ds.features[ds.labels == c]
                np.testing.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape), atol=1e-12)

    def test_scale_knobs_only_rescale_their_own_draws(self, partition):
        # with zero noise the domain offset is linear in the shift scale
        base = generate(spec(noise_sigma=0.0, domain_shift_scale=0.0), partition)
        one = generate(spec(noise_sigma=0.0, domain_shift_scale=1.0), partition)
        two = generate(spec(noise_sigma=0.0, domain_shift_scale=2.0), partition)
        for d0, d1, d2 in zip(base, one, two):
            step1 = d1.features - d0.features
            step2 = d2.features - d1.features
            np.testing.assert_allclose(step1, step2, atol=1e-10)
            np.testing.assert_allclose(step1, np.tile(step1[0], (len(d1), 1)), atol=1e-10)
        # and the noise knob leaves centers and shifts untouched
        quiet = generate(spec(noise_sigma=0.0), partition)
        noisy = generate(spec(noise_sigma=0.5), partition)
        for dq, dn in zip(quiet, noisy):
            labels = dq.labels if dq.labels is not None else dq.eval_labels
            nlabels = dn.labels if dn.labels is not None else dn.eval_labels
            for c in np.unique(labels):
                mq = dq.features[labels == c][0]
                mn = dn.features[nlabels == c].mean(axis=0)
                assert np.abs(mn - mq).max() < 6 * 0.5 / np.sqrt(40)

    def test_domain_gap_grows_with_shift_scale(self, partition):
        gaps = []
        for scale in (0.5, 1.0, 2.0):
            s1, _, tgt = generate(spec(domain_shift_scale=scale, noise_sigma=0.0), partition)
            c = partition.common_per_source[0][0]
            gap = np.linalg.norm(
                s1.features[s1.labels == c][0] - tgt.features[tgt.eval_labels == c][0]
            )
            gaps.append(gap)
        assert gaps[0] < gaps[1] < gaps[2]

    @pytest.mark.parametrize(
        "draw, error, message",
        [
            (-1, ValueError, "draw must be >= 0, got -1"),
            (1.5, TypeError, "draw must be integral, got 1.5"),
            ("1", TypeError, "draw must be integral, got '1'"),
            (True, TypeError, "draw must be integral, got True"),
        ],
    )
    def test_draw_is_refused_by_name(self, partition, draw, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            generate(spec(), partition, draw=draw)

    def test_rotation_is_orthogonal_and_off_by_default(self, partition):
        plain = generate(spec(noise_sigma=0.0, domain_shift_scale=0.0), partition)
        c = partition.common_per_source[0][0]
        rowp = plain[0].features[plain[0].labels == c][0]
        rowt = plain[-1].features[plain[-1].eval_labels == c][0]
        np.testing.assert_allclose(rowp, rowt, atol=1e-12)  # identity maps, no shift

        rotated = generate(
            spec(noise_sigma=0.0, domain_shift_scale=0.0, domain_rotation=True), partition
        )
        rowa = rotated[0].features[rotated[0].labels == c][0]
        rowb = rotated[-1].features[rotated[-1].eval_labels == c][0]
        assert np.linalg.norm(rowa) == pytest.approx(np.linalg.norm(rowp), abs=1e-9)
        assert not np.allclose(rowa, rowb)


class TestMemoryBound:
    """``generate`` holds the data it would draw to the bound of a training
    batch, :data:`uman.core.MAX_RUN_FLOATS`, before it draws."""

    @pytest.mark.parametrize(
        "name, value",
        [("feature_dim", 2**1100), ("samples_per_class", 2**1100), ("samples_per_class", 2**40)],
        ids=["feature_dim=2**1100", "samples_per_class=2**1100", "samples_per_class=2**40"],
    )
    def test_data_past_the_bound_is_refused(self, partition, name, value):
        with pytest.raises(ValueError, match="^the datasets would hold .* columns, above the limit of 100,000,000$"):
            generate(spec(**{name: value}), partition)

    def test_bound_is_the_one_core_costs_batches_by(self, partition, monkeypatch):
        rows = sum(domain_rows(spec(), partition))
        assert rows == 40 * (7 + 7 + 9)  # each source's 4 + 3 classes, the target's 6 + 3
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", rows * 8)
        assert sum(len(ds) for ds in generate(spec(), partition)) == rows
        monkeypatch.setattr(uman.core, "MAX_RUN_FLOATS", rows * 8 - 1)
        with pytest.raises(ValueError, match="^the datasets would hold 920 rows x 8 columns, above the limit of 7,359$"):
            generate(spec(), partition)

    def test_no_rotation_builds_no_square_matrix(self, partition):
        """Without rotation no d x d matrix is built: at 2,000 columns and
        23 rows the peak stays under an eighth of one."""
        tracemalloc.start()
        try:
            generate(spec(feature_dim=2000, samples_per_class=1), partition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000

    def test_rotation_holds_at_most_what_the_rule_counts(self, partition):
        """At 500 columns and 23 rows, the peak of a rotated draw lies
        between its rows and 4 d**2 floats and its rows and the
        :func:`~uman.synth.rotation_floats` the memory rule counts."""
        rotated = spec(feature_dim=500, samples_per_class=1, domain_rotation=True)
        generate(rotated, partition)  # the allocations a first call makes once
        tracemalloc.start()
        try:
            generate(rotated, partition)
            peak = tracemalloc.get_traced_memory()[1] / 8
        finally:
            tracemalloc.stop()
        assert uman.synth.rotation_floats(rotated) == 1_062_500
        assert 23 * 500 + 4 * 500**2 < peak <= 23 * 500 + uman.synth.rotation_floats(rotated)

    def test_rotation_past_the_bound_is_refused(self, partition):
        message = "the datasets would hold 23 rows x 5000 columns + 106,250,000 rotation floats, above the limit of 100,000,000"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(spec(feature_dim=5000, samples_per_class=1, domain_rotation=True), partition)
        assert uman.synth.rotation_floats(spec(feature_dim=5000, samples_per_class=1)) == 0


def _permutation_pvalue(xa, xb, n_perm=300, seed=0):
    """Two-sample mean-difference permutation test."""
    pooled = np.concatenate([xa, xb])
    na = len(xa)
    obs = np.linalg.norm(xa.mean(axis=0) - xb.mean(axis=0))
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(len(pooled))
        stat = np.linalg.norm(pooled[perm[:na]].mean(axis=0) - pooled[perm[na:]].mean(axis=0))
        hits += stat >= obs
    return (1 + hits) / (n_perm + 1)


class TestDomainGapStatistics:
    def test_zero_shift_makes_domains_indistinguishable(self, partition):
        s1, _, tgt = generate(spec(domain_shift_scale=0.0), partition)
        c = partition.common_per_source[0][0]
        p = _permutation_pvalue(
            s1.features[s1.labels == c], tgt.features[tgt.eval_labels == c]
        )
        assert p > 0.01

    def test_unit_shift_is_detectable(self, partition):
        s1, _, tgt = generate(spec(domain_shift_scale=1.0), partition)
        c = partition.common_per_source[0][0]
        p = _permutation_pvalue(
            s1.features[s1.labels == c], tgt.features[tgt.eval_labels == c]
        )
        assert p < 0.01
