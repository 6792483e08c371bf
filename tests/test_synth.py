"""Synthetic data generator: determinism, knob isolation, domain-gap control."""

import numpy as np
import pytest
from helpers import per_step_batches, stacked_run_batches

from uman.core import CHUNK
from uman.labelspace import UmdaMatrix, partition_from_matrix
from uman.synth import (
    DomainDataset,
    SyntheticSpec,
    generate,
    run_batches,
)

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
        bad = SyntheticSpec(feature_dim=0, samples_per_class=0, noise_sigma=-1.0)
        msgs = bad.violations()
        assert len(msgs) == 3

    def test_defaults_are_valid(self):
        assert SyntheticSpec().violations() == []
        with pytest.raises(ValueError):
            generate(SyntheticSpec(feature_dim=0), partition_from_matrix(MATRIX))


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


class TestBatchIterator:
    """:func:`run_batches` for one run, the stream a run draws alone."""

    def _tagged_dataset(self, n, domain_id=0):
        # feature column 0 encodes the row's label so batch alignment is visible
        labels = np.arange(n) % 3
        features = np.zeros((n, 2))
        features[:, 0] = labels
        features[:, 1] = np.arange(n)
        return DomainDataset(domain_id, features, labels.astype(np.int64), None)

    def test_batches_keep_feature_label_alignment(self):
        source = self._tagged_dataset(30, domain_id=0)
        target = self._tagged_dataset(20, domain_id=1)
        it = run_batches([([source, target], 0)], 7)
        for _ in range(10):
            features, labels, sizes = next(it)
            assert sizes == (7, 7)
            assert features.shape == (1, 14, 2)
            np.testing.assert_array_equal(features[0, :7, 0], labels[0])

    def test_epoch_has_no_repeats_and_drops_tail(self):
        ds = self._tagged_dataset(10)
        it = run_batches([([ds], 3)], 4)
        seen = np.concatenate([next(it)[0][0, :, 1] for _ in range(2)])
        assert len(set(seen.tolist())) == 8  # 2 batches of 4 from one epoch of 10

    def test_small_domain_caps_batch_size(self):
        small = self._tagged_dataset(5, domain_id=0)
        large = self._tagged_dataset(50, domain_id=1)
        it = run_batches([([small, large], 0)], 32)
        alone = run_batches([([large], 0)], 32)
        for _ in range(3):
            features, labels, sizes = next(it)
            assert sizes == (5, 32)
            assert labels.shape == (1, 5)
            # each domain draws from its own seeded stream, stacked or not
            np.testing.assert_array_equal(features[:, 5:], next(alone)[0])

    def test_deterministic_per_seed(self):
        ds = self._tagged_dataset(20)
        a = next(run_batches([([ds], 5)], 8))[0]
        b = next(run_batches([([ds], 5)], 8))[0]
        np.testing.assert_array_equal(a, b)
        c = next(run_batches([([ds], 6)], 8))[0]
        assert not np.array_equal(a, c)

    def test_target_batches_stay_unlabeled(self, partition):
        datasets = generate(spec(), partition)
        features, labels, sizes = next(run_batches([(datasets, 0)], 16))
        assert sizes == (16, 16, 16)
        assert features.shape == (1, 48, 8)
        # labels cover the source rows only
        assert labels.shape == (1, 32)

    def test_rejects_empty_domains_and_bad_sizes(self):
        empty = DomainDataset(0, np.zeros((0, 2)), np.zeros(0, dtype=np.int64), None)
        with pytest.raises(ValueError, match="empty"):
            next(run_batches([([empty], 0)], 4))
        with pytest.raises(ValueError, match="batch_size"):
            next(run_batches([([self._tagged_dataset(5)], 0)], 0))
        with pytest.raises(ValueError, match="steps"):
            next(run_batches([([self._tagged_dataset(5)], 0)], 4, steps=0))
        unlabeled = DomainDataset(0, np.zeros((5, 2)), None, None)
        with pytest.raises(ValueError, match="no labels"):
            next(run_batches([([unlabeled, self._tagged_dataset(5, domain_id=1)], 0)], 4))


class TestChunkedDraws:
    """``run_batches(..., steps=K)`` draws K steps per item: the per-step
    stream, chunk by chunk."""

    @staticmethod
    def _domains(seed):
        # unequal lengths, one shorter than the batch; column 1 holds the
        # row's domain and column 0 its index there
        out = []
        for domain, n in enumerate((41, 6, 23, 30)):
            features = np.stack([np.arange(n), np.full(n, domain), np.full(n, seed)], axis=1).astype(float)
            labels = None if domain == 3 else np.arange(n) % 3
            out.append(DomainDataset(domain, features, labels, None))
        return out

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_chunks_follow_the_per_step_stream(self, n_runs):
        runs = [(self._domains(seed), seed + 11) for seed in range(n_runs)]
        # 3 epochs of the longest domain (5 batches of 8 each), and a step
        # count no chunk length divides
        steps = 3 * CHUNK + 5
        assert steps > 3 * (41 // 8) and steps % CHUNK
        reference = per_step_batches(runs, 8)
        chunks = run_batches(runs, 8, steps=CHUNK)
        for first in range(0, steps, CHUNK):
            features, labels, sizes = next(chunks)
            assert sizes == (8, 6, 8, 8)
            assert features.shape == (CHUNK, n_runs, 30, 3) and labels.shape == (CHUNK, n_runs, 22)
            for j in range(min(CHUNK, steps - first)):
                want_features, want_labels, want_sizes = next(reference)
                assert want_sizes == sizes
                assert features[j].tobytes() == want_features.tobytes()
                assert labels[j].tobytes() == want_labels.tobytes()

    def test_one_step_items_are_the_per_step_stream(self):
        runs = [(self._domains(seed), seed) for seed in range(2)]
        reference, stream = per_step_batches(runs, 8), run_batches(runs, 8)
        for _ in range(20):
            for got, want in zip(next(stream)[:2], next(reference)[:2]):
                assert got.tobytes() == want.tobytes()


class TestRunsOfUnequalLengths:
    """Runs whose datasets differ in length, but not in their sub-batch
    sizes, draw one stream: each run's rows are its stream alone."""

    @staticmethod
    def _domains(seed, lengths):
        out = []
        for domain, n in enumerate(lengths):
            features = np.stack([np.arange(n), np.full(n, domain), np.full(n, seed)], axis=1).astype(float)
            labels = None if domain == len(lengths) - 1 else np.arange(n) % 3
            out.append(DomainDataset(domain, features, labels, None))
        return out

    @pytest.mark.parametrize("steps", [None, CHUNK])
    def test_each_run_draws_its_own_stream(self, steps):
        # the second domain is shorter than the batch in every run; the
        # others differ in length from run to run
        runs = [
            (self._domains(0, (41, 6, 23, 30)), 11),
            (self._domains(1, (17, 6, 40, 9)), 12),
            (self._domains(2, (41, 6, 23, 30)), 13),
        ]
        stream = run_batches(runs, 8, steps=steps)
        alone = [stacked_run_batches([run], 8, steps=steps) for run in runs]
        for _ in range(3 * (41 // 8) + 1):
            features, labels, sizes = next(stream)
            assert sizes == (8, 6, 8, 8)
            axis = 0 if steps is None else 1
            for r, own in enumerate(alone):
                want_features, want_labels, want_sizes = next(own)
                assert want_sizes == sizes
                assert np.take(features, [r], axis).tobytes() == want_features.tobytes()
                assert np.take(labels, [r], axis).tobytes() == want_labels.tobytes()

    def test_runs_may_share_a_dataset(self):
        source = self._domains(0, (20, 9))[0]
        runs = [([source, target], seed) for seed, target in enumerate(self._domains(0, (9, 12, 15))[1:])]
        features, _, _ = next(run_batches(runs, 8))
        for r, run in enumerate(runs):
            assert features[r].tobytes() == next(stacked_run_batches([run], 8))[0][0].tobytes()

    def test_other_sub_batch_sizes_are_rejected(self):
        runs = [(self._domains(0, (41, 6, 30)), 0), (self._domains(1, (41, 7, 30)), 1)]
        with pytest.raises(ValueError, match=r"same sub-batch sizes: run 1 draws \(8, 7, 8\), run 0 \(8, 6, 8\)"):
            next(run_batches(runs, 8))
