"""Evaluation protocol arithmetic, baselines, transfer gain, and probes."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from helpers import standard_hp

import uman.nn
from uman.core import METHODS, UNKNOWN, train
from uman.evaluate import (
    PROBE_KINDS,
    EvalReport,
    alignment_probe,
    evaluate,
    score_predictions,
    transfer_gain,
)
from uman.labelspace import UmdaMatrix, partition_from_matrix
from uman.nn import Mlp
from uman.synth import DomainDataset, SyntheticSpec, generate

MATRIX = UmdaMatrix((4, 4), (3, 3), 6, 3)


@pytest.fixture(scope="module")
def partition():
    return partition_from_matrix(MATRIX)


def _oracle_preds(labels, partition):
    """Perfect predictor: exact class inside C, UNKNOWN on target-private."""
    private = np.asarray(partition.target_private)
    return np.where(np.isin(labels, private), UNKNOWN, labels)


class TestScorePredictions:
    def test_oracle_predictor_scores_one(self, partition):
        rng = np.random.default_rng(0)
        labels = rng.choice(np.asarray(partition.target_labels), size=200)
        report = score_predictions(_oracle_preds(labels, partition), labels, partition, 0.5)
        assert report.mean_per_class_accuracy == 1.0
        assert set(report.per_class_accuracy.values()) == {1.0}

    def test_constant_unknown_scores_one_over_c_plus_one(self, partition):
        rng = np.random.default_rng(1)
        labels = rng.choice(np.asarray(partition.target_labels), size=300)
        preds = np.full_like(labels, UNKNOWN)
        report = score_predictions(preds, labels, partition, 0.5)
        n_common = len(partition.common_union)
        assert report.per_class_accuracy["unknown"] == 1.0
        for c in partition.common_union:
            assert report.per_class_accuracy[str(c)] == 0.0
        assert report.mean_per_class_accuracy == pytest.approx(1.0 / (n_common + 1))

    def test_matches_confusion_matrix_recomputation(self, partition):
        rng = np.random.default_rng(2)
        labels = rng.choice(np.asarray(partition.target_labels), size=400)
        preds = rng.choice(
            np.concatenate([[UNKNOWN], np.asarray(partition.source_union)]), size=400
        )
        report = score_predictions(preds, labels, partition, 0.5)
        entries = []
        for c in partition.common_union:
            hits = sum(1 for p, y in zip(preds, labels) if y == c and p == c)
            n = sum(1 for y in labels if y == c)
            assert report.n_evaluated[str(c)] == n
            want = hits / n
            assert report.per_class_accuracy[str(c)] == pytest.approx(want, abs=1e-12)
            entries.append(want)
        private = set(partition.target_private)
        hits = sum(1 for p, y in zip(preds, labels) if y in private and p == UNKNOWN)
        n = sum(1 for y in labels if y in private)
        assert report.per_class_accuracy["unknown"] == pytest.approx(hits / n, abs=1e-12)
        entries.append(hits / n)
        assert report.mean_per_class_accuracy == pytest.approx(np.mean(entries), abs=1e-12)

    def test_source_private_labels_count_nowhere(self, partition):
        # a stray source-private label must not create or pollute any entry
        c = partition.common_union[0]
        stray = partition.source_private_union[0]
        labels = np.array([c, c, stray])
        preds = np.array([c, c, stray])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = score_predictions(preds, labels, partition, 0.5)
        assert report.per_class_accuracy[str(c)] == 1.0
        assert report.n_evaluated["unknown"] == 0
        assert "unknown" in report.excluded

    def test_zero_sample_entries_warn_and_are_excluded(self, partition):
        dropped = partition.common_union[0]
        kept = [c for c in partition.common_union if c != dropped]
        labels = np.asarray(kept)
        preds = labels.copy()
        with pytest.warns(UserWarning, match="entry 'unknown'"), pytest.warns(UserWarning, match=f"entry '{dropped}'"):
            report = score_predictions(preds, labels, partition, 0.5)
        assert str(dropped) in report.excluded
        assert "unknown" in report.excluded
        assert str(dropped) not in report.per_class_accuracy
        assert report.n_evaluated[str(dropped)] == 0
        assert report.mean_per_class_accuracy == 1.0

    def test_nothing_to_score_is_an_error(self, partition):
        stray = partition.source_private_union[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="empty"):
                score_predictions(np.array([stray]), np.array([stray]), partition, 0.5)


def small_setup(seed=0, **kw):
    partition = partition_from_matrix(MATRIX)
    spec_kw = dict(feature_dim=8, samples_per_class=25, seed=seed)
    spec_kw.update({k: v for k, v in kw.items() if k in SyntheticSpec.__dataclass_fields__})
    spec = SyntheticSpec(**spec_kw)
    datasets = generate(spec, partition)
    test = generate(spec, partition, draw=1)[-1]
    hp = standard_hp(
        max_steps=kw.get("max_steps", 30),
        batch_size=16,
        feature_hidden=(16,),
        feature_dim=8,
        disc_hidden=(8,),
        seed=seed,
    )
    return datasets, test, partition, hp


class TestEvaluate:
    def test_equals_score_of_raw_predictions(self):
        datasets, test, partition, hp = small_setup()
        result = train(datasets, partition, hp)
        from uman.core import predict_classes

        report = evaluate(result.feature_net, result.classifier, test, partition, 0.4)
        preds = predict_classes(result.feature_net, result.classifier, test.features, 0.4)
        again = score_predictions(preds, test.eval_labels, partition, 0.4)
        assert report == again

    def test_requires_labels_and_samples(self, partition):
        datasets, test, _, hp = small_setup()
        result = train(datasets, partition, replace(hp, max_steps=0))
        bare = DomainDataset(2, test.features, None, None)
        with pytest.raises(ValueError, match="no evaluation labels"):
            evaluate(result.feature_net, result.classifier, bare, partition, 0.5)
        empty = DomainDataset(2, test.features[:0], None, test.eval_labels[:0])
        with pytest.raises(ValueError, match="empty"):
            evaluate(result.feature_net, result.classifier, empty, partition, 0.5)


def train_and_score(method, datasets, test, partition, hp, **meta):
    result = train(datasets, partition, hp, method=method)
    return evaluate(result.feature_net, result.classifier, test, partition, hp.w0, method=method, **meta)


class TestRunMethodAndBaselines:
    def test_unknown_method_rejected(self):
        datasets, test, partition, hp = small_setup()
        with pytest.raises(ValueError, match="unknown method"):
            train_and_score("dann", datasets, test, partition, hp)

    def test_method_tag_and_metadata_propagate(self):
        datasets, test, partition, hp = small_setup()
        report = train_and_score(
            "uman", datasets, test, partition, hp, config_hash="abc123", seed=7
        )
        assert report.method == "uman"
        assert report.config_hash == "abc123"
        assert report.seed == 7
        assert report.w0 == hp.w0

    def test_same_seed_same_report(self):
        datasets, test, partition, hp = small_setup()
        a = train_and_score("source_only", datasets, test, partition, hp)
        b = train_and_score("source_only", datasets, test, partition, hp)
        assert a == b

    def test_methods_table_covers_all_method_names(self):
        assert set(METHODS) == {"uman", "source_only", "unweighted_adv"}


class TestTransferGain:
    def _report(self, mean, method="uman", **kw):
        base = dict(
            method=method,
            w0=0.5,
            per_class_accuracy={"0": mean, "unknown": mean},
            mean_per_class_accuracy=mean,
            n_evaluated={"0": 10, "unknown": 10},
            config_hash="cafe",
            seed=0,
        )
        base.update(kw)
        return EvalReport(**base)

    def test_difference_of_means(self):
        gain = transfer_gain(self._report(0.8), self._report(0.7, method="source_only"))
        assert gain == pytest.approx(0.1)
        same = self._report(0.6, method="source_only")
        assert transfer_gain(replace(same, method="uman"), same) == 0.0

    def test_baseline_must_be_source_only(self):
        with pytest.raises(ValueError, match="not source_only"):
            transfer_gain(self._report(0.8), self._report(0.7, method="unweighted_adv"))

    def test_mismatched_setups_rejected(self):
        baseline = self._report(0.7, method="source_only")
        with pytest.raises(ValueError, match="different configurations"):
            transfer_gain(self._report(0.8, w0=0.3), baseline)
        with pytest.raises(ValueError, match="different configurations"):
            transfer_gain(self._report(0.8, config_hash="beef"), baseline)
        with pytest.raises(ValueError, match="different configurations"):
            transfer_gain(
                self._report(0.8, n_evaluated={"0": 9, "unknown": 10}), baseline
            )


class TestZeroGapSanity:
    def test_no_domain_gap_means_high_known_class_accuracy(self):
        # disjoint shared blocks, no shift: adaptation-free ceiling check
        matrix = UmdaMatrix((3, 3), (2, 2), 6, 2)
        partition = partition_from_matrix(matrix)
        spec = SyntheticSpec(
            feature_dim=16,
            samples_per_class=60,
            domain_shift_scale=0.0,
            seed=0,
            class_center_scale=1.0,
            noise_sigma=0.45,
        )
        datasets = generate(spec, partition)
        test = generate(spec, partition, draw=1)[-1]
        hp = standard_hp(max_steps=800, seed=0)
        result = train(datasets, partition, hp)
        report = evaluate(result.feature_net, result.classifier, test, partition, hp.w0)
        known = [report.per_class_accuracy[str(c)] for c in partition.common_union]
        assert float(np.mean(known)) > 0.9


def _fresh_feature_net(in_dim, seed=0):
    return Mlp([in_dim, 16, 8], ["relu", "linear"], np.random.default_rng(seed))


class TestAlignmentProbe:
    def test_identical_populations_probe_near_chance(self):
        # both sources carry the same shared block; zero shift makes their
        # feature populations identically distributed
        matrix = UmdaMatrix((4, 4), (0, 0), 4, 0)
        partition = partition_from_matrix(matrix)
        spec = SyntheticSpec(
            feature_dim=8, samples_per_class=300, domain_shift_scale=0.0, seed=3
        )
        datasets = generate(spec, partition)
        report = alignment_probe(
            _fresh_feature_net(8), datasets, partition, "source-vs-source-shared"
        )
        assert abs(report.balanced_accuracy - 0.5) <= 0.07

    def test_separated_populations_probe_near_one(self, partition):
        spec = SyntheticSpec(
            feature_dim=8, samples_per_class=60, domain_shift_scale=6.0, seed=4
        )
        datasets = generate(spec, partition)
        report = alignment_probe(
            _fresh_feature_net(8), datasets, partition, "source-vs-target-private"
        )
        assert report.balanced_accuracy >= 0.95

    def test_swapping_populations_is_stable(self):
        matrix = UmdaMatrix((4, 4), (1, 1), 6, 1)
        partition = partition_from_matrix(matrix)
        spec = SyntheticSpec(feature_dim=8, samples_per_class=80, seed=5)
        datasets = generate(spec, partition)
        net = _fresh_feature_net(8, seed=1)
        fwd = alignment_probe(datasets=datasets, feature_net=net, partition=partition,
                              kind="source-vs-source-shared", pair=(1, 2))
        rev = alignment_probe(datasets=datasets, feature_net=net, partition=partition,
                              kind="source-vs-source-shared", pair=(2, 1))
        assert abs(fwd.balanced_accuracy - rev.balanced_accuracy) <= 0.02

    def test_population_counts_reported(self, partition):
        spec = SyntheticSpec(feature_dim=8, samples_per_class=30, seed=6)
        datasets = generate(spec, partition)
        report = alignment_probe(
            _fresh_feature_net(8), datasets, partition, "source-vs-target-common"
        )
        # sources contribute every sample labeled in the shared union, so a
        # label carried by both sources weighs twice a singly carried one,
        # matching its mass in the even source mixture
        want_a = sum(
            int(np.isin(ds.labels, partition.common_union).sum()) for ds in datasets[:-1]
        )
        want_b = int(np.isin(datasets[-1].eval_labels, partition.common_union).sum())
        assert report.n_a == want_a
        assert report.n_b == want_b
        assert report.kind == "source-vs-target-common"

    def test_one_plan_trains_the_probe(self, partition, monkeypatch):
        """The probe lays out one plan for its 300 training steps, beside
        one each for the two populations' features and the two held-out
        scorings."""
        laid = []
        init = uman.nn.Plan.__init__

        def counting(plan, *args):
            laid.append(args)
            init(plan, *args)

        monkeypatch.setattr(uman.nn.Plan, "__init__", counting)
        spec = SyntheticSpec(feature_dim=8, samples_per_class=30, seed=6)
        alignment_probe(_fresh_feature_net(8), generate(spec, partition), partition, "source-vs-target-common")
        assert len(laid) == 5

    def test_empty_population_is_named(self):
        matrix = UmdaMatrix((3, 3), (2, 2), 6, 2)  # disjoint shared blocks
        partition = partition_from_matrix(matrix)
        spec = SyntheticSpec(feature_dim=8, samples_per_class=10, seed=7)
        datasets = generate(spec, partition)
        with pytest.raises(ValueError, match="share no classes"):
            alignment_probe(
                _fresh_feature_net(8), datasets, partition, "source-vs-source-shared"
            )

    def test_population_of_fewer_than_five_rows_is_named(self, partition):
        # one sample per class leaves the 3 target-private classes 3 rows
        datasets = generate(SyntheticSpec(feature_dim=8, samples_per_class=1, seed=8), partition)
        with pytest.raises(ValueError, match=r"^population of target samples has only 3 samples; need at least 5$"):
            alignment_probe(_fresh_feature_net(8), datasets, partition, "source-vs-target-private")

    @pytest.mark.parametrize("pair", [(0, 2), (1, 3)])
    def test_source_outside_the_partition_rejected(self, partition, pair):
        spec = SyntheticSpec(feature_dim=8, samples_per_class=10, seed=8)
        datasets = generate(spec, partition)
        with pytest.raises(ValueError, match=re.escape(f"probe pair {pair} names a source outside [1, 2]")):
            alignment_probe(_fresh_feature_net(8), datasets, partition, "source-vs-source-shared", pair=pair)

    def test_unknown_kind_rejected(self, partition):
        spec = SyntheticSpec(feature_dim=8, samples_per_class=10, seed=8)
        datasets = generate(spec, partition)
        with pytest.raises(ValueError, match="probe kind"):
            alignment_probe(_fresh_feature_net(8), datasets, partition, "bogus")
        assert len(PROBE_KINDS) == 3

    def test_target_labels_required(self, partition):
        spec = SyntheticSpec(feature_dim=8, samples_per_class=10, seed=9)
        datasets = generate(spec, partition)
        datasets[-1] = DomainDataset(2, datasets[-1].features, None, None)
        with pytest.raises(ValueError, match="no evaluation labels"):
            alignment_probe(
                _fresh_feature_net(8), datasets, partition, "source-vs-target-common"
            )
