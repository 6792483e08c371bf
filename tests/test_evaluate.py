"""Evaluation protocol arithmetic, baselines, transfer gain, and probes."""

import re
import warnings
import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from helpers import standard_hp

import uman.nn
from uman.core import METHODS, UNKNOWN, train
from uman.evaluate import (
    PROBE_KINDS,
    EvalReport,
    ProbeReport,
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
        report = score_predictions(preds, labels, partition, 0.5)
        assert report.per_class_accuracy[str(c)] == 1.0
        assert report.n_evaluated["unknown"] == 0
        assert "unknown" in report.excluded

    def test_zero_sample_entries_are_excluded_without_a_warning(self, partition):
        dropped = partition.common_union[0]
        kept = [c for c in partition.common_union if c != dropped]
        labels = np.asarray(kept)
        preds = labels.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = score_predictions(preds, labels, partition, 0.5)
        assert report.excluded == (str(dropped), "unknown")
        assert str(dropped) not in report.per_class_accuracy
        assert report.n_evaluated[str(dropped)] == 0
        assert report.mean_per_class_accuracy == 1.0

    def test_predictions_and_labels_of_two_shapes_are_named(self, partition):
        labels = np.asarray(partition.target_labels)
        with pytest.raises(ValueError, match=re.escape(
            f"predictions of shape ({len(labels) - 1},) do not match labels of shape ({len(labels)},)"
        )):
            score_predictions(labels[1:], labels, partition, 0.5)

    def test_nothing_to_score_is_an_error(self, partition):
        stray = partition.source_private_union[0]
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

    def test_labels_training_would_refuse_are_refused(self, partition):
        # the target check of training, with its messages: a row relabelled
        # to a source-private class, labels of no set, one label short
        datasets, test, _, hp = small_setup()
        result = train(datasets, partition, replace(hp, max_steps=0))
        private = partition.source_private_union[0]
        for labels, message in [
            (np.concatenate([test.eval_labels[:-3], [private] * 3]), f"target evaluation labels [{private}] outside"),
            (np.full(len(test), 99), "target evaluation labels [99] outside the target label set"),
            (test.eval_labels[1:], f"dataset 2 has eval_labels of shape ({len(test) - 1},), not one per row ({len(test)},)"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                evaluate(result.feature_net, result.classifier, replace(test, eval_labels=labels), partition, 0.5)

    @pytest.mark.parametrize("w0, error, message", [
        (float("nan"), ValueError, "w0 must be a finite number, got nan"),
        (1.5, ValueError, "w0 must lie in [0, 1], got 1.5"),
        (-0.1, ValueError, "w0 must lie in [0, 1], got -0.1"),
        ("0.5", TypeError, "w0 must be a real number, got '0.5'"),
    ])
    def test_threshold_hyperparams_would_refuse_is_refused(self, partition, w0, error, message):
        datasets, test, _, hp = small_setup()
        result = train(datasets, partition, replace(hp, max_steps=0))
        with pytest.raises(error, match=re.escape(message)):
            evaluate(result.feature_net, result.classifier, test, partition, w0)
        with pytest.raises(error, match=re.escape(message)):
            score_predictions(test.eval_labels, test.eval_labels, partition, w0)

    def test_report_is_json_with_a_float_threshold(self, partition):
        datasets, test, _, hp = small_setup()
        result = train(datasets, partition, replace(hp, max_steps=0))
        report = evaluate(result.feature_net, result.classifier, test, partition, 1)
        assert type(report.w0) is float
        json.dumps(asdict(report), allow_nan=False)


def train_and_score(method, datasets, test, partition, hp):
    result = train(datasets, partition, hp, method=method)
    return evaluate(result.feature_net, result.classifier, test, partition, hp.w0)


class TestRunMethodAndBaselines:
    def test_unknown_method_rejected(self):
        datasets, test, partition, hp = small_setup()
        with pytest.raises(ValueError, match="unknown method"):
            train_and_score("dann", datasets, test, partition, hp)

    def test_report_holds_what_was_measured(self):
        # a run's config hash, method and seed are its caller's to record
        datasets, test, partition, hp = small_setup()
        report = train_and_score("uman", datasets, test, partition, hp)
        assert report.w0 == hp.w0
        assert [f.name for f in fields(EvalReport)] == [
            "w0", "per_class_accuracy", "mean_per_class_accuracy", "n_evaluated", "excluded"
        ]
        assert [f.name for f in fields(ProbeReport)] == ["balanced_accuracy", "n_a", "n_b"]

    def test_same_seed_same_report(self):
        datasets, test, partition, hp = small_setup()
        a = train_and_score("source_only", datasets, test, partition, hp)
        b = train_and_score("source_only", datasets, test, partition, hp)
        assert a == b

    def test_methods_table_covers_all_method_names(self):
        assert set(METHODS) == {"uman", "source_only", "unweighted_adv"}


class TestTransferGain:
    def _report(self, mean, **kw):
        base = dict(
            w0=0.5,
            per_class_accuracy={"0": mean, "unknown": mean},
            mean_per_class_accuracy=mean,
            n_evaluated={"0": 10, "unknown": 10},
        )
        base.update(kw)
        return EvalReport(**base)

    def test_difference_of_means(self):
        gain = transfer_gain(self._report(0.8), self._report(0.7))
        assert gain == pytest.approx(0.1)
        same = self._report(0.6)
        assert transfer_gain(same, same) == 0.0

    def test_mismatched_setups_rejected(self):
        baseline = self._report(0.7)
        with pytest.raises(ValueError, match=re.escape("different configurations: w0 0.3 against 0.5")):
            transfer_gain(self._report(0.8, w0=0.3), baseline)
        with pytest.raises(ValueError, match="different configurations: n_evaluated"):
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

    @pytest.mark.parametrize("pair", [(1, 1), (2, 2)])
    def test_source_probed_against_itself_rejected(self, partition, pair):
        datasets = generate(SyntheticSpec(feature_dim=8, samples_per_class=10, seed=8), partition)
        with pytest.raises(ValueError, match=re.escape(f"probe pair {pair} names source {pair[0]} twice")):
            alignment_probe(_fresh_feature_net(8), datasets, partition, "source-vs-source-shared", pair=pair)

    def test_unknown_kind_rejected(self, partition):
        spec = SyntheticSpec(feature_dim=8, samples_per_class=10, seed=8)
        datasets = generate(spec, partition)
        with pytest.raises(ValueError, match="probe kind"):
            alignment_probe(_fresh_feature_net(8), datasets, partition, "bogus")
        assert len(PROBE_KINDS) == 3

    def test_unknown_kind_is_named_before_the_target_is_read(self, partition):
        datasets = generate(SyntheticSpec(feature_dim=8, samples_per_class=10, seed=9), partition)
        datasets[-1] = DomainDataset(2, datasets[-1].features, None, None)
        with pytest.raises(ValueError, match=f"^unknown probe kind 'bogus'; expected one of {re.escape(str(PROBE_KINDS))}$"):
            alignment_probe(_fresh_feature_net(8), datasets, partition, "bogus")

    @pytest.mark.parametrize(
        "seed, error, message",
        [
            (-1, ValueError, "seed must be >= 0, got -1"),
            (1.5, TypeError, "seed must be integral, got 1.5"),
            ("1", TypeError, "seed must be integral, got '1'"),
            (True, TypeError, "seed must be integral, got True"),
        ],
    )
    def test_seed_is_refused_by_name(self, partition, seed, error, message):
        datasets = generate(SyntheticSpec(feature_dim=8, samples_per_class=10, seed=9), partition)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            alignment_probe(_fresh_feature_net(8), datasets, partition, "source-vs-target-common", seed=seed)

    def test_target_labels_required(self, partition):
        spec = SyntheticSpec(feature_dim=8, samples_per_class=10, seed=9)
        datasets = generate(spec, partition)
        datasets[-1] = DomainDataset(2, datasets[-1].features, None, None)
        with pytest.raises(ValueError, match="no evaluation labels"):
            alignment_probe(
                _fresh_feature_net(8), datasets, partition, "source-vs-target-common"
            )
