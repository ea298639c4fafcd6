"""Confusion counts, classification reports, and multi-label scoring."""

import re
from collections import Counter

import numpy as np
import pytest

from harmkit.metrics import classification_report, confusion, multilabel_report


def confusion_loop(gold, pred, num_classes=4):
    """The per-row tally ``confusion`` replaced, kept as its oracle."""
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for g, p in zip(gold, pred):
        if not (0 <= g < num_classes and 0 <= p < num_classes):
            raise ValueError(f"label pair ({g}, {p}) outside 0..{num_classes - 1}")
        counts[g, p] += 1
    return counts


class TestConfusion:
    @pytest.mark.parametrize("num_classes", [1, 2, 4, 7])
    def test_matches_loop_oracle(self, num_classes):
        rng = np.random.default_rng(num_classes)
        for n in (1, 2, 13, 1000):
            gold = rng.integers(0, num_classes, n)
            pred = rng.integers(0, num_classes, n)
            for g, p in ((gold, pred), (gold.tolist(), pred.tolist())):
                counts = confusion(g, p, num_classes=num_classes)
                assert counts.dtype == np.int64
                assert np.array_equal(counts, confusion_loop(g, p, num_classes))

    @pytest.mark.parametrize("gold, pred", [
        ([0, 1, 4, 5], [0, 1, 2, 9]), ([0, -1, 2], [0, 0, -3]), ([1, 2], [3, 4]),
        ([3, 3, 0], [3, 3, -1]), (np.array([0, 7]), np.array([8, 0])),
    ])
    def test_out_of_range_names_the_first_pair_like_the_loop(self, gold, pred):
        with pytest.raises(ValueError) as want:
            confusion_loop(gold, pred)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            confusion(gold, pred)

    def test_perfect_diagonal(self):
        counts = confusion([0, 1], [0, 1])
        assert counts[0, 0] == 1
        assert counts[1, 1] == 1
        assert counts.sum() == 2

    def test_single_cell(self):
        counts = confusion([0], [3])
        assert counts[0, 3] == 1
        assert counts.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            confusion([0, 1], [0])

    def test_row_sums_match_independent_tally(self):
        rng = np.random.default_rng(37)
        gold = [int(x) for x in rng.integers(0, 4, 1000)]
        pred = [int(x) for x in rng.integers(0, 4, 1000)]
        counts = confusion(gold, pred)
        tally = Counter(gold)
        for c in range(4):
            assert counts[c].sum() == tally.get(c, 0)


class TestClassificationReport:
    def test_perfect(self):
        report = classification_report(confusion([0, 1, 2, 3] * 5, [0, 1, 2, 3] * 5))
        assert report.f1 == (1.0, 1.0, 1.0, 1.0)
        assert report.macro_f1 == 1.0
        assert report.micro_f1 == 1.0
        assert report.weighted_f1 == 1.0

    def test_hand_evaluated_class(self):
        # Class 0: TP=1, FP=1, FN=0  ->  P=0.5, R=1, F1=2/3.
        gold = [0, 1, 1]
        pred = [0, 0, 1]
        report = classification_report(confusion(gold, pred))
        assert report.precision[0] == pytest.approx(0.5)
        assert report.recall[0] == pytest.approx(1.0)
        assert report.f1[0] == pytest.approx(2 / 3, abs=1e-9)

    def test_degenerate_class_zero_convention(self):
        # Class 3 never appears in gold or pred: P = R = F1 = 0, included in macro.
        gold = [0, 1, 2, 0, 1, 2]
        pred = [0, 1, 2, 0, 1, 2]
        report = classification_report(confusion(gold, pred))
        assert report.f1[3] == 0.0
        assert report.support[3] == 0
        assert report.macro_f1 == pytest.approx(3 / 4)
        assert report.weighted_f1 == pytest.approx(1.0)

    def test_micro_equals_accuracy_identity(self):
        rng = np.random.default_rng(41)
        gold = [int(x) for x in rng.integers(0, 4, 1000)]
        pred = [int(x) for x in rng.integers(0, 4, 1000)]
        report = classification_report(confusion(gold, pred))
        accuracy = sum(g == p for g, p in zip(gold, pred)) / 1000
        assert abs(report.micro_f1 - accuracy) < 1e-12

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(43)
        gold = [int(x) for x in rng.integers(0, 4, 200)]
        pred = [int(x) for x in rng.integers(0, 4, 200)]
        base = classification_report(confusion(gold, pred))
        perm = rng.permutation(200)
        shuffled = classification_report(confusion([gold[i] for i in perm], [pred[i] for i in perm]))
        assert base == shuffled

    def test_macro_one_iff_diagonal_with_support(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            gold = [int(x) for x in rng.integers(0, 4, 40)]
            pred = [int(x) for x in rng.integers(0, 4, 40)]
            counts = confusion(gold, pred)
            report = classification_report(counts)
            diagonal = (counts.sum() == np.trace(counts)) and all(s > 0 for s in report.support)
            assert report.macro_f1 <= 1.0
            assert (report.macro_f1 == 1.0) == diagonal

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="empty confusion matrix"):
            classification_report(np.zeros((4, 4), dtype=np.int64))

    def test_deterministic(self):
        gold = [0, 1, 2, 3, 0]
        pred = [0, 2, 2, 3, 1]
        a = classification_report(confusion(gold, pred))
        b = classification_report(confusion(gold, pred))
        assert a == b


class TestMultilabelReport:
    def test_perfect(self):
        gold = [(1, 0, 1, 0, 0), (0, 1, 0, 0, 1)]
        sigmas = np.array([[0.9, 0.1, 0.8, 0.2, 0.3], [0.1, 0.7, 0.4, 0.2, 0.9]])
        report = multilabel_report(gold, sigmas, eta=0.5)
        assert report.micro_f1 == 1.0

    def test_all_zero_sigmas(self):
        gold = [(1, 0, 1, 0, 0), (0, 1, 0, 0, 1)]
        sigmas = np.zeros((2, 5))
        report = multilabel_report(gold, sigmas, eta=0.5)
        assert report.micro_f1 == 0.0
        assert all(r == 0.0 for r in report.recall)

    def test_hand_pooled_fixture(self):
        # Decisions [[1,0,0,0,0],[0,1,0,1,0]] against gold [[1,0,1,0,0],[0,1,0,0,0]]:
        # pooled TP=2, FP=1, FN=1 -> micro-F1 = 2*2/(2*2+1+1) = 2/3.
        gold = [(1, 0, 1, 0, 0), (0, 1, 0, 0, 0)]
        sigmas = np.array([[0.9, 0.1, 0.2, 0.1, 0.1], [0.2, 0.8, 0.3, 0.6, 0.4]])
        report = multilabel_report(gold, sigmas, eta=0.5)
        assert report.micro_f1 == pytest.approx(0.666666666667, abs=1e-9)

    def test_threshold_is_inclusive(self):
        gold = [(1, 0, 0, 0, 0)]
        sigmas = np.array([[0.5, 0.0, 0.0, 0.0, 0.0]])
        assert multilabel_report(gold, sigmas, eta=0.5).micro_f1 == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            multilabel_report([(1, 0, 0, 0, 0)], np.zeros((2, 5)), eta=0.5)

    def test_per_target_support(self):
        gold = [(1, 0, 1, 0, 0), (1, 1, 0, 0, 0)]
        report = multilabel_report(gold, np.zeros((2, 5)), eta=0.5)
        assert report.support == (2, 1, 1, 0, 0)
