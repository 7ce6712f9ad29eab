"""Evaluation metrics against brute-force and hand-derived oracles."""

import json

import numpy as np
import pytest

from slidebench.fileio import jsonable
from slidebench.metrics import (
    auroc,
    classification_report,
    confusion_matrix,
    macro_auroc,
    pr_curve,
    roc_curve,
)


def pairwise_auroc(y, s):
    """Brute-force P(s+ > s-) + 0.5 P(s+ = s-) over all pairs."""
    pos = s[np.asarray(y, dtype=bool)]
    neg = s[~np.asarray(y, dtype=bool)]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuroc:
    def test_known_example(self):
        # 4 positive-negative pairs, 3 wins: brute-forced by hand.
        y = np.asarray([0, 0, 1, 1])
        s = np.asarray([0.1, 0.4, 0.35, 0.8])
        assert pairwise_auroc(y, s) == 0.75
        assert auroc(y, s) == pytest.approx(0.75, abs=1e-12)

    def test_perfect_separation(self):
        y = np.asarray([0, 0, 0, 1, 1])
        s = np.asarray([0.1, 0.2, 0.3, 0.8, 0.9])
        assert auroc(y, s) == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_scores(self):
        y = np.asarray([0, 1, 0, 1])
        s = np.full(4, 0.5)
        assert auroc(y, s) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_oracle_random(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(4, 500))
            y = np.zeros(n, dtype=int)
            y[: max(1, int(rng.integers(1, n)))] = 1
            rng.shuffle(y)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            if rng.random() < 0.5:
                s = rng.normal(size=n) + y * rng.random() * 2
            else:
                # Heavy ties: few distinct score levels.
                s = rng.integers(0, 5, n).astype(float)
            assert auroc(y, s) == pytest.approx(pairwise_auroc(y, s), abs=1e-12)

    def test_negated_scores_complement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 100))
            y = (rng.random(n) < 0.4).astype(int)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            s = rng.normal(size=n)  # continuous, no ties
            assert auroc(y, -s) == pytest.approx(1.0 - auroc(y, s), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="undefined ROC"):
            auroc(np.ones(5), np.arange(5.0))


class TestRocCurve:
    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 120))
            y = (rng.random(n) < 0.5).astype(int)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            s = np.round(rng.normal(size=n), 1)
            c = roc_curve(y, s)
            assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
            assert (c.fpr[-1], c.tpr[-1]) == (1.0, 1.0)
            assert np.all(np.diff(c.fpr) >= 0)
            assert np.all(np.diff(c.tpr) >= 0)
            assert np.all(np.diff(c.thresholds) < 0)
            assert np.isinf(c.thresholds[0])

    def test_thresholds_are_distinct_scores(self):
        y = np.asarray([0, 1, 0, 1, 1])
        s = np.asarray([0.2, 0.8, 0.2, 0.8, 0.5])
        c = roc_curve(y, s)
        np.testing.assert_array_equal(c.thresholds[1:], [0.8, 0.5, 0.2])


class TestPrCurve:
    def test_perfect_separation_precision_one(self):
        y = np.asarray([0, 0, 1, 1])
        s = np.asarray([0.1, 0.2, 0.8, 0.9])
        c = pr_curve(y, s)
        np.testing.assert_allclose(c.precision, 1.0)
        assert c.recall[-1] == 1.0

    def test_all_positive_labels(self):
        y = np.ones(4, dtype=int)
        s = np.asarray([0.9, 0.5, 0.3, 0.1])
        c = pr_curve(y, s)
        np.testing.assert_allclose(c.precision, 1.0)
        assert c.recall[-1] == 1.0
        assert np.all(np.diff(c.recall) >= 0)

    def test_inverted_two_point_example(self):
        # Thresholds 0.9 then 0.1: at recall 1 both rows are predicted
        # positive and precision is 1/2 (enumerated by hand).
        y = np.asarray([0, 1])
        s = np.asarray([0.9, 0.1])
        c = pr_curve(y, s)
        assert c.recall[-1] == 1.0
        assert c.precision[-1] == pytest.approx(0.5)
        assert c.precision[0] == pytest.approx(0.0)  # top score is a negative

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="no positive"):
            pr_curve(np.zeros(3), np.arange(3.0))


class TestMacroAuroc:
    def test_perfect_probabilities(self):
        y = np.asarray([0, 1, 2, 0, 1, 2])
        proba = np.eye(3)[y]
        assert macro_auroc(y, proba) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_probabilities_half(self):
        y = np.asarray([0, 1, 2, 0, 1, 2])
        proba = np.full((6, 3), 1 / 3)
        assert macro_auroc(y, proba) == pytest.approx(0.5, abs=1e-12)

    def test_equals_mean_of_pairwise_oracles(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, 50)
        y[:3] = [0, 1, 2]
        proba = rng.random((50, 3))
        proba /= proba.sum(axis=1, keepdims=True)
        expected = np.mean([pairwise_auroc(y == c, proba[:, c]) for c in range(3)])
        assert macro_auroc(y, proba) == pytest.approx(expected, abs=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="every class"):
            macro_auroc(np.asarray([0, 1, 0, 1]), np.full((4, 3), 1 / 3))


class TestClassificationReport:
    def test_perfect_predictions(self):
        y = np.asarray([0, 1, 2, 0, 1, 2])
        proba = np.eye(3)[y] * 0.94 + 0.02
        report = classification_report(y, proba)
        assert report.accuracy == 1.0
        for m in report.per_class.values():
            assert m.f1 == 1.0
            assert m.precision == 1.0
            assert m.recall == 1.0
            assert m.fpr == 0.0

    def test_hand_counted_binary_style(self):
        # For class 0: TP=2, FP=1, FN=1 -> precision=recall=F1=2/3.
        y_true = np.asarray([0, 0, 0, 1, 1, 2])
        y_pred = np.asarray([0, 0, 1, 0, 1, 2])
        proba = np.eye(3)[y_pred]
        report = classification_report(y_true, proba)
        m = report.per_class["basaloid"]
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_confusion_matrix_row_sums(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 3, 60)
        proba = rng.random((60, 3))
        proba /= proba.sum(axis=1, keepdims=True)
        report = classification_report(y, proba)
        np.testing.assert_array_equal(
            report.confusion_matrix.sum(axis=1), np.bincount(y, minlength=3)
        )
        assert report.accuracy == pytest.approx(np.trace(report.confusion_matrix) / 60)

    def test_recall_equals_tpr_and_f1_identity(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 3, 80)
        proba = rng.random((80, 3))
        proba /= proba.sum(axis=1, keepdims=True)
        report = classification_report(y, proba)
        for m in report.per_class.values():
            assert m.recall == m.tpr
            if m.precision + m.recall > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall)
                )

    def test_zero_denominator_flagged_not_inflated(self):
        # Nothing predicted as class 2: precision 0 with the flag set.
        y = np.asarray([0, 1, 2, 0])
        pred = np.asarray([0, 1, 0, 0])
        proba = np.eye(3)[pred]
        report = classification_report(y, proba)
        assert report.zero_denominator
        assert report.per_class["squamous"].precision == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            classification_report(np.zeros(3, dtype=int), np.full((4, 3), 1 / 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        proba = np.full((4, 3), 1 / 3)
        proba[1, 2] = proba[3, 0] = proba[3, 1] = bad
        with pytest.raises(ValueError, match="^2 of 4 probability rows are not finite$"):
            classification_report(np.asarray([0, 1, 2, 0]), proba)

    def test_json_schema_table3_layout(self):
        y = np.asarray([0, 1, 2, 0, 1, 2])
        proba = np.eye(3)[y]
        report = classification_report(y, proba, classifier="knn(k=1)", backend="bk")
        doc = jsonable(report)
        text = json.dumps(doc)
        assert doc["classifier"] == "knn(k=1)"
        assert doc["backend"] == "bk"
        # Per-category F1 entries, the Table 3 axis.
        for cat in ("basaloid", "melanocytic", "squamous"):
            assert "f1" in doc["per_class"][cat]
        for metric in ("accuracy", "macro_auroc", "confusion_matrix"):
            assert metric in doc
        json.loads(text)  # serializable

    def test_curves_present_per_class(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 3, 30)
        y[:3] = [0, 1, 2]
        proba = rng.random((30, 3))
        proba /= proba.sum(axis=1, keepdims=True)
        report = classification_report(y, proba)
        assert set(report.roc_curves) == {"basaloid", "melanocytic", "squamous"}
        assert set(report.pr_curves) == {"basaloid", "melanocytic", "squamous"}


class TestConfusionMatrix:
    def test_entries(self):
        cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2])
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])

    def test_per_class_auroc_is_the_area_of_its_roc_curve(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 3, 40)
        proba = np.round(rng.random((40, 3)), 1)  # ties between scores
        report = classification_report(y, proba)
        for c, name in enumerate(("basaloid", "melanocytic", "squamous")):
            assert report.per_class[name].auroc == auroc(y == c, proba[:, c])
            curve = report.roc_curves[name]
            np.testing.assert_array_equal(curve.fpr, roc_curve(y == c, proba[:, c]).fpr)
