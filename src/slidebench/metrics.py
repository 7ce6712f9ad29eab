"""Classification metrics: confusion matrix, per-class rates, ROC/PR, AUROC.

Multi-class metrics are one-vs-rest per category with macro averaging.
An empty precision/recall denominator reports 0 and raises a flag in the
report rather than silently inflating small-class scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .categories import CLASSIFIED_CATEGORIES, N_CLASSES


@dataclass
class RocCurve:
    """One-vs-rest ROC curve; thresholds descend, first point is (0,0)."""

    thresholds: np.ndarray  # (k,) descending, thresholds[0] = +inf
    fpr: np.ndarray         # (k,) non-decreasing from 0 to 1
    tpr: np.ndarray         # (k,) non-decreasing from 0 to 1


@dataclass
class PrCurve:
    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray      # non-decreasing, ends at 1


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    tpr: float
    fpr: float
    auroc: float | None
    support: int


@dataclass
class EvaluationReport:
    """One classifier's evaluation; its fields are the report document's keys."""

    accuracy: float
    confusion_matrix: np.ndarray              # (K, K) rows true, cols predicted
    per_class: dict[str, ClassMetrics]
    macro_auroc: float | None
    micro_auroc: float | None
    roc_curves: dict[str, RocCurve]
    pr_curves: dict[str, PrCurve]
    zero_denominator: bool = False
    classifier: str = ""
    backend: str = ""


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int = N_CLASSES) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must align")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


class _Sweep(NamedTuple):
    """A descending sweep over the distinct score thresholds."""

    thresholds: np.ndarray  # distinct scores, descending
    tp: np.ndarray          # true positives at or above each threshold
    predicted: np.ndarray   # scores at or above each threshold
    n_pos: int
    n_neg: int


def _sweep(y_true: np.ndarray, scores: np.ndarray) -> _Sweep:
    y_true = np.asarray(y_true).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise ValueError("labels and scores must align")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # The last index of each run of equal scores.
    distinct = np.flatnonzero(np.r_[np.diff(s) != 0, s.size > 0])
    tp = np.cumsum(y_true[order], dtype=np.int64)[distinct]
    n_pos = int(y_true.sum())
    return _Sweep(s[distinct], tp, distinct + 1, n_pos, y_true.size - n_pos)


def roc_curve(y_true: np.ndarray, scores: np.ndarray) -> RocCurve:
    """ROC over descending distinct score thresholds.

    Ties are grouped per threshold, so the trapezoidal area equals the
    pairwise statistic P(s+ > s-) + 0.5 P(s+ = s-).
    """
    return _roc(_sweep(y_true, scores))


def _roc(sw: _Sweep) -> RocCurve:
    if sw.n_pos == 0 or sw.n_neg == 0:
        raise ValueError("undefined ROC: both classes must be present")
    fp = sw.predicted - sw.tp
    return RocCurve(
        thresholds=np.r_[np.inf, sw.thresholds],
        fpr=np.r_[0.0, fp / sw.n_neg],
        tpr=np.r_[0.0, sw.tp / sw.n_pos],
    )


def auroc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Trapezoidal area under the ROC curve."""
    return _area(roc_curve(y_true, scores))


def _area(curve: RocCurve) -> float:
    dx = np.diff(curve.fpr)
    mid_y = (curve.tpr[1:] + curve.tpr[:-1]) / 2.0
    return float(np.sum(dx * mid_y))


def pr_curve(y_true: np.ndarray, scores: np.ndarray) -> PrCurve:
    """Precision/recall at each distinct threshold, swept descending."""
    return _pr(_sweep(y_true, scores))


def _pr(sw: _Sweep) -> PrCurve:
    if sw.n_pos == 0:
        raise ValueError("undefined PR curve: no positive labels")
    # Stop the sweep once every positive is recalled.
    last = int(np.searchsorted(sw.tp, sw.n_pos)) + 1
    return PrCurve(
        thresholds=sw.thresholds[:last],
        precision=(sw.tp / sw.predicted)[:last],
        recall=(sw.tp / sw.n_pos)[:last],
    )


def macro_auroc(y_true: np.ndarray, proba: np.ndarray) -> float:
    """Unweighted mean of the per-class one-vs-rest AUROCs."""
    y_true = np.asarray(y_true, dtype=np.int64)
    proba = np.asarray(proba, dtype=np.float64)
    k = proba.shape[1]
    present = np.unique(y_true)
    if present.size < k:
        raise ValueError("macro AUROC requires every class present")
    return float(np.mean([auroc(y_true == c, proba[:, c]) for c in range(k)]))


def micro_auroc(y_true: np.ndarray, proba: np.ndarray) -> float:
    """AUROC over the pooled one-vs-rest binarization."""
    y_true = np.asarray(y_true, dtype=np.int64)
    proba = np.asarray(proba, dtype=np.float64)
    k = proba.shape[1]
    labels = np.concatenate([(y_true == c) for c in range(k)])
    scores = np.concatenate([proba[:, c] for c in range(k)])
    return auroc(labels, scores)


def classification_report(
    y_true: np.ndarray,
    proba: np.ndarray,
    classifier: str = "",
    backend: str = "",
) -> EvaluationReport:
    """Full per-class and overall evaluation from probability predictions,
    which must be finite."""
    y_true = np.asarray(y_true, dtype=np.int64)
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim != 2 or proba.shape[0] != y_true.shape[0]:
        raise ValueError("probability matrix must align with labels")
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    k = proba.shape[1]
    if y_true.min() < 0 or y_true.max() >= k:
        raise ValueError("labels outside the class set")
    bad_rows = int(np.count_nonzero(~np.isfinite(proba).all(axis=1)))
    if bad_rows:
        raise ValueError(f"{bad_rows} of {y_true.size} probability rows are not finite")

    y_pred = np.argmax(proba, axis=1)
    cm = confusion_matrix(y_true, y_pred, n_classes=k)
    accuracy = float(np.trace(cm) / cm.sum())

    per_class: dict[str, ClassMetrics] = {}
    roc_curves: dict[str, RocCurve] = {}
    pr_curves: dict[str, PrCurve] = {}
    zero_denominator = False
    aurocs: list[float] = []
    names = [c.to_text() for c in CLASSIFIED_CATEGORIES] if k == N_CLASSES else [str(i) for i in range(k)]

    for c in range(k):
        tp = int(cm[c, c])
        fp = int(cm[:, c].sum() - tp)
        fn = int(cm[c, :].sum() - tp)
        tn = int(cm.sum() - tp - fp - fn)
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision, zero_denominator = 0.0, True
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall, zero_denominator = 0.0, True
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        fpr_c = fp / (fp + tn) if fp + tn > 0 else 0.0

        binary = y_true == c
        if binary.any() and not binary.all():
            sweep = _sweep(binary, proba[:, c])
            roc_curves[names[c]] = _roc(sweep)
            cls_auroc = _area(roc_curves[names[c]])
            aurocs.append(cls_auroc)
            pr_curves[names[c]] = _pr(sweep)
        else:
            cls_auroc = None

        per_class[names[c]] = ClassMetrics(
            precision=precision,
            recall=recall,
            f1=f1,
            tpr=recall,
            fpr=fpr_c,
            auroc=cls_auroc,
            support=tp + fn,
        )

    macro = float(np.mean(aurocs)) if len(aurocs) == k else None
    micro = micro_auroc(y_true, proba) if len(aurocs) == k else None
    return EvaluationReport(
        accuracy=accuracy,
        confusion_matrix=cm,
        per_class=per_class,
        macro_auroc=macro,
        micro_auroc=micro,
        roc_curves=roc_curves,
        pr_curves=pr_curves,
        zero_denominator=zero_denominator,
        classifier=classifier,
        backend=backend,
    )
