"""Classifier construction and the default hyperparameter grids."""

from __future__ import annotations

from typing import Any, Mapping

from .base import KINDS, BaseClassifier, ClassifierSpec
from .bayes import NaiveBayes
from .ensembles import AdaBoost, GradientBoosting, RandomForest
from .linear import LogisticRegression
from .neighbors import KNearestNeighbor
from .trees import DecisionTree

_CLASSES = {
    "logistic_regression": LogisticRegression,
    "adaboost": AdaBoost,
    "decision_tree": DecisionTree,
    "gradient_boosting": GradientBoosting,
    "random_forest": RandomForest,
    "knn": KNearestNeighbor,
    "naive_bayes": NaiveBayes,
}


def build_classifier(spec: ClassifierSpec) -> BaseClassifier:
    return _CLASSES[spec.kind](spec)


# Small, standard search grids; anything not listed is a fixed default.
DEFAULT_GRIDS: dict[str, list[Mapping[str, Any]]] = {
    "logistic_regression": [{"l2": v} for v in (0.0, 1e-3, 1e-2, 1e-1)],
    "knn": [{"k": v} for v in (1, 3, 5, 11, 21)],
    "decision_tree": [{"max_depth": v} for v in (2, 4, 8, None)],
    "random_forest": [{"n_estimators": v} for v in (50, 100, 200)],
    "gradient_boosting": [
        {"n_estimators": n, "learning_rate": lr}
        for n in (50, 100, 200)
        for lr in (0.05, 0.1)
    ],
    "adaboost": [{"n_estimators": v} for v in (50, 100, 200)],
    "naive_bayes": [{}],
}


def default_grid(kind: str, seed: int = 0, overrides: Mapping[str, list] | None = None) -> list[ClassifierSpec]:
    """Build the spec grid for one classifier kind.

    `overrides` maps parameter names to value lists and replaces the
    default grid axes entirely when given.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    if overrides:
        combos: list[dict] = [{}]
        for name in sorted(overrides):
            combos = [dict(c, **{name: v}) for c in combos for v in overrides[name]]
        return [ClassifierSpec(kind, params=c, seed=seed) for c in combos]
    return [ClassifierSpec(kind, params=dict(p), seed=seed) for p in DEFAULT_GRIDS[kind]]
