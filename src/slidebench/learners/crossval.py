"""Stratified k-fold cross-validation over hyperparameter grids.

Fold assignment is computed once per call, so every grid point is scored
on identical folds (paired comparison). Grid points that differ only in
their staged parameter form a family that is evaluated from a single fit
per fold via staged predictions: `n_estimators` for the ensembles, which
is exact because members are seeded independently of the requested
total; `max_depth` for decision trees (None deepest), which is exact
because trees grow level-wise and a node's split and value depend only on
its own rows; and `k` for nearest neighbors, which is exact because every
k votes over a prefix of the same stable distance order.

`staged_proba` returns one result per requested stage, in the order
requested (repeats included), and each equals `predict_proba` of a fit
with that stage value byte for byte: `predict_proba` is itself the
fitted stage of `staged_proba`, so both run the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ClassifierSpec
from .factory import build_classifier


def stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Fold id per row; per-class counts across folds differ by at most 1."""
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    y = np.asarray(y)
    n = y.shape[0]
    if n < n_folds:
        raise ValueError(f"cannot make {n_folds} folds from {n} rows")
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if idx.size < n_folds:
            raise ValueError(
                f"class {cls!r} has {idx.size} rows; stratified {n_folds}-fold "
                "split would leave folds without it"
            )
        perm = idx[rng.permutation(idx.size)]
        folds[perm] = np.arange(idx.size) % n_folds
    return folds


@dataclass
class CvResult:
    best_spec: ClassifierSpec
    best_index: int
    mean_accuracy: np.ndarray       # per grid spec
    fold_accuracy: np.ndarray       # (n_specs, n_folds)
    folds: np.ndarray               # fold id per training row
    spec_ids: list[str]

    def summary(self) -> list[dict]:
        return [
            {
                "spec": spec_id,
                "mean_accuracy": float(self.mean_accuracy[i]),
                "fold_accuracy": [float(a) for a in self.fold_accuracy[i]],
            }
            for i, spec_id in enumerate(self.spec_ids)
        ]


# Kind -> the parameter whose grid values one fit per fold serves.
_STAGEABLE = {
    "random_forest": "n_estimators",
    "gradient_boosting": "n_estimators",
    "adaboost": "n_estimators",
    "decision_tree": "max_depth",
    "knn": "k",
}


def _family_key(spec: ClassifierSpec) -> tuple:
    staged = _STAGEABLE[spec.kind]
    rest = tuple(sorted((k, repr(v)) for k, v in spec.params.items() if k != staged))
    return (spec.kind, spec.seed, rest)


def _stage(spec: ClassifierSpec):
    return spec.param(_STAGEABLE[spec.kind])


def _stage_order(stage) -> float:
    """Sort key of a stage value; None (no depth limit) is the deepest."""
    return float("inf") if stage is None else stage


def cross_validate(
    grid: list[ClassifierSpec], X: np.ndarray, y: np.ndarray, n_folds: int, seed: int
) -> CvResult:
    """Score every spec by mean held-out-fold accuracy; ties keep the
    earliest grid position."""
    if not grid:
        raise ValueError("empty hyperparameter grid")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = stratified_folds(y, n_folds, seed)
    acc = np.zeros((len(grid), n_folds))

    # Group stageable specs into families sharing all params but the staged one.
    families: dict[tuple, list[int]] = {}
    singles: list[int] = []
    for i, spec in enumerate(grid):
        if spec.kind in _STAGEABLE:
            families.setdefault(_family_key(spec), []).append(i)
        else:
            singles.append(i)

    for fold in range(n_folds):
        val = folds == fold
        Xt, yt = X[~val], y[~val]
        Xv, yv = X[val], y[val]
        for i in singles:
            model = build_classifier(grid[i]).fit(Xt, yt)
            acc[i, fold] = float(np.mean(model.predict(Xv) == yv))
        for members in families.values():
            order = sorted(members, key=lambda i: _stage_order(_stage(grid[i])))
            model = build_classifier(grid[order[-1]]).fit(Xt, yt)
            probas = model.staged_proba(Xv, [_stage(grid[i]) for i in order])
            for i, proba in zip(order, probas):
                pred = model.classes_[np.argmax(proba, axis=1)]
                acc[i, fold] = float(np.mean(pred == yv))

    mean_acc = acc.mean(axis=1)
    best = int(np.argmax(mean_acc))
    return CvResult(
        best_spec=grid[best],
        best_index=best,
        mean_accuracy=mean_acc,
        fold_accuracy=acc,
        folds=folds,
        spec_ids=[s.spec_id() for s in grid],
    )
