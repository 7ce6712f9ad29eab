"""Shared classifier infrastructure: specs, validation, array helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

KINDS = (
    "logistic_regression",
    "adaboost",
    "decision_tree",
    "gradient_boosting",
    "random_forest",
    "knn",
    "naive_bayes",
)

# Display names in the order the result tables use.
KIND_LABELS = {
    "knn": "k-Nearest Neighbor (kNN)",
    "decision_tree": "Decision Tree",
    "gradient_boosting": "Gradient Boosting",
    "random_forest": "Random Forest",
    "logistic_regression": "Logistic Regression",
    "naive_bayes": "Naive Bayes",
    "adaboost": "AdaBoost",
}
TABLE_ORDER = (
    "knn",
    "decision_tree",
    "gradient_boosting",
    "random_forest",
    "logistic_regression",
    "naive_bayes",
    "adaboost",
)


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus hyperparameters and RNG seed."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        validate_spec(self)

    def spec_id(self) -> str:
        """Stable textual identifier, used in reports and file names."""
        parts = [f"{k}={self.params[k]}" for k in sorted(self.params)]
        return f"{self.kind}({', '.join(parts)}; seed={self.seed})"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _validate_tree_params(p: dict) -> None:
    """Engine settings shared by the four tree learners."""
    _require(p.get("min_samples_leaf", 1) >= 1, "min_samples_leaf must be >= 1")
    _require(p.get("min_samples_split", 2) >= 2, "min_samples_split must be >= 2")
    if "max_bins" in p:
        # Bin codes are stored as uint16.
        bins = p["max_bins"]
        _require(_is_int(bins) and 2 <= bins <= 65536, "max_bins must be an integer in 2..65536")


def validate_spec(spec: ClassifierSpec) -> None:
    if spec.kind not in KINDS:
        raise ValueError(f"unknown classifier kind {spec.kind!r}")
    p = dict(spec.params)
    if spec.kind in ("decision_tree", "random_forest", "gradient_boosting", "adaboost"):
        _validate_tree_params(p)
    if spec.kind == "logistic_regression":
        _require(p.get("l2", 0.0) >= 0, "l2 penalty must be >= 0")
        _require(p.get("max_iter", 5000) >= 1, "max_iter must be >= 1")
        _require(p.get("tol", 1e-6) > 0, "tol must be > 0")
    elif spec.kind == "knn":
        _require(p.get("k", 5) >= 1, "k must be >= 1")
    elif spec.kind == "decision_tree":
        depth = p.get("max_depth")
        _require(depth is None or depth >= 1, "max_depth must be >= 1 or None")
    elif spec.kind == "random_forest":
        _require(p.get("n_estimators", 100) >= 1, "n_estimators must be >= 1")
        depth = p.get("max_depth")
        _require(depth is None or depth >= 1, "max_depth must be >= 1 or None")
        feats = p.get("max_features", "sqrt")
        _require(
            feats is None or feats == "sqrt" or (_is_int(feats) and feats >= 1),
            'max_features must be None, "sqrt" or an integer >= 1',
        )
    elif spec.kind == "gradient_boosting":
        _require(p.get("n_estimators", 100) >= 1, "n_estimators must be >= 1")
        _require(p.get("learning_rate", 0.1) > 0, "learning_rate must be > 0")
        depth = p.get("max_depth", 2)
        _require(depth is None or depth >= 1, "max_depth must be >= 1 or None")
    elif spec.kind == "adaboost":
        _require(p.get("n_estimators", 100) >= 1, "n_estimators must be >= 1")
        _require(1 <= p.get("base_depth", 1) <= 3, "base_depth must be in 1..3")
    elif spec.kind == "naive_bayes":
        _require(p.get("var_floor_ratio", 1e-9) >= 0, "var_floor_ratio must be >= 0")


def check_training_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match X rows {X.shape[0]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    if np.unique(y).size < 2:
        raise ValueError("training labels must contain at least 2 classes")
    return X, y.astype(np.int64)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def normalize_rows(p: np.ndarray) -> np.ndarray:
    s = p.sum(axis=1, keepdims=True)
    uniform = 1.0 / p.shape[1]
    return np.where(s > 0, p / np.where(s > 0, s, 1.0), uniform)


@dataclass
class Standardizer:
    """Train-set per-feature standardization, stored as part of the model."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.scale


class BaseClassifier:
    """Interface shared by all seven slide-level classifiers.

    Fitted models expose `classes_` (sorted distinct training labels) and
    `predict_proba` whose columns align with `classes_`.
    """

    def __init__(self, spec: ClassifierSpec):
        self.spec = spec
        self.classes_: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return self.spec.kind

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]

    def _check_predict_input(self, X: np.ndarray, d: int) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != d:
            raise ValueError(f"expected (n, {d}) feature matrix, got shape {X.shape}")
        return X

    def _encode(self, y: np.ndarray) -> np.ndarray:
        """Map labels to contiguous 0..K-1 codes; sets classes_."""
        self.classes_ = np.unique(y)
        lookup = {c: i for i, c in enumerate(self.classes_.tolist())}
        return np.asarray([lookup[v] for v in y.tolist()], dtype=np.int64)
