"""Shared classifier infrastructure: the parameter table, specs, array helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np


class Param(NamedTuple):
    """One hyperparameter: its default and the rule a given value must meet."""

    default: Any
    check: Callable[[Any], bool]
    rule: str


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(default: int | None, low: int, high: int | None = None, none_ok: bool = False) -> Param:
    """An integer in low..high (unbounded above without `high`), or None where `none_ok`."""
    rule = f"an integer >= {low}" if high is None else f"an integer in {low}..{high}"
    check = lambda v: none_ok if v is None else _is_int(v) and low <= v and (high is None or v <= high)
    return Param(default, check, rule + " or None" if none_ok else rule)


def _real(default: float, low: float, strict: bool = False) -> Param:
    """A finite number > low where `strict`, else >= low."""
    finite = lambda v: _is_int(v) or isinstance(v, (float, np.floating)) and math.isfinite(v)
    check = lambda v: finite(v) and (v > low if strict else v >= low)
    return Param(default, check, f"{'>' if strict else '>='} {low} and finite")


_N_ESTIMATORS = _count(100, 1)
_MAX_DEPTH = _count(None, 1, none_ok=True)

# Engine settings shared by the four tree learners.
TREE_PARAMS = {
    "min_samples_split": _count(2, 2),
    "min_samples_leaf": _count(1, 1),
    # Bin codes are stored as uint16.
    "max_bins": _count(64, 2, 65536),
}

# Every hyperparameter of each classifier kind, in `KINDS` order. A spec
# may give any subset; the rest take these defaults.
PARAMS: dict[str, dict[str, Param]] = {
    "logistic_regression": {
        "l2": _real(0.0, 0),
        "max_iter": _count(5000, 1),
        "tol": _real(1e-6, 0, strict=True),
    },
    "adaboost": {"n_estimators": _N_ESTIMATORS, "base_depth": _count(1, 1, 3), **TREE_PARAMS},
    "decision_tree": {"max_depth": _MAX_DEPTH, **TREE_PARAMS},
    "gradient_boosting": {
        "n_estimators": _N_ESTIMATORS,
        "learning_rate": _real(0.1, 0, strict=True),
        "max_depth": _count(2, 1, none_ok=True),
        **TREE_PARAMS,
    },
    "random_forest": {
        "n_estimators": _N_ESTIMATORS,
        "max_depth": _MAX_DEPTH,
        "max_features": Param(
            "sqrt", lambda v: v is None or v == "sqrt" or (_is_int(v) and v >= 1), 'None, "sqrt" or an integer >= 1'
        ),
        "bootstrap": Param(True, lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
        **TREE_PARAMS,
    },
    "knn": {"k": _count(5, 1)},
    "naive_bayes": {"var_floor_ratio": _real(1e-9, 0)},
}

KINDS = tuple(PARAMS)

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
TABLE_ORDER = tuple(KIND_LABELS)


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus the hyperparameters given (the rest take their
    `PARAMS` defaults) and RNG seed."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        table = PARAMS.get(self.kind)
        if table is None:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        for name, value in self.params.items():
            if name not in table:
                raise ValueError(f"{self.kind} has no parameter {name!r}")
            if not table[name].check(value):
                raise ValueError(f"{name} must be {table[name].rule}, got {value!r}")

    def param(self, name: str) -> Any:
        """The given value of `name`, else the kind's default."""
        return self.params[name] if name in self.params else PARAMS[self.kind][name].default

    def spec_id(self) -> str:
        """Stable textual identifier, used in reports and file names."""
        parts = [f"{k}={self.params[k]}" for k in sorted(self.params)]
        return f"{self.kind}({', '.join(parts)}; seed={self.seed})"


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


def chan_sum(parts) -> np.ndarray:
    """Sum equal-shape arrays in the order numpy's `sum(axis=-1)` uses on
    them stacked channel-last: left to right below eight channels, numpy's
    own pairwise blocks from eight on. For the row sums of a 2-D array `A`
    pass `A.T`; the result equals `A.sum(axis=1)` byte for byte.
    """
    if len(parts) >= 8:
        return np.stack(list(parts), axis=-1).sum(axis=-1)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


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


def check_shapes(arrays: Mapping[str, np.ndarray], **shapes: tuple) -> None:
    """Raise ValueError naming the first of `arrays` whose shape is not the
    one given for it: how `restore` checks a model file's arrays."""
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"array {name!r} has shape {arrays[name].shape}, expected {shape}")


def staged_results(members, stages, add, result) -> list:
    """`result(t)` after `add(member)` has taken the first t members, for
    each t in `stages` (capped at the member count), in the order
    requested. Each member is added once, in member order, so a stage's
    result does not depend on which other stages are requested.
    """
    if any(t < 0 for t in stages):
        raise ValueError("stages must be >= 0")
    n = len(members)
    out: list = [None] * len(stages)
    added = 0
    for i in sorted(range(len(stages)), key=lambda i: stages[i]):
        t = min(stages[i], n)
        for member in members[added:t]:
            add(member)
        added = t
        out[i] = result(t)
    return out


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
        # Feature count; `fit` sets it last, so it also marks a fitted model.
        self._d: int | None = None

    @property
    def kind(self) -> str:
        return self.spec.kind

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """What a model file stores of this fitted model besides its spec
        and `classes_`: a JSON-ready `extra` dict and named arrays."""
        raise NotImplementedError

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        """Make this unfitted model the one whose `state()` gave `extra` and
        `arrays`; `classes_` is already set. Arrays that disagree with
        `classes_`, `extra` or each other raise ValueError."""
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]

    def _check_predict_input(self, X: np.ndarray) -> np.ndarray:
        if self._d is None:
            raise ValueError("classifier is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._d:
            raise ValueError(f"expected (n, {self._d}) feature matrix, got shape {X.shape}")
        return X

    def _encode(self, y: np.ndarray) -> np.ndarray:
        """Map labels to contiguous 0..K-1 codes; sets classes_."""
        self.classes_ = np.unique(y)
        return np.searchsorted(self.classes_, y).astype(np.int64, copy=False)
