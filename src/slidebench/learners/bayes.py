"""Gaussian naive Bayes with a relative variance floor."""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier, check_shapes, check_training_inputs, softmax


class NaiveBayes(BaseClassifier):
    """Per-class feature means/variances with frequency priors.

    Variances are floored at var_floor_ratio times the largest overall
    feature variance, guarding zero-variance features.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NaiveBayes":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        k = len(self.classes_)
        n, d = X.shape
        ratio = float(self.spec.param("var_floor_ratio"))
        means = np.empty((k, d))
        variances = np.empty((k, d))
        for c in range(k):
            rows = X[codes == c]
            means[c] = rows.mean(axis=0)
            variances[c] = rows.var(axis=0)
        max_var = float(X.var(axis=0).max())
        floor = ratio * max_var if max_var > 0 else 1e-12
        self._set_fitted(np.bincount(codes, minlength=k) / n, means, np.maximum(variances, floor), d)
        return self

    def _set_fitted(self, priors: np.ndarray, means: np.ndarray, variances: np.ndarray, d: int) -> None:
        self.priors_, self.means_, self.vars_ = priors, means, variances
        self._d = d

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"d": self._d}, {"priors": self.priors_, "means": self.means_, "vars": self.vars_}

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        k, d = len(self.classes_), extra["d"]
        check_shapes(arrays, priors=(k,), means=(k, d), vars=(k, d))
        self._set_fitted(arrays["priors"], arrays["means"], arrays["vars"], d)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_input(X)
        # Log joint per class, normalized by a row-max-shifted softmax.
        log_joint = np.empty((X.shape[0], len(self.classes_)))
        for c in range(len(self.classes_)):
            diff = X - self.means_[c]
            log_like = -0.5 * (np.log(2.0 * np.pi * self.vars_[c]) + diff * diff / self.vars_[c]).sum(axis=1)
            log_joint[:, c] = np.log(self.priors_[c]) + log_like
        return softmax(log_joint)
