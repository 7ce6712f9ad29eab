"""Multinomial logistic regression trained by full-batch gradient descent."""

from __future__ import annotations

import numpy as np

from .base import (
    BaseClassifier,
    ClassifierSpec,
    Standardizer,
    check_training_inputs,
    one_hot,
    softmax,
)

_ARMIJO_C = 1e-4


def objective(
    Xs: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
) -> float:
    """Mean cross-entropy plus (l2/2)*||W||^2; intercepts are unpenalized."""
    Z = Xs @ W + b
    Z = Z - Z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(Z).sum(axis=1))
    ce = float(np.mean(log_norm - (Z * Y).sum(axis=1)))
    return ce + 0.5 * l2 * float((W * W).sum())


def gradients(
    Xs: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of `objective` w.r.t. W and b."""
    P = softmax(Xs @ W + b)
    R = P - Y
    gW = Xs.T @ R / Xs.shape[0] + l2 * W
    gb = R.mean(axis=0)
    return gW, gb


class LogisticRegression(BaseClassifier):
    """Softmax regression with L2 penalty on the weight matrix.

    Features are standardized internally with train-set statistics (the
    standardizer is part of the model). Descent steps use backtracking
    line search; iteration stops when the gradient infinity-norm falls
    below `tol` or after `max_iter` steps.
    """

    def __init__(self, spec: ClassifierSpec):
        super().__init__(spec)
        self.W_: np.ndarray | None = None
        self.b_: np.ndarray | None = None
        self.scaler_: Standardizer | None = None
        self.n_iter_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        k = len(self.classes_)
        l2 = float(self.spec.params.get("l2", 0.0))
        max_iter = int(self.spec.params.get("max_iter", 5000))
        tol = float(self.spec.params.get("tol", 1e-6))

        self.scaler_ = Standardizer.fit(X)
        Xs = self.scaler_.transform(X)
        Y = one_hot(codes, k)
        W = np.zeros((X.shape[1], k))
        b = np.zeros(k)

        loss = objective(Xs, Y, W, b, l2)
        step = 1.0
        for it in range(max_iter):
            gW, gb = gradients(Xs, Y, W, b, l2)
            grad_inf = max(np.abs(gW).max(), np.abs(gb).max())
            if grad_inf < tol:
                break
            sq_norm = float((gW * gW).sum() + (gb * gb).sum())
            # Backtracking from twice the last accepted step.
            t = min(step * 2.0, 64.0)
            while t > 1e-16:
                cand = objective(Xs, Y, W - t * gW, b - t * gb, l2)
                if cand <= loss - _ARMIJO_C * t * sq_norm:
                    break
                t *= 0.5
            W = W - t * gW
            b = b - t * gb
            # An accepted step was evaluated at exactly this (W, b).
            loss = cand if t > 1e-16 else objective(Xs, Y, W, b, l2)
            step = t
        self.n_iter_ = it + 1 if max_iter else 0
        self.W_, self.b_ = W, b
        self._d = X.shape[1]
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.W_ is None or self.scaler_ is None:
            raise ValueError("classifier is not fitted")
        X = self._check_predict_input(X, self._d)
        return softmax(self.scaler_.transform(X) @ self.W_ + self.b_)
