"""Multinomial logistic regression trained by full-batch gradient descent."""

from __future__ import annotations

import functools

import numpy as np

from .base import (
    BaseClassifier,
    Standardizer,
    chan_sum,
    check_shapes,
    check_training_inputs,
    one_hot,
    softmax,
)

_ARMIJO_C = 1e-4


# The descent loop reduces rows of k (class count) values several times
# per step. These row reductions run column by column, in the order of
# numpy's own `axis=1` reductions (`chan_sum`; a max is exact in any
# order): the same bytes as `Z.max(axis=1)` and `E.sum(axis=1)` without
# their per-call overhead, which dominates on rows this short.


def _logits(Xs: np.ndarray, W: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-max-shifted logits Z and their exponentials exp(Z)."""
    Z = Xs @ W + b
    Z = Z - functools.reduce(np.maximum, Z.T)[:, None]
    return Z, np.exp(Z)


def _loss(Z: np.ndarray, E: np.ndarray, Y: np.ndarray, W: np.ndarray, l2: float) -> float:
    log_norm = np.log(chan_sum(E.T))
    # numpy's mean is this reduction over the count, minus its wrapper.
    ce = float(np.add.reduce(log_norm - chan_sum((Z * Y).T)) / Z.shape[0])
    return ce + 0.5 * l2 * float((W * W).sum())


def _gradients(
    Xs: np.ndarray, Y: np.ndarray, P: np.ndarray, W: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    n = Xs.shape[0]
    R = P - Y
    gW = Xs.T @ R / n + l2 * W
    gb = np.add.reduce(R, axis=0) / n
    return gW, gb


def objective(
    Xs: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
) -> float:
    """Mean cross-entropy plus (l2/2)*||W||^2; intercepts are unpenalized."""
    Z, E = _logits(Xs, W, b)
    return _loss(Z, E, Y, W, l2)


def gradients(
    Xs: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of `objective` w.r.t. W and b."""
    return _gradients(Xs, Y, softmax(Xs @ W + b), W, l2)


class LogisticRegression(BaseClassifier):
    """Softmax regression with L2 penalty on the weight matrix.

    Features are standardized internally with train-set statistics (the
    standardizer is part of the model). Descent steps use backtracking
    line search; iteration stops when the gradient infinity-norm falls
    below `tol` or after `max_iter` steps.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        k = len(self.classes_)
        l2 = float(self.spec.param("l2"))
        max_iter = int(self.spec.param("max_iter"))
        tol = float(self.spec.param("tol"))

        scaler = Standardizer.fit(X)
        Xs = scaler.transform(X)
        Y = one_hot(codes, k)
        W = np.zeros((X.shape[1], k))
        b = np.zeros(k)

        Z, E = _logits(Xs, W, b)
        loss = _loss(Z, E, Y, W, l2)
        step = 1.0
        for it in range(max_iter):
            # E holds the exponentials at exactly this (W, b), so the softmax
            # is E over its row sums.
            gW, gb = _gradients(Xs, Y, E / chan_sum(E.T)[:, None], W, l2)
            grad_inf = max(np.abs(gW).max(), np.abs(gb).max())
            if grad_inf < tol:
                break
            sq_norm = float((gW * gW).sum() + (gb * gb).sum())
            # Backtracking from twice the last accepted step; once t is at
            # most 1e-16 the step is taken whether or not it passes.
            t = min(step * 2.0, 64.0)
            while True:
                W_t, b_t = W - t * gW, b - t * gb
                Z, E = _logits(Xs, W_t, b_t)
                cand = _loss(Z, E, Y, W_t, l2)
                if cand <= loss - _ARMIJO_C * t * sq_norm or t <= 1e-16:
                    break
                t *= 0.5
            W, b, loss = W_t, b_t, cand
            step = t
        else:
            it = max_iter
        self.n_iter_ = it  # steps taken: a break at index `it` follows `it` steps
        self._set_fitted(W, b, scaler)
        return self

    def _set_fitted(self, W: np.ndarray, b: np.ndarray, scaler: Standardizer) -> None:
        self.W_, self.b_, self.scaler_ = W, b, scaler
        self._d = W.shape[0]

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        scaler = self.scaler_
        return {}, {"W": self.W_, "b": self.b_, "scaler_mean": scaler.mean, "scaler_scale": scaler.scale}

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        k, d = len(self.classes_), arrays["scaler_mean"].size
        check_shapes(arrays, W=(d, k), b=(k,), scaler_mean=(d,), scaler_scale=(d,))
        scaler = Standardizer(arrays["scaler_mean"], arrays["scaler_scale"])
        self._set_fitted(arrays["W"], arrays["b"], scaler)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_input(X)
        return softmax(self.scaler_.transform(X) @ self.W_ + self.b_)
