"""k-nearest-neighbor classification with Euclidean distances."""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier, check_shapes, check_training_inputs


class KNearestNeighbor(BaseClassifier):
    """Stores the training set; votes among the k closest rows.

    Distance ties resolve toward the lower training-row index; vote ties
    toward the lower class code. A k beyond the training size degrades to
    voting over the whole set.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNearestNeighbor":
        X, y = check_training_inputs(X, y)
        self._set_fitted(X, self._encode(y))
        return self

    def _set_fitted(self, X: np.ndarray, codes: np.ndarray) -> None:
        self._X, self._codes = X, codes
        self._sq = (X * X).sum(axis=1)
        self._d = X.shape[1]

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {"X": self._X, "codes": self._codes}

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        X, codes, k = arrays["X"], arrays["codes"], len(self.classes_)
        if X.ndim != 2:
            raise ValueError(f"array 'X' has shape {X.shape}, expected 2-D")
        check_shapes(arrays, codes=(X.shape[0],))
        in_range = codes.size == 0 or 0 <= codes.min() <= codes.max() < k
        if not (np.issubdtype(codes.dtype, np.integer) and in_range):
            raise ValueError(f"array 'codes' must hold integers in 0..{k - 1}")
        self._set_fitted(X, codes)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.staged_proba(X, [self.spec.param("k")])[0]

    def staged_proba(self, X: np.ndarray, ks: list[int]) -> list[np.ndarray]:
        """Vote fractions for each k in `ks`, from one distance computation
        and one sort; each equals `predict_proba` of a fit with that k."""
        X = self._check_predict_input(X)
        n = self._X.shape[0]
        ks = [min(int(k), n) for k in ks]
        d2 = self._sq[None, :] - 2.0 * (X @ self._X.T) + (X * X).sum(axis=1)[:, None]
        np.maximum(d2, 0.0, out=d2)
        # Stable full sort keeps distance ties in training-row order.
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : max(ks)]
        # counts[:, j, c]: votes for class c among the j + 1 nearest rows.
        votes = self._codes[nearest][:, :, None] == np.arange(len(self.classes_))
        counts = np.cumsum(votes, axis=1)
        return [counts[:, k - 1] / k for k in ks]
