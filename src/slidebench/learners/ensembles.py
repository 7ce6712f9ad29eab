"""Tree ensembles: bagged forests, softmax gradient boosting, SAMME AdaBoost.

All three share the binned tree engine. Member models are seeded
independently (forest) or grown sequentially (boosting), so an ensemble
truncated to its first t members is identical to one fit with
n_estimators=t; cross-validation exploits this for staged evaluation.

Each ensemble has one probability path: `staged_proba` walks the members
once through `staged_results`, returning one result per requested stage
in the order requested, and `predict_proba` is its stage at the fitted
member count, so both run the same additions in the same order.
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseClassifier,
    check_shapes,
    check_training_inputs,
    normalize_rows,
    one_hot,
    softmax,
    staged_results,
)
from .trees import FittedTree, grow_tree, tree_setup

# Smallest usable weighted error / hessian in boosting updates.
_EPS = 1e-12


def _numbered_arrays(trees: list[FittedTree]) -> dict[str, np.ndarray]:
    """The arrays of each `trees[i]`, named under the prefix `t<i>/`."""
    arrays: dict[str, np.ndarray] = {}
    for i, tree in enumerate(trees):
        arrays.update(tree.to_arrays(f"t{i}/"))
    return arrays


def _numbered_trees(arrays: dict[str, np.ndarray], extra: dict, width: int) -> list[FittedTree]:
    """The `extra["n_trees"]` trees that `_numbered_arrays` stored in `arrays`."""
    return [FittedTree.from_arrays(arrays, extra["d"], width, f"t{i}/") for i in range(extra["n_trees"])]


class RandomForest(BaseClassifier):
    """Bootstrap-bagged CART trees with per-split feature subsampling."""

    def _resolve_max_features(self, d: int) -> int | None:
        raw = self.spec.param("max_features")
        if raw is None:
            return None
        if raw == "sqrt":
            return max(1, int(np.sqrt(d)))
        return int(raw)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        n, d = X.shape
        k = len(self.classes_)
        bootstrap = self.spec.param("bootstrap")
        table, params = tree_setup(
            self.spec, X,
            max_depth=self.spec.param("max_depth"),
            max_features=self._resolve_max_features(d),
        )
        trees = []
        for t in range(self.spec.param("n_estimators")):
            rng = np.random.default_rng(np.random.SeedSequence([self.spec.seed & 0xFFFFFFFF, t]))
            if bootstrap:
                draw = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
                rows = np.flatnonzero(draw > 0)
                weight = draw[rows]
            else:
                rows = np.arange(n)
                weight = None
            tree, _ = grow_tree(
                table, "gini", codes, params, n_classes=k,
                sample_weight=weight, rows=rows, rng=rng,
            )
            trees.append(tree)
        self._set_fitted(trees, d)
        return self

    def _set_fitted(self, trees: list[FittedTree], d: int) -> None:
        self.trees_ = trees
        self._d = d

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"d": self._d, "n_trees": len(self.trees_)}, _numbered_arrays(self.trees_)

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        self._set_fitted(_numbered_trees(arrays, extra, len(self.classes_)), extra["d"])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.staged_proba(X, [len(self.trees_)])[0]

    def staged_proba(self, X: np.ndarray, stages: list[int]) -> list[np.ndarray]:
        """Probabilities using only the first t trees, for each t in stages."""
        X = self._check_predict_input(X)
        acc = np.zeros((X.shape[0], len(self.classes_)))

        def add(tree: FittedTree) -> None:
            np.add(acc, tree.predict_value(X), out=acc)

        return staged_results(self.trees_, stages, add, lambda t: normalize_rows(acc / t))


class GradientBoosting(BaseClassifier):
    """Additive per-class regression trees on softmax residuals.

    Each round fits one least-squares tree per class to y_k - p_k, then
    replaces leaf values by damped Newton steps (sum of residuals over sum
    of p_k(1-p_k)) scaled by the learning rate.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoosting":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        n, d = X.shape
        k = len(self.classes_)
        lr = self.spec.param("learning_rate")
        table, params = tree_setup(self.spec, X, max_depth=self.spec.param("max_depth"))
        Y = one_hot(codes, k)
        F = np.zeros((n, k))
        rounds = []
        train_loss = []
        for _ in range(self.spec.param("n_estimators")):
            P = softmax(F)
            train_loss.append(_cross_entropy(P, codes))
            stage: list[FittedTree] = []
            for c in range(k):
                residual = Y[:, c] - P[:, c]
                hessian = P[:, c] * (1.0 - P[:, c])
                tree, leaf_of_row = grow_tree(table, "variance", residual, params)
                # Damped Newton step per leaf.
                num = np.bincount(leaf_of_row, weights=residual, minlength=tree.n_nodes)
                den = np.bincount(leaf_of_row, weights=hessian, minlength=tree.n_nodes)
                tree.value = (num / np.maximum(den, _EPS))[:, None]
                stage.append(tree)
                F[:, c] += lr * tree.value[leaf_of_row, 0]
            rounds.append(stage)
        train_loss.append(_cross_entropy(softmax(F), codes))
        self._set_fitted(rounds, train_loss, d)
        return self

    def _set_fitted(self, rounds: list[list[FittedTree]], train_loss: list[float], d: int) -> None:
        self.rounds_, self.train_loss_ = rounds, train_loss
        self._d = d

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        arrays = {"train_loss": np.asarray(self.train_loss_)}
        for r, stage in enumerate(self.rounds_):
            for c, tree in enumerate(stage):
                arrays.update(tree.to_arrays(f"r{r}/c{c}/"))
        return {"d": self._d, "n_rounds": len(self.rounds_), "n_classes": len(self.classes_)}, arrays

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        check_shapes(arrays, train_loss=(extra["n_rounds"] + 1,))
        if extra["n_classes"] != len(self.classes_):
            raise ValueError(f"extra n_classes={extra['n_classes']} disagrees with {len(self.classes_)} classes")
        rounds = [
            [FittedTree.from_arrays(arrays, extra["d"], 1, f"r{r}/c{c}/") for c in range(extra["n_classes"])]
            for r in range(extra["n_rounds"])
        ]
        self._set_fitted(rounds, arrays["train_loss"].tolist(), extra["d"])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.staged_proba(X, [len(self.rounds_)])[0]

    def staged_proba(self, X: np.ndarray, stages: list[int]) -> list[np.ndarray]:
        """Probabilities using only the first t rounds, for each t in stages."""
        X = self._check_predict_input(X)
        lr = self.spec.param("learning_rate")
        F = np.zeros((X.shape[0], len(self.classes_)))

        def add(stage: list[FittedTree]) -> None:
            for c, tree in enumerate(stage):
                F[:, c] += lr * tree.predict_value(X)[:, 0]

        return staged_results(self.rounds_, stages, add, lambda t: softmax(F))


def _cross_entropy(P: np.ndarray, codes: np.ndarray) -> float:
    p = np.clip(P[np.arange(codes.shape[0]), codes], 1e-300, None)
    return float(-np.mean(np.log(p)))


class AdaBoost(BaseClassifier):
    """SAMME multi-class boosting over shallow CART trees.

    Boosting stops before adding a learner whose weighted error reaches
    1 - 1/K; a perfect learner is kept and ends the loop.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaBoost":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        n, d = X.shape
        k = len(self.classes_)
        table, params = tree_setup(self.spec, X, max_depth=self.spec.param("base_depth"))
        w = np.full(n, 1.0 / n)
        trees = []
        alphas = []
        for _ in range(self.spec.param("n_estimators")):
            tree, leaf_of_row = grow_tree(
                table, "gini", codes, params, n_classes=k, sample_weight=w
            )
            pred = np.argmax(tree.value[leaf_of_row], axis=1)
            miss = pred != codes
            err = float(w[miss].sum())
            # At err == 1 - 1/K the SAMME vote weight is exactly zero, so
            # the tolerance only drops useless learners.
            if err >= 1.0 - 1.0 / k - 1e-12:
                break
            if err < _EPS:
                # Perfect learner: dominate the vote and stop.
                trees.append(tree)
                alphas.append(np.log((1.0 - _EPS) / _EPS) + np.log(k - 1.0))
                break
            alpha = np.log((1.0 - err) / err) + np.log(k - 1.0)
            trees.append(tree)
            alphas.append(alpha)
            w = w * np.exp(alpha * miss)
            w = w / w.sum()
        self._set_fitted(trees, alphas, d)
        return self

    def _set_fitted(self, trees: list[FittedTree], alphas: list[float], d: int) -> None:
        self.trees_, self.alphas_ = trees, alphas
        self._d = d

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        arrays = {"alphas": np.asarray(self.alphas_), **_numbered_arrays(self.trees_)}
        return {"d": self._d, "n_trees": len(self.trees_)}, arrays

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        check_shapes(arrays, alphas=(extra["n_trees"],))
        self._set_fitted(_numbered_trees(arrays, extra, len(self.classes_)), arrays["alphas"].tolist(), extra["d"])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.staged_proba(X, [len(self.trees_)])[0]

    def staged_proba(self, X: np.ndarray, stages: list[int]) -> list[np.ndarray]:
        """Vote fractions of the first t learners, for each t in stages."""
        X = self._check_predict_input(X)
        votes = np.zeros((X.shape[0], len(self.classes_)))
        rows = np.arange(X.shape[0])

        def add(member: tuple[FittedTree, float]) -> None:
            tree, alpha = member
            votes[rows, np.argmax(tree.predict_value(X), axis=1)] += alpha

        members = list(zip(self.trees_, self.alphas_))
        return staged_results(members, stages, add, lambda t: normalize_rows(votes))
