"""Stratified folds and grid search."""

import numpy as np
import pytest

from slidebench.learners import ClassifierSpec, cross_validate, default_grid
from slidebench.learners.crossval import stratified_folds

from conftest import make_blobs


class TestStratifiedFolds:
    def test_partition(self):
        _, y = make_blobs([30, 40, 50], d=3, sep=1.0, seed=0)
        folds = stratified_folds(y, 5, 1)
        assert folds.shape == y.shape
        assert set(np.unique(folds)) == set(range(5))

    def test_per_class_counts_within_one(self):
        _, y = make_blobs([33, 47, 52], d=3, sep=1.0, seed=0)
        folds = stratified_folds(y, 5, 3)
        for c in range(3):
            per_fold = [np.sum((y == c) & (folds == f)) for f in range(5)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_paper_training_ratios(self):
        # 498 training slides at the production class ratios.
        y = np.concatenate([np.full(88, 0), np.full(183, 1), np.full(227, 2)])
        folds = stratified_folds(y, 5, 0)
        for c, total in ((0, 88), (1, 183), (2, 227)):
            per_fold = np.asarray([np.sum((y == c) & (folds == f)) for f in range(5)])
            assert np.all(np.abs(per_fold - total / 5) <= 1)

    def test_small_class_rejected(self):
        y = np.asarray([0] * 10 + [1] * 3)
        with pytest.raises(ValueError, match="stratified"):
            stratified_folds(y, 5, 0)

    def test_fewer_than_two_folds_rejected(self):
        y = np.asarray([0] * 10 + [1] * 10)
        for n_folds in (1, 0, -1):
            with pytest.raises(ValueError, match="n_folds must be >= 2"):
                stratified_folds(y, n_folds, 0)

    def test_deterministic(self):
        _, y = make_blobs([20, 20, 20], d=3, sep=1.0, seed=0)
        a = stratified_folds(y, 5, 9)
        b = stratified_folds(y, 5, 9)
        np.testing.assert_array_equal(a, b)


class TestCrossValidate:
    def test_single_spec_returned(self):
        X, y = make_blobs([15, 15, 15], d=4, sep=3.0, seed=1)
        spec = ClassifierSpec("naive_bayes")
        result = cross_validate([spec], X, y, 5, 0)
        assert result.best_spec == spec
        assert result.best_index == 0
        assert result.fold_accuracy.shape == (1, 5)

    def test_empty_grid_rejected(self):
        X, y = make_blobs([10, 10, 10], d=3, sep=1.0, seed=0)
        with pytest.raises(ValueError, match="empty"):
            cross_validate([], X, y, 5, 0)

    def test_knn_grid_prefers_small_k_on_clusters(self):
        # k=201 exceeds every class's fold-train size and degrades toward
        # prior voting; verified by direct fold evaluation.
        X, y = make_blobs([60, 60, 60], d=6, sep=5.0, seed=2)
        grid = [
            ClassifierSpec("knn", params={"k": 1}),
            ClassifierSpec("knn", params={"k": 201}),
        ]
        result = cross_validate(grid, X, y, 5, 4)
        assert result.best_spec.params["k"] == 1

        # Independent fold-by-fold oracle for the same decision.
        from slidebench.learners import build_classifier

        folds = stratified_folds(y, 5, 4)
        oracle = []
        for spec in grid:
            accs = []
            for f in range(5):
                val = folds == f
                model = build_classifier(spec).fit(X[~val], y[~val])
                accs.append(np.mean(model.predict(X[val]) == y[val]))
            oracle.append(np.mean(accs))
        np.testing.assert_allclose(result.mean_accuracy, oracle, atol=1e-12)
        assert oracle[0] > oracle[1]

    def test_tie_breaks_to_earliest(self):
        X, y = make_blobs([10, 10, 10], d=3, sep=8.0, seed=3)
        # Both specs reach identical (perfect) fold accuracy.
        grid = [
            ClassifierSpec("knn", params={"k": 1}),
            ClassifierSpec("knn", params={"k": 3}),
        ]
        result = cross_validate(grid, X, y, 5, 5)
        assert np.allclose(result.mean_accuracy[0], result.mean_accuracy[1])
        assert result.best_index == 0

    def test_staged_family_matches_independent_fits(self):
        # The staged-prefix path must give the same fold accuracies as
        # fitting each ensemble size, tree depth or neighbor count from
        # scratch. The depth grid is unsorted, holds None, and splits into
        # two families; the k grid is unsorted and reaches past the 56
        # training rows of a fold.
        X, y = make_blobs([20, 25, 25], d=5, sep=1.5, seed=6)
        cases = [
            ("random_forest", {"n_estimators": [5, 10, 20]}),
            ("decision_tree", {"max_depth": [None, 2, 8, 4], "min_samples_leaf": [1, 3]}),
            ("knn", {"k": [5, 1, 60, 3, 2, 80]}),
        ]

        from slidebench.learners import build_classifier

        folds = stratified_folds(y, 5, 7)
        for kind, axes in cases:
            grid = default_grid(kind, seed=8, overrides=axes)
            result = cross_validate(grid, X, y, 5, 7)
            for gi, spec in enumerate(grid):
                for f in range(5):
                    val = folds == f
                    model = build_classifier(spec).fit(X[~val], y[~val])
                    acc = np.mean(model.predict(X[val]) == y[val])
                    assert result.fold_accuracy[gi, f] == acc, (spec.spec_id(), f)

    def test_depth_family_fits_once_per_fold(self, monkeypatch):
        from slidebench.learners import DecisionTree

        depths = []
        fit = DecisionTree.fit

        def counting_fit(model, X, y):
            depths.append(model.spec.params["max_depth"])
            return fit(model, X, y)

        monkeypatch.setattr(DecisionTree, "fit", counting_fit)
        X, y = make_blobs([20, 25, 25], d=5, sep=1.5, seed=6)
        grid = default_grid("decision_tree", overrides={"max_depth": [2, None, 4]})
        cross_validate(grid, X, y, 5, 7)
        assert depths == [None] * 5

    def test_k_family_fits_once_per_fold(self, monkeypatch):
        from slidebench.learners import KNearestNeighbor

        ks = []
        fit = KNearestNeighbor.fit

        def counting_fit(model, X, y):
            ks.append(model.spec.params["k"])
            return fit(model, X, y)

        monkeypatch.setattr(KNearestNeighbor, "fit", counting_fit)
        X, y = make_blobs([20, 25, 25], d=5, sep=1.5, seed=6)
        cross_validate(default_grid("knn"), X, y, 5, 7)
        assert ks == [21] * 5

    def test_fold_assignment_shared_across_specs(self):
        X, y = make_blobs([15, 15, 15], d=4, sep=2.0, seed=9)
        grid = default_grid("knn", seed=0)
        result = cross_validate(grid, X, y, 5, 11)
        np.testing.assert_array_equal(result.folds, stratified_folds(y, 5, 11))

    def test_default_grids_shapes(self):
        assert len(default_grid("logistic_regression")) == 4
        assert len(default_grid("knn")) == 5
        assert len(default_grid("decision_tree")) == 4
        assert len(default_grid("gradient_boosting")) == 6
        assert len(default_grid("random_forest")) == 3
        assert len(default_grid("adaboost")) == 3
        assert len(default_grid("naive_bayes")) == 1

    def test_grid_overrides(self):
        grid = default_grid("knn", overrides={"k": [2, 4]})
        assert [s.params["k"] for s in grid] == [2, 4]
