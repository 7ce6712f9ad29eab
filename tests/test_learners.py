"""The seven classifiers: correctness oracles, contracts, serialization."""

import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

from slidebench.fileio import write_framed
from slidebench.learners import (
    ClassifierSpec,
    KINDS,
    ModelFormatError,
    build_classifier,
    default_grid,
    load_model,
    save_model,
)
from slidebench.learners.base import PARAMS, one_hot
from slidebench.learners.linear import LogisticRegression, gradients, objective
from slidebench.learners import trees
from slidebench.learners.trees import bin_features, grow_tree, TreeParams

from conftest import make_blobs

ALL_PARAMS = {
    "logistic_regression": {"l2": 1e-3},
    "adaboost": {"n_estimators": 15},
    "decision_tree": {"max_depth": 4},
    "gradient_boosting": {"n_estimators": 15},
    "random_forest": {"n_estimators": 15},
    "knn": {"k": 3},
    "naive_bayes": {},
}


# Kind -> (staged parameter, stage values whose last is the fitted one).
STAGED = {
    "random_forest": ("n_estimators", [9, 24]),
    "gradient_boosting": ("n_estimators", [9, 24]),
    "adaboost": ("n_estimators", [9, 24]),
    "decision_tree": ("max_depth", [1, 2, 3, None]),
    "knn": ("k", [1, 4, 9]),
}


def _fit(kind, X, y, **params):
    return build_classifier(ClassifierSpec(kind, params=params, seed=9)).fit(X, y)


@pytest.fixture(scope="module")
def blob_data():
    X, y = make_blobs([30, 40, 50], d=10, sep=4.0, seed=0)
    Xt, yt = make_blobs([15, 15, 15], d=10, sep=4.0, seed=1)
    return X, y, Xt, yt


class TestCommonContracts:
    @pytest.mark.parametrize("kind", KINDS)
    def test_proba_rows_sum_to_one(self, kind, blob_data):
        X, y, Xt, _ = blob_data
        model = build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind], seed=3)).fit(X, y)
        proba = model.predict_proba(Xt)
        assert proba.shape == (len(Xt), 3)
        assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9
        assert proba.min() >= 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_argmax_proba_equals_predict(self, kind, blob_data):
        X, y, Xt, _ = blob_data
        model = build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind], seed=3)).fit(X, y)
        proba = model.predict_proba(Xt)
        np.testing.assert_array_equal(model.predict(Xt), model.classes_[np.argmax(proba, axis=1)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic_given_seed(self, kind, blob_data):
        X, y, Xt, _ = blob_data
        spec = ClassifierSpec(kind, params=ALL_PARAMS[kind], seed=11)
        a = build_classifier(spec).fit(X, y).predict_proba(Xt)
        b = build_classifier(spec).fit(X, y).predict_proba(Xt)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_dimension_mismatch_rejected(self, kind, blob_data):
        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind], seed=3)).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_proba(X[:, :4])

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_class_training_rejected(self, kind):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError, match="2 classes"):
            build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind])).fit(X, np.zeros(10))

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_features_rejected(self, kind):
        X = np.ones((10, 3))
        X[0, 0] = np.nan
        y = np.arange(10) % 3
        with pytest.raises(ValueError, match="non-finite"):
            build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind])).fit(X, y)

    @pytest.mark.parametrize("kind", KINDS)
    def test_spelled_out_defaults_fit_the_same(self, kind, blob_data):
        # A spec that omits a parameter fits with the table default.
        X, y, Xt, _ = blob_data
        spelled = {name: p.default for name, p in PARAMS[kind].items()}
        fits = [build_classifier(ClassifierSpec(kind, params, seed=3)).fit(X, y) for params in ({}, spelled)]
        (extra_a, arrays_a), (extra_b, arrays_b) = (m.state() for m in fits)
        assert fits[0].classes_.tobytes() == fits[1].classes_.tobytes()
        assert extra_a == extra_b
        assert arrays_a.keys() == arrays_b.keys()
        for name in arrays_a:
            assert arrays_a[name].tobytes() == arrays_b[name].tobytes(), name
        assert fits[0].predict_proba(Xt).tobytes() == fits[1].predict_proba(Xt).tobytes()


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            ClassifierSpec("svm")

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("knn", {"k": 0}),
            ("decision_tree", {"max_depth": 0}),
            ("gradient_boosting", {"learning_rate": 0.0}),
            ("gradient_boosting", {"n_estimators": 0}),
            ("random_forest", {"n_estimators": 0}),
            ("logistic_regression", {"l2": -1.0}),
            ("adaboost", {"base_depth": 4}),
            # Counts are integers, not floats or bools.
            ("random_forest", {"n_estimators": 2.5}),
            ("gradient_boosting", {"n_estimators": 3.0}),
            ("adaboost", {"n_estimators": True}),
            ("knn", {"k": 3.0}),
            ("logistic_regression", {"max_iter": 300.0}),
            ("decision_tree", {"max_depth": 2.5}),
            ("gradient_boosting", {"max_depth": True}),
        ],
    )
    def test_invalid_params(self, kind, params):
        with pytest.raises(ValueError):
            ClassifierSpec(kind, params=params)

    @pytest.mark.parametrize(
        "kind,name",
        [
            ("logistic_regression", "l2"),
            ("logistic_regression", "tol"),
            ("gradient_boosting", "learning_rate"),
            ("naive_bayes", "var_floor_ratio"),
        ],
    )
    @pytest.mark.parametrize("value", [math.inf, np.float64(math.inf), math.nan], ids=["inf", "np_inf", "nan"])
    def test_non_finite_real_params_rejected(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >=? 0 and finite, got "):
            ClassifierSpec(kind, params={name: value})

    @pytest.mark.parametrize(
        "kind,name",
        [
            ("logistic_regression", "C"),
            ("adaboost", "learning_rate"),
            ("decision_tree", "n_estimators"),
            ("gradient_boosting", "max_features"),
            ("random_forest", "n_estimator"),
            ("knn", "weights"),
            ("naive_bayes", "var_smoothing"),
        ],
    )
    def test_unknown_param_rejected(self, kind, name):
        with pytest.raises(ValueError, match=f"{kind} has no parameter '{name}'"):
            ClassifierSpec(kind, params={name: 1})

    @pytest.mark.parametrize(
        "kind", ["decision_tree", "random_forest", "gradient_boosting", "adaboost"]
    )
    @pytest.mark.parametrize(
        "params,message",
        [
            ({"max_bins": 0}, "max_bins"),
            ({"max_bins": 1}, "max_bins"),
            ({"max_bins": -5}, "max_bins"),
            ({"max_bins": 65537}, "max_bins"),
            ({"max_bins": 16.0}, "max_bins"),
            ({"min_samples_leaf": 0}, "min_samples_leaf"),
            ({"min_samples_leaf": -3}, "min_samples_leaf"),
            ({"min_samples_split": 1}, "min_samples_split"),
            ({"min_samples_split": -1}, "min_samples_split"),
            ({"min_samples_leaf": 1.5}, "min_samples_leaf"),
            ({"min_samples_split": 2.5}, "min_samples_split"),
        ],
    )
    def test_invalid_tree_engine_params(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            ClassifierSpec(kind, params=params)

    @pytest.mark.parametrize("value", [0, -2, True, 2.5, "log2"])
    def test_invalid_forest_max_features(self, value):
        with pytest.raises(ValueError, match="max_features"):
            ClassifierSpec("random_forest", params={"max_features": value})

    @pytest.mark.parametrize(
        "params",
        [
            {"max_bins": 2},
            {"max_bins": 65536},
            {"min_samples_leaf": 1, "min_samples_split": 2},
            {"max_features": None},
            {"max_features": "sqrt"},
            {"max_features": 1},
        ],
    )
    def test_valid_tree_engine_params(self, params):
        ClassifierSpec("random_forest", params=params)

    def test_invalid_grid_value_rejected(self):
        with pytest.raises(ValueError, match="max_bins"):
            default_grid("gradient_boosting", overrides={"max_bins": [16, 1]})

    def test_two_bins_still_fit(self, blob_data):
        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec("decision_tree", params={"max_bins": 2})).fit(X, y)
        assert model.tree_.n_nodes > 1


def _perceptron_separable(X, y, n_classes=3, epochs=200) -> bool:
    """Kesler multi-class perceptron; convergence proves separability."""
    Xb = np.hstack([X, np.ones((len(X), 1))])
    W = np.zeros((n_classes, Xb.shape[1]))
    for _ in range(epochs):
        errors = 0
        for i in range(len(Xb)):
            pred = int(np.argmax(W @ Xb[i]))
            if pred != y[i]:
                W[y[i]] += Xb[i]
                W[pred] -= Xb[i]
                errors += 1
        if errors == 0:
            return True
    return False


class TestLogisticRegression:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        Xs = rng.standard_normal((25, 6))
        codes = rng.integers(0, 3, 25)
        Y = np.zeros((25, 3))
        Y[np.arange(25), codes] = 1.0
        h = 1e-6
        for _ in range(20):
            W = rng.standard_normal((6, 3))
            b = rng.standard_normal(3)
            l2 = float(rng.choice([0.0, 1e-3, 1e-1]))
            gW, gb = gradients(Xs, Y, W, b, l2)
            num_W = np.zeros_like(W)
            for i in range(6):
                for j in range(3):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    num_W[i, j] = (objective(Xs, Y, Wp, b, l2) - objective(Xs, Y, Wm, b, l2)) / (2 * h)
            num_b = np.zeros_like(b)
            for j in range(3):
                bp, bm = b.copy(), b.copy()
                bp[j] += h
                bm[j] -= h
                num_b[j] = (objective(Xs, Y, W, bp, l2) - objective(Xs, Y, W, bm, l2)) / (2 * h)
            scale = max(np.abs(gW).max(), np.abs(gb).max(), 1e-12)
            assert np.abs(num_W - gW).max() / scale < 1e-5
            assert np.abs(num_b - gb).max() / scale < 1e-5

    def test_perfect_fit_on_separable_2d(self):
        # Verify separability with an independent perceptron first.
        X, y = make_blobs([20, 20, 20], d=2, sep=6.0, seed=4)
        assert _perceptron_separable(X, y)
        model = build_classifier(ClassifierSpec("logistic_regression", params={"l2": 0.0})).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_zero_parameters_give_uniform(self):
        X, y = make_blobs([10, 10, 10], d=4, sep=2.0, seed=2)
        model = build_classifier(ClassifierSpec("logistic_regression")).fit(X, y)
        model.W_ = np.zeros_like(model.W_)
        model.b_ = np.zeros_like(model.b_)
        np.testing.assert_allclose(model.predict_proba(X[:5]), 1.0 / 3.0, atol=1e-12)

    def test_converged_at_start_counts_no_steps(self):
        X, y = make_blobs([10, 10, 10], d=4, sep=2.0, seed=2)
        model = build_classifier(ClassifierSpec("logistic_regression", params={"tol": 1e6})).fit(X, y)
        assert model.n_iter_ == 0
        assert not model.W_.any() and not model.b_.any()

    def test_l2_shrinks_weights(self):
        X, y = make_blobs([20, 20, 20], d=6, sep=3.0, seed=5)
        w0 = build_classifier(ClassifierSpec("logistic_regression", params={"l2": 0.0})).fit(X, y)
        w1 = build_classifier(ClassifierSpec("logistic_regression", params={"l2": 1.0})).fit(X, y)
        assert np.linalg.norm(w1.W_) < np.linalg.norm(w0.W_)


def _lr_data(n_classes: int):
    rng = np.random.default_rng(30 + n_classes)
    centers = 2.0 * rng.standard_normal((n_classes, 7))
    y = np.arange(72) % n_classes
    return centers[y] + rng.standard_normal((72, 7)), y


# sha256 of W_, b_, n_iter_ (int64) and the objective at (W_, b_) of
# logistic-regression fits on `_lr_data(n_classes)` with max_iter=300, keyed
# by (n_classes, l2); recorded with the solver that still reduced each row
# with `axis=1` numpy calls (numpy 2.4, x86-64). Nine classes take numpy's
# pairwise row sums. The objective's bytes guard the loss, whose rounding
# reaches the iterates only through the line search's accept test.
# `n_iter_` is the number of descent steps taken: a fit whose gradient test
# passes at loop index i took i steps.
GOLDEN_LR = {
    (2, 0.0): "db7e92cbd4d0c7b5dd7f8c6640a5eecfe56e62030558677b192b368de6c60199",
    (2, 0.01): "e29c8029fea322bc91caa82ae36b5defe36b7d0f9fae1f22eb94caf167de4fb4",
    (3, 0.0): "9c1d2503f7638c3722d09f321dc8799a5ebc3a258c7d49c915bb33df71e92817",
    (3, 0.01): "b706c5fdf538bc39ed2d39d45234ee3a9e83338d0a7b57c7c61929951a710e73",
    (9, 0.0): "a23ddab4f22a464288f78cd8e2424e1ba735b694c635f6a10efa179ec941147a",
    (9, 0.01): "d8bc5a233bde9688d8b319288771c632f6baf458f4a897f96bbd1a97225cf035",
}


class TestLogisticRegressionGoldenBytes:
    @pytest.mark.parametrize("n_classes, l2", sorted(GOLDEN_LR))
    def test_fit_bytes_unchanged(self, n_classes, l2):
        X, y = _lr_data(n_classes)
        spec = ClassifierSpec("logistic_regression", {"l2": l2, "max_iter": 300})
        m = build_classifier(spec).fit(X, y)
        obj = objective(m.scaler_.transform(X), one_hot(y, n_classes), m.W_, m.b_, l2)
        digest = hashlib.sha256(
            m.W_.tobytes() + m.b_.tobytes() + np.int64(m.n_iter_).tobytes() + np.float64(obj).tobytes()
        )
        assert digest.hexdigest() == GOLDEN_LR[(n_classes, l2)]


class TestDecisionTree:
    def test_depth_one_finds_brute_force_split(self):
        # One feature separates class 0 from {1, 2}; enumerate all
        # single-feature thresholds by brute force and compare.
        rng = np.random.default_rng(3)
        n = 60
        y = rng.integers(0, 3, n)
        X = rng.standard_normal((n, 5))
        X[:, 2] = np.where(y == 0, 1.0, -1.0) + rng.normal(0, 0.05, n)

        def gini(labels):
            if len(labels) == 0:
                return 0.0
            p = np.bincount(labels, minlength=3) / len(labels)
            return 1.0 - (p ** 2).sum()

        best = (-1, 0.0, -np.inf)
        for f in range(5):
            vals = np.unique(X[:, f])
            for thr in (vals[:-1] + vals[1:]) / 2:
                left = y[X[:, f] <= thr]
                right = y[X[:, f] > thr]
                gain = gini(y) - (len(left) * gini(left) + len(right) * gini(right)) / n
                if gain > best[2] + 1e-12:
                    best = (f, thr, gain)

        model = build_classifier(ClassifierSpec("decision_tree", params={"max_depth": 1})).fit(X, y)
        assert int(model.tree_.feature[0]) == best[0] == 2
        assert model.tree_.threshold[0] == pytest.approx(best[1], abs=1e-12)
        assert np.mean(model.predict(X) == y) >= 2.0 / 3.0

    def test_max_depth_respected(self):
        X, y = make_blobs([30, 30, 30], d=6, sep=1.0, seed=6)
        model = build_classifier(ClassifierSpec("decision_tree", params={"max_depth": 2})).fit(X, y)
        # A depth-2 binary tree has at most 7 nodes.
        assert model.tree_.n_nodes <= 7

    def test_depth_cut_equals_depth_limited_fit(self, blob_data):
        X, y, Xt, _ = blob_data
        deep = build_classifier(ClassifierSpec("decision_tree")).fit(X, y)
        depths = [1, 2, 3, 5, None]
        staged = deep.staged_proba(Xt, depths)
        for depth, proba in zip(depths, staged):
            spec = ClassifierSpec("decision_tree", params={"max_depth": depth})
            expected = build_classifier(spec).fit(X, y).predict_proba(Xt)
            assert proba.tobytes() == expected.tobytes(), depth
        assert staged[0].tobytes() != staged[-1].tobytes()

    def test_pure_training_fit_unbounded(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 8))
        y = rng.integers(0, 3, 50)
        model = build_classifier(ClassifierSpec("decision_tree")).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0


class TestEngine:
    def test_unsplittable_constant_features(self):
        table = bin_features(np.ones((20, 3)))
        tree, leaves = grow_tree(table, "gini", np.arange(20) % 2, TreeParams(), n_classes=2)
        assert tree.n_nodes == 1
        assert np.all(leaves == 0)

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, 30)
        table = bin_features(X)
        tree, leaves = grow_tree(
            table, "gini", y, TreeParams(min_samples_leaf=10), n_classes=2
        )
        counts = np.bincount(leaves, minlength=tree.n_nodes)
        leaf_ids = np.flatnonzero(tree.feature < 0)
        assert all(counts[i] >= 10 for i in leaf_ids if counts[i] > 0)

    def test_min_samples_leaf_below_one_rejected(self):
        # The split search relies on the leaf-size test to rule out
        # boundaries past a feature's last bin.
        table = bin_features(np.arange(12.0).reshape(6, 2))
        with pytest.raises(ValueError, match="min_samples_leaf must be >= 1"):
            grow_tree(table, "gini", np.arange(6) % 2, TreeParams(min_samples_leaf=0), n_classes=2)

    def test_regression_leaf_means(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        table = bin_features(X)
        tree, leaves = grow_tree(table, "variance", y, TreeParams(max_depth=2))
        for leaf in np.unique(leaves):
            np.testing.assert_allclose(tree.value[leaf, 0], y[leaves == leaf].mean(), atol=1e-10)


def _engine_data():
    """120 rows, 3 classes: five coarse features (binned at exact midpoints)
    and one continuous feature with 120 distinct values, more than the
    default max_bins of 64, so it is quantile-binned."""
    X, y = make_blobs([35, 40, 45], d=6, sep=1.5, seed=21)
    X[:, :5] = np.round(X[:, :5] * 2.0) / 2.0
    return X, y


# sha256 of each saved model fit on `_engine_data()`, recorded with the
# channel-last engine that the channel-major histograms replaced (numpy 2.4,
# x86-64); the last two, whose frontiers mix splittable and unsplittable
# nodes, with the engine that still histogrammed every frontier node. Any
# change to the tree engine must leave every byte of these models unchanged.
GOLDEN_MODELS = {
    "decision_tree_depth2": (
        ClassifierSpec("decision_tree", {"max_depth": 2}, seed=4),
        "73f33100df56751c9786a576cb9d959003cb60fcb73a966036aaec633f325dda",
    ),
    "decision_tree_full": (
        ClassifierSpec("decision_tree", {"max_depth": None}, seed=4),
        "14eeb095718ac22030737a5f66421d0d23a98f2d92bad39a33b3bd78ba25c712",
    ),
    "random_forest": (
        ClassifierSpec("random_forest", {"n_estimators": 6}, seed=4),
        "05c352721dcf607f1070c8dfe7ed33779530a9053f336571dc082f99ac638df6",
    ),
    "gradient_boosting": (
        ClassifierSpec("gradient_boosting", {"n_estimators": 6, "max_depth": 3}, seed=4),
        "632c8f61ed646a849a55bfe6c299ac73e0e673f1be17310675d4b6a1cce95975",
    ),
    "adaboost": (
        ClassifierSpec("adaboost", {"n_estimators": 6, "base_depth": 2}, seed=4),
        "dc96cb46de95915bc974d75cedc3532b1dae54abc40eb8ca95dbb2233e785a30",
    ),
    "decision_tree_split12": (
        ClassifierSpec("decision_tree", {"max_depth": None, "min_samples_split": 12}, seed=4),
        "8fbcf788562831af6b7e537d2a662e52adcabeff8f974417442fd58ba73cc9ae",
    ),
    "random_forest_leaf3": (
        ClassifierSpec("random_forest", {"n_estimators": 6, "min_samples_leaf": 3}, seed=4),
        "dcd187777b9ee1a0b2ee5ee5c7d02e00c4ba0bf729e653303e4dc0ebb348802d",
    ),
}


class TestEngineGoldenBytes:
    def test_data_reaches_both_binning_branches(self):
        X, _ = _engine_data()
        distinct = [np.unique(X[:, f]).size for f in range(X.shape[1])]
        assert max(distinct[:5]) <= 64 < distinct[5]

    @pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
    def test_model_bytes_unchanged(self, name, tmp_path):
        spec, digest = GOLDEN_MODELS[name]
        X, y = _engine_data()
        path = save_model(build_classifier(spec).fit(X, y), tmp_path / f"{name}.modl")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _grow_case(case: str):
    X, y = _engine_data()
    table = bin_features(X)
    rng = np.random.default_rng(5)
    if case == "gini":
        return grow_tree(table, "gini", y, TreeParams(), n_classes=3)
    if case == "weighted_gini":
        w = rng.random(len(y)) + 0.1
        return grow_tree(table, "gini", y, TreeParams(), n_classes=3, sample_weight=w)
    if case == "subsampled":
        draw = np.bincount(rng.integers(0, len(y), len(y)), minlength=len(y)).astype(np.float64)
        rows = np.flatnonzero(draw > 0)
        return grow_tree(
            table, "gini", y, TreeParams(max_features=2), n_classes=3,
            sample_weight=draw[rows], rows=rows, rng=rng,
        )
    return grow_tree(table, "variance", rng.standard_normal(len(y)), TreeParams(max_depth=4))


class TestChunkedFrontier:
    @pytest.mark.parametrize("case", ["gini", "weighted_gini", "subsampled", "variance"])
    def test_one_node_chunks_match_unchunked(self, case, monkeypatch):
        whole, leaves = _grow_case(case)
        # A budget of one cell leaves one frontier node per histogram pass.
        monkeypatch.setattr(trees, "_CELL_BUDGET", 1)
        chunked, chunked_leaves = _grow_case(case)
        assert whole.n_nodes > 3  # some level has a frontier of several nodes
        for name in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(whole, name), getattr(chunked, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        np.testing.assert_array_equal(leaves, chunked_leaves)


def _mixed_table(rng, n: int, max_bins: int = 16):
    """Constant, binary, three-level and continuous columns in one table:
    most features have fewer bins than the table's widest."""
    X = np.column_stack([
        np.full(n, 2.5),
        rng.integers(0, 2, n),
        rng.integers(0, 3, n) * 0.5,
        rng.standard_normal(n),
        rng.integers(0, 2, n),
        rng.standard_normal(n) * 3.0,
    ])
    return bin_features(X, max_bins), X


def _tree_digest(fits) -> str:
    h = hashlib.sha256()
    for tree, leaves in fits:
        for name in ("feature", "threshold", "left", "right", "value"):
            h.update(getattr(tree, name).tobytes())
        h.update(np.asarray(leaves, dtype=np.int64).tobytes())
    return h.hexdigest()


def _tiny_weight_fits():
    # Float weights with zeros and subnormal-sized ones: weight totals lie
    # strictly between 0 and 1, where only "total if total > 0 else 1" is
    # the right denominator.
    fits = []
    for seed in range(6):
        rng = np.random.default_rng([31, seed])
        table, X = _mixed_table(rng, 60)
        w = rng.random(60)
        w[rng.random(60) < 0.25] = 0.0
        w[rng.random(60) < 0.15] = 1e-300
        w /= w.sum()
        y = (X[:, 3] > 0).astype(int) + rng.integers(0, 2, 60)
        fits.append(grow_tree(table, "gini", y, TreeParams(), n_classes=3, sample_weight=w))
        fits.append(grow_tree(table, "variance", X[:, 5] + rng.standard_normal(60),
                              TreeParams(max_depth=4), sample_weight=w))
    return fits


def _integer_weight_fits():
    # Integer weights, with zeros and with min_samples_leaf = 3: a side's
    # weight total and its row count differ, and the leaf-size test must
    # count rows.
    fits = []
    for seed in range(6):
        rng = np.random.default_rng([32, seed])
        table, X = _mixed_table(rng, 50)
        w = rng.integers(0, 4, 50).astype(np.float64)
        y = rng.integers(0, 3, 50)
        rows = np.flatnonzero(w > 0)
        for leaf in (1, 3):
            params = TreeParams(min_samples_leaf=leaf)
            fits.append(grow_tree(table, "gini", y, params, n_classes=3, sample_weight=w))
            fits.append(grow_tree(table, "variance", X[:, 3] * y, params, sample_weight=w))
            fits.append(grow_tree(
                table, "gini", y, params, n_classes=3, sample_weight=w[rows], rows=rows
            ))
    return fits


def _mixed_bin_fits():
    # Unit weights and bootstrap counts over features with 1, 2, 3 and 16
    # bins: boundaries at or past a feature's last bin must never win.
    fits = []
    for seed in range(6):
        rng = np.random.default_rng([33, seed])
        table, X = _mixed_table(rng, 70)
        y = rng.integers(0, 4, 70)
        fits.append(grow_tree(table, "gini", y, TreeParams(), n_classes=4))
        fits.append(grow_tree(table, "variance", X[:, 1] - X[:, 2] + 0.1 * y, TreeParams()))
        draw = np.bincount(rng.integers(0, 70, 70), minlength=70).astype(np.float64)
        rows = np.flatnonzero(draw > 0)
        for leaf in (1, 2):
            fits.append(grow_tree(
                table, "gini", y, TreeParams(min_samples_leaf=leaf, max_features=3), n_classes=4,
                sample_weight=draw[rows], rows=rows, rng=np.random.default_rng([seed, leaf]),
            ))
    return fits


def _random_fits(n_fits: int = 300):
    fits = []
    for i in range(n_fits):
        rng = np.random.default_rng([34, i])
        n, d = int(rng.integers(4, 60)), int(rng.integers(1, 12))
        X = rng.standard_normal((n, d))
        for f in np.flatnonzero(rng.random(d) < 0.4):
            X[:, f] = rng.integers(0, int(rng.integers(1, 4)), n)
        table = bin_features(X, int(rng.integers(2, 70)))
        params = TreeParams(
            max_depth=None if rng.random() < 0.4 else int(rng.integers(1, 6)),
            min_samples_split=int(rng.choice([2, 4, 9])),
            min_samples_leaf=int(rng.choice([1, 1, 2, 4])),
            max_features=None if rng.random() < 0.5 else int(rng.integers(1, d + 1)),
        )
        weights = int(rng.integers(0, 4))
        w = None
        if weights == 1:
            w = rng.random(n) + 0.01
        elif weights == 2:
            w = rng.integers(0, 4, n).astype(np.float64)
        elif weights == 3:
            w = rng.random(n)
            w[rng.random(n) < 0.3] = 0.0
        rows = None
        if rng.random() < 0.3:
            draw = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
            rows = np.flatnonzero(draw > 0)
            w = draw[rows] if w is None else w[rows]
        tree_rng = np.random.default_rng([35, i])
        if rng.random() < 0.5:
            k = int(rng.integers(2, 5))
            fits.append(grow_tree(table, "gini", rng.integers(0, k, n), params, n_classes=k,
                                  sample_weight=w, rows=rows, rng=tree_rng))
        else:
            fits.append(grow_tree(table, "variance", rng.standard_normal(n), params,
                                  sample_weight=w, rows=rows, rng=tree_rng))
    return fits


def _single_splittable_boost_fits():
    # Boosting fits whose depth-1 frontier has one splittable node, which
    # holds only some of the rows: work that the trees of a fit could share
    # at depth 0 does not carry over to it.
    # Of 60 rows, at most one root child holds the 31 that gradient
    # boosting needs to split; AdaBoost's root splits off the six rows of
    # class 0, a pure child.
    rng = np.random.default_rng(36)
    X = rng.standard_normal((60, 8))
    y = rng.integers(1, 3, 60)
    X[:6, 0] += 6.0
    y[:6] = 0
    models = [
        build_classifier(ClassifierSpec(
            "gradient_boosting", {"n_estimators": 4, "max_depth": 3, "min_samples_split": 31}
        )).fit(X, y),
        build_classifier(ClassifierSpec("adaboost", {"n_estimators": 6, "base_depth": 3})).fit(X, y),
    ]
    trees_ = [t for stage in models[0].rounds_ for t in stage] + models[1].trees_
    return X, trees_, [(t, t.apply(X)) for t in trees_]


# sha256 over each case's fitted trees and leaf ids, recorded with the
# engine that searched every split with an argsort by node, one
# concatenated histogram per level and an explicit last-bin mask, and that
# recomputed the root for every tree of an ensemble (numpy 2.4, x86-64).
ENGINE_CASES = {
    "tiny_float_weights": (
        _tiny_weight_fits,
        "8b78b8c88f64614e7bd94594381feecb3bc0bd983b6b2bb8a576df7defcb36e3",
    ),
    "integer_weights": (
        _integer_weight_fits,
        "e3b0fd2391cf3c0bc577e407b55153e18e6614948386bfd3a8f3934162f9df89",
    ),
    "mixed_bin_counts": (
        _mixed_bin_fits,
        "dd5755e8c26442d59258ac9a2643afdd49b9ceef63ce9a85475a805b7a3ae000",
    ),
    "random_300": (
        _random_fits,
        "02f52ad8ae4448cc5c3c8666622cda2a73875f0f708b80f6fda78e768afb7d3e",
    ),
    "boosting_single_splittable": (
        lambda: _single_splittable_boost_fits()[2],
        "1cc0c04b3c9ea50bd95920dd79007f8a543d3583ef761a2264bb3b9e85bd626d",
    ),
}


class TestEngineExactness:
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_fits_unchanged(self, name):
        build, digest = ENGINE_CASES[name]
        assert _tree_digest(build()) == digest

    def test_boosting_case_has_single_splittable_node(self):
        X, trees_, _ = _single_splittable_boost_fits()
        singles = {"gbm": 0, "ada": 0}
        for i, tree in enumerate(trees_):
            kids = [tree.left[0], tree.right[0]]
            rows = np.bincount(tree.apply(X, max_depth=1), minlength=tree.n_nodes)[kids]
            split = [tree.feature[c] >= 0 for c in kids]
            if i < 12:  # gradient boosting: only a child of 31 rows or more can split
                singles["gbm"] += split.count(True) == 1 and min(rows) < 31
            else:  # AdaBoost: the six rows of class 0 form a pure child
                singles["ada"] += split.count(True) == 1 and min(rows) == 6
        assert singles["gbm"] >= 6 and singles["ada"] >= 1, singles


class TestSharedBins:
    FIELDS = ("codes", "n_bins", "edges_flat", "edge_offset", "flat_codes")

    def test_equal_matrices_share_one_table(self):
        X, _ = _engine_data()
        with trees.shared_bins():
            table = bin_features(X)
            assert bin_features(X.copy()) is table
            assert bin_features(np.asfortranarray(X)) is table
            assert bin_features(X + 1.0) is not table
            assert bin_features(X[:-1]) is not table
            assert bin_features(X, max_bins=16) is not table
            assert bin_features(X, max_bins=16) is bin_features(X.copy(), max_bins=16)

    def test_nothing_shared_outside_the_block(self):
        X, _ = _engine_data()
        assert bin_features(X) is not bin_features(X)
        with trees.shared_bins():
            inside = bin_features(X)
            with trees.shared_bins():
                assert bin_features(X) is inside  # a nested block shares the outer cache
        assert bin_features(X) is not inside
        with trees.shared_bins():
            assert bin_features(X) is not inside  # each block starts empty

    def test_tables_are_read_only(self):
        X, _ = _engine_data()
        with trees.shared_bins():
            shared = bin_features(X)
        for table in (shared, bin_features(X)):
            for name in self.FIELDS:
                arr = getattr(table, name)
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0

    def test_shared_table_equals_unshared(self):
        X, _ = _engine_data()
        with trees.shared_bins():
            bin_features(X)
            shared = bin_features(X.copy())
        fresh = bin_features(X)
        for name in self.FIELDS:
            a, b = getattr(shared, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


class TestKNN:
    def test_k1_training_accuracy(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 5))  # almost surely distinct rows
        y = rng.integers(0, 3, 40)
        model = build_classifier(ClassifierSpec("knn", params={"k": 1})).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_distance_tie_lower_index_wins(self):
        X = np.asarray([[0.0], [2.0]])
        y = np.asarray([0, 1])
        model = build_classifier(ClassifierSpec("knn", params={"k": 1})).fit(X, y)
        # Query at 1.0 is equidistant; the lower training row (class 0) wins.
        assert model.predict(np.asarray([[1.0]]))[0] == 0

    def test_k_clamped_to_training_size(self):
        X = np.asarray([[0.0], [1.0], [2.0]])
        y = np.asarray([0, 1, 1])
        model = build_classifier(ClassifierSpec("knn", params={"k": 50})).fit(X, y)
        proba = model.predict_proba(np.asarray([[5.0]]))
        np.testing.assert_allclose(proba[0], [1 / 3, 2 / 3], atol=1e-12)

    def test_vote_fractions(self):
        X = np.asarray([[0.0], [0.1], [0.2], [5.0]])
        y = np.asarray([0, 0, 1, 2])
        model = build_classifier(ClassifierSpec("knn", params={"k": 3})).fit(X, y)
        proba = model.predict_proba(np.asarray([[0.05]]))
        np.testing.assert_allclose(proba[0], [2 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_staged_proba_equals_separate_fits(self):
        # Integer coordinates with duplicate rows: many exact distance ties,
        # and every squared distance is exact, so the oracle below orders
        # rows by (distance, row index) with no rounding.
        rng = np.random.default_rng(3)
        X = rng.integers(0, 3, (25, 2)).astype(np.float64)
        X[10:15] = X[:5]
        y = rng.integers(0, 3, 25)
        Q = rng.integers(0, 3, (12, 2)).astype(np.float64)
        n = len(y)
        ks = [7, 1, n, 2, n + 3]
        staged = build_classifier(ClassifierSpec("knn", {"k": n + 3})).fit(X, y).staged_proba(Q, ks)
        for k, proba in zip(ks, staged):
            single = build_classifier(ClassifierSpec("knn", {"k": k})).fit(X, y).predict_proba(Q)
            assert proba.tobytes() == single.tobytes(), k
            kk = min(k, n)
            for q, row in zip(Q, proba):
                dist = ((X - q) ** 2).sum(axis=1)
                nearest = sorted(range(n), key=lambda j: (dist[j], j))[:kk]
                np.testing.assert_array_equal(row, np.bincount(y[nearest], minlength=3) / kk)


class TestNaiveBayes:
    def test_symmetric_parameters_give_uniform(self):
        X, y = make_blobs([12, 12, 12], d=4, sep=2.0, seed=9)
        model = build_classifier(ClassifierSpec("naive_bayes")).fit(X, y)
        model.priors_ = np.full(3, 1 / 3)
        model.means_ = np.tile(model.means_[0], (3, 1))
        model.vars_ = np.tile(model.vars_[0], (3, 1))
        proba = model.predict_proba(X[:6])
        np.testing.assert_allclose(proba, 1 / 3, atol=1e-12)

    def test_zero_variance_feature_survives(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 4))
        X[:, 1] = 7.0  # constant
        y = rng.integers(0, 3, 30)
        model = build_classifier(ClassifierSpec("naive_bayes")).fit(X, y)
        proba = model.predict_proba(X)
        assert np.all(np.isfinite(proba))

    def test_priors_match_frequencies(self):
        X, y = make_blobs([10, 20, 30], d=3, sep=1.0, seed=5)
        model = build_classifier(ClassifierSpec("naive_bayes")).fit(X, y)
        np.testing.assert_allclose(model.priors_, [10 / 60, 20 / 60, 30 / 60])


class TestEnsembles:
    def test_forest_single_tree_equals_decision_tree(self, blob_data):
        X, y, Xt, _ = blob_data
        rf = build_classifier(
            ClassifierSpec(
                "random_forest",
                params={"n_estimators": 1, "bootstrap": False, "max_features": None},
                seed=5,
            )
        ).fit(X, y)
        dt = build_classifier(ClassifierSpec("decision_tree", seed=5)).fit(X, y)
        np.testing.assert_array_equal(rf.predict(Xt), dt.predict(Xt))
        np.testing.assert_allclose(rf.predict_proba(Xt), dt.predict_proba(Xt), atol=1e-12)

    def test_gbm_loss_non_increasing(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((80, 12))
        y = rng.integers(0, 3, 80)
        for lr in (0.05, 0.1):
            model = build_classifier(
                ClassifierSpec("gradient_boosting", params={"n_estimators": 40, "learning_rate": lr})
            ).fit(X, y)
            diffs = np.diff(model.train_loss_)
            assert np.all(diffs <= 1e-12), f"loss increased at rounds {np.flatnonzero(diffs > 0)}"

    def test_gbm_improves_on_separable(self, blob_data):
        X, y, Xt, yt = blob_data
        model = build_classifier(
            ClassifierSpec("gradient_boosting", params={"n_estimators": 30})
        ).fit(X, y)
        assert np.mean(model.predict(Xt) == yt) > 0.9

    def test_adaboost_stops_at_samme_bound(self):
        # Constant features are unlearnable; the first stump's weighted
        # error is 1 - max prior = 2/3 = 1 - 1/K, so nothing is added.
        X = np.ones((30, 2))
        y = np.repeat([0, 1, 2], 10)
        model = build_classifier(ClassifierSpec("adaboost", params={"n_estimators": 25})).fit(X, y)
        assert len(model.trees_) == 0
        np.testing.assert_allclose(model.predict_proba(X[:3]), 1 / 3, atol=1e-12)

    def test_adaboost_perfect_learner_short_circuits(self, blob_data):
        X, y, _, _ = blob_data
        model = build_classifier(
            ClassifierSpec("adaboost", params={"n_estimators": 50, "base_depth": 3})
        ).fit(X, y)
        # Separable blobs with depth-3 stumps: stops well before 50 rounds.
        assert 1 <= len(model.trees_) <= 50
        assert np.mean(model.predict(X) == y) > 0.9

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting", "adaboost", "decision_tree"])
    def test_staged_prefix_equals_cold_fit(self, kind, blob_data):
        X, y, Xt, _ = blob_data
        name, values = STAGED[kind]
        staged = _fit(kind, X, y, **{name: values[-1]}).staged_proba(Xt, values)
        for value, proba in zip(values, staged):
            cold = _fit(kind, X, y, **{name: value}).predict_proba(Xt)
            assert proba.tobytes() == cold.tobytes(), value

    @pytest.mark.parametrize("kind", sorted(STAGED))
    def test_staged_results_follow_the_requested_order(self, kind, blob_data):
        X, y, Xt, _ = blob_data
        name, values = STAGED[kind]
        model = _fit(kind, X, y, **{name: values[-1]})
        alone = {repr(v): model.staged_proba(Xt, [v])[0].tobytes() for v in values}
        assert len(set(alone.values())) == len(values)
        for request in (values[::-1], [values[1], values[0], values[1], values[-1], values[0]]):
            got = model.staged_proba(Xt, request)
            assert [p.tobytes() for p in got] == [alone[repr(v)] for v in request], request

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting", "adaboost"])
    def test_staged_proba_walks_each_member_once(self, kind, blob_data, monkeypatch):
        X, y, Xt, _ = blob_data
        model = _fit(kind, X, y, n_estimators=24)
        n_trees = sum(len(r) for r in model.rounds_) if kind == "gradient_boosting" else len(model.trees_)
        walks = []
        walk = trees.FittedTree.predict_value
        monkeypatch.setattr(trees.FittedTree, "predict_value", lambda t, Q: walks.append(t) or walk(t, Q))
        model.staged_proba(Xt, [24, 3, 9, 9])
        assert len(walks) == n_trees
        assert len({id(t) for t in walks}) == n_trees

    def test_negative_stage_rejected(self, blob_data):
        X, y, Xt, _ = blob_data
        with pytest.raises(ValueError, match="stages must be >= 0"):
            _fit("random_forest", X, y, n_estimators=3).staged_proba(Xt, [2, -1])

    @pytest.mark.parametrize("kind", sorted(STAGED))
    def test_predict_proba_is_the_fitted_stage_after_reload(self, kind, tmp_path, blob_data):
        X, y, Xt, _ = blob_data
        name, values = STAGED[kind]
        model = load_model(save_model(_fit(kind, X, y, **{name: values[-1]}), tmp_path / "m.modl"))
        assert model.predict_proba(Xt).tobytes() == model.staged_proba(Xt, values)[-1].tobytes()

    def test_predict_proba_is_the_fitted_stage_after_early_stop(self, blob_data):
        X, y, Xt, _ = blob_data
        model = _fit("adaboost", X, y, n_estimators=50, base_depth=3)
        fitted = len(model.trees_)
        assert fitted < 50
        proba = model.predict_proba(Xt).tobytes()
        staged = model.staged_proba(Xt, [50, fitted, fitted + 1])
        assert [p.tobytes() for p in staged] == [proba] * 3

    def test_adaboost_honours_min_samples_leaf(self, blob_data):
        X, y, _, _ = blob_data
        plain = _fit("adaboost", X, y, n_estimators=5, base_depth=2)
        model = _fit("adaboost", X, y, n_estimators=5, base_depth=2, min_samples_leaf=40)
        assert [t.threshold.tobytes() for t in model.trees_] != [t.threshold.tobytes() for t in plain.trees_]
        for tree in model.trees_:
            rows = np.bincount(tree.apply(X), minlength=tree.n_nodes)
            assert rows[tree.feature < 0].min() >= 40


# sha256 of the saved models of the three kinds without trees, fit on
# `_engine_data()`, recorded at 8be16f6 (numpy 2.4, x86-64), before each
# classifier stored its own state.
GOLDEN_TREELESS_MODELS = {
    "logistic_regression": (
        ClassifierSpec("logistic_regression", {"l2": 1e-2, "tol": 1e-5}, seed=4),
        "7378baf5d8b8dd6b56997e979a6c9dd8e95dd000795160a6a60101e72f6dbe47",
    ),
    "knn": (
        ClassifierSpec("knn", {"k": 5}, seed=4),
        "5f8f7f5f4bde7a9928b96a0c7ad539045e0d7006184368945f8f6e7663d29b3c",
    ),
    "naive_bayes": (
        ClassifierSpec("naive_bayes", {}, seed=4),
        "5b9dfa53d6221c2f4a5973efe0340a2a289455701159f67b9f458b454e48af4f",
    ),
}

_DTYPE_CODES = {np.dtype("<f8"): 0, np.dtype("<i4"): 1, np.dtype("<i8"): 2}


def _write_modl(path, kind: str, meta: dict, arrays: dict):
    """A correctly framed model file with exactly this kind, meta and arrays."""
    kind_raw, meta_raw = kind.encode(), json.dumps(meta).encode()
    body = struct.pack("<H", len(kind_raw)) + kind_raw + struct.pack("<I", len(meta_raw)) + meta_raw
    body += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        body += struct.pack("<H", len(name)) + name.encode()
        body += struct.pack(f"<BB{arr.ndim}I", _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape)
        body += arr.tobytes()
    return write_framed(path, b"MODL", 1, body)


def _naive_bayes_file(path, kind="naive_bayes", params=None, extra=None, drop=()):
    """A two-feature, three-class naive Bayes model file, less the meta
    keys and arrays named in `drop`."""
    meta = {"kind": kind, "params": params or {}, "seed": 0, "extra": {"d": 2} if extra is None else extra}
    arrays = {
        "classes": np.arange(3, dtype=np.int64),
        "priors": np.full(3, 1 / 3),
        "means": np.arange(6.0).reshape(3, 2),
        "vars": np.ones((3, 2)),
    }
    keep = lambda entries: {k: v for k, v in entries.items() if k not in drop}
    return _write_modl(path, kind, keep(meta), keep(arrays))


# The arrays of a valid two-feature, three-class model file of each
# treeless kind, with its `extra`.
_TREELESS_STATE = {
    "logistic_regression": ({}, {
        "W": np.zeros((2, 3)), "b": np.zeros(3), "scaler_mean": np.zeros(2), "scaler_scale": np.ones(2),
    }),
    "knn": ({}, {"X": np.arange(8.0).reshape(4, 2), "codes": np.array([0, 1, 2, 2], dtype=np.int64)}),
    "naive_bayes": ({"d": 2}, {"priors": np.full(3, 1 / 3), "means": np.zeros((3, 2)), "vars": np.ones((3, 2))}),
}



def _tree_arrays(prefix: str, width: int) -> dict:
    """A root split on feature 0 over two leaves, as `FittedTree.to_arrays(prefix)` names them."""
    return {
        prefix + "feature": np.array([0, -1, -1], dtype=np.int32),
        prefix + "threshold": np.array([0.5, 0.0, 0.0]),
        prefix + "left": np.array([1, -1, -1], dtype=np.int32),
        prefix + "right": np.array([2, -1, -1], dtype=np.int32),
        prefix + "value": np.arange(3.0 * width).reshape(3, width),
    }


# The same for each tree kind: two-feature, three-class files whose
# trees are `_tree_arrays`.
_TREE_STATE = {
    "decision_tree": ({"d": 2}, _tree_arrays("", 3)),
    "random_forest": ({"d": 2, "n_trees": 2}, {**_tree_arrays("t0/", 3), **_tree_arrays("t1/", 3)}),
    "adaboost": ({"d": 2, "n_trees": 2}, {"alphas": np.ones(2), **_tree_arrays("t0/", 3), **_tree_arrays("t1/", 3)}),
    "gradient_boosting": (
        {"d": 2, "n_rounds": 1, "n_classes": 3},
        {"train_loss": np.zeros(2), **{k: v for c in range(3) for k, v in _tree_arrays(f"r0/c{c}/", 1).items()}},
    ),
}


def _model_file(path, kind, changes):
    """A three-class model file of `kind` with `changes` to its arrays
    and, under the key "extra", to its extra."""
    extra, arrays = {**_TREELESS_STATE, **_TREE_STATE}[kind]
    extra = changes.get("extra", extra)
    arrays = {"classes": np.arange(3, dtype=np.int64), **arrays}
    arrays.update((k, v) for k, v in changes.items() if k != "extra")
    return _write_modl(path, kind, {"kind": kind, "params": {}, "seed": 0, "extra": extra}, arrays)


class TestSerialization:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_TREELESS_MODELS))
    def test_treeless_model_bytes_unchanged(self, kind, tmp_path):
        spec, digest = GOLDEN_TREELESS_MODELS[kind]
        X, y = _engine_data()
        path = save_model(build_classifier(spec).fit(X, y), tmp_path / f"{kind}.modl")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_hand_built_file_loads(self, tmp_path):
        model = load_model(_naive_bayes_file(tmp_path / "m.modl"))
        assert model.predict(np.array([[0.0, 1.0], [4.0, 5.0]])).tolist() == [0, 2]

    @pytest.mark.parametrize(
        "case, message",
        [
            ({"kind": "foo"}, "unknown classifier kind 'foo'"),
            ({"params": {"sigma": 1.0}}, "naive_bayes has no parameter 'sigma'"),
            ({"params": {"var_floor_ratio": -1.0}}, "var_floor_ratio must be >= 0"),
            ({"drop": ("seed",)}, "'seed'"),
            ({"drop": ("extra",)}, "'extra'"),
            ({"drop": ("classes",)}, "'classes'"),
            ({"drop": ("vars",)}, "'vars'"),
            ({"params": ["var_floor_ratio"]}, "'list' object has no attribute 'items'"),
            ({"extra": "d"}, "string indices must be integers"),
        ],
        ids=["kind", "param_name", "param_value", "seed", "extra", "classes", "vars", "params_list", "extra_string"],
    )
    def test_wrong_content_names_the_file(self, case, message, tmp_path):
        path = _naive_bayes_file(tmp_path / "m.modl", **case)
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_model(path)

    @pytest.mark.parametrize("kind", sorted(_TREELESS_STATE))
    def test_hand_built_treeless_file_loads(self, kind, tmp_path):
        model = load_model(_model_file(tmp_path / "m.modl", kind, {}))
        assert model.predict_proba(np.zeros((1, 2))).shape == (1, 3)

    @pytest.mark.parametrize("kind", sorted(_TREE_STATE))
    def test_hand_built_tree_file_loads(self, kind, tmp_path):
        model = load_model(_model_file(tmp_path / "m.modl", kind, {}))
        assert model.predict_proba(np.array([[0.0, 1.0], [1.0, 0.0]])).shape == (2, 3)

    @pytest.mark.parametrize(
        "kind, changes, message",
        [
            ("logistic_regression", {"W": np.zeros((2, 2))}, "array 'W' has shape (2, 2), expected (2, 3)"),
            ("logistic_regression", {"b": np.zeros(2)}, "array 'b' has shape (2,), expected (3,)"),
            ("logistic_regression", {"scaler_scale": np.ones(3)}, "array 'scaler_scale' has shape (3,), expected (2,)"),
            ("knn", {"codes": np.array([0, 1, 2, 3], dtype=np.int64)}, "array 'codes' must hold integers in 0..2"),
            ("knn", {"codes": np.array([0.0, 1.0, 2.0, 2.0])}, "array 'codes' must hold integers in 0..2"),
            ("knn", {"codes": np.array([0, 1, 2], dtype=np.int64)}, "array 'codes' has shape (3,), expected (4,)"),
            ("naive_bayes", {"extra": {"d": 5}}, "array 'means' has shape (3, 2), expected (3, 5)"),
            ("naive_bayes", {"priors": np.full(2, 0.5)}, "array 'priors' has shape (2,), expected (3,)"),
            ("naive_bayes", {"vars": np.ones((3, 3))}, "array 'vars' has shape (3, 3), expected (3, 2)"),
            ("decision_tree", {"feature": np.array([5, -1, -1], dtype=np.int32)},
             "array 'feature' must hold feature indices below d=2"),
            ("decision_tree", {"feature": np.zeros(0, dtype=np.int32)},
             "array 'feature' has shape (0,), expected (n,) with n >= 1"),
            ("decision_tree", {"threshold": np.zeros(2)}, "array 'threshold' has shape (2,), expected (3,)"),
            ("decision_tree", {"value": np.zeros((3, 2))}, "array 'value' has shape (3, 2), expected (3, 3)"),
            ("decision_tree", {"left": np.array([1.0, -1.0, -1.0])}, "array 'left' must hold integers"),
            ("decision_tree", {"right": np.array([3, -1, -1], dtype=np.int32)},
             "array 'right' must hold ids after their parent's and below 3"),
            ("random_forest", {"t1/right": np.array([0, -1, -1], dtype=np.int32)},
             "array 't1/right' must hold ids after their parent's and below 3"),
            ("random_forest", {"t0/left": np.array([1, 2, -1], dtype=np.int32)},
             "array 't0/left' must hold -1 at every leaf"),
            ("adaboost", {"alphas": np.ones(1)}, "array 'alphas' has shape (1,), expected (2,)"),
            ("adaboost", {"t1/value": np.zeros((3, 1))}, "array 't1/value' has shape (3, 1), expected (3, 3)"),
            ("gradient_boosting", {"train_loss": np.zeros(1)}, "array 'train_loss' has shape (1,), expected (2,)"),
            ("gradient_boosting", {"r0/c2/value": np.zeros((3, 3))},
             "array 'r0/c2/value' has shape (3, 3), expected (3, 1)"),
            ("gradient_boosting", {"extra": {"d": 2, "n_rounds": 1, "n_classes": 2}},
             "extra n_classes=2 disagrees with 3 classes"),
        ],
        ids=["lr_W", "lr_b", "lr_scaler", "knn_code_range", "knn_code_dtype", "knn_codes_rows",
             "nb_extra_d", "nb_priors", "nb_vars", "dt_feature_past_d", "dt_no_nodes", "dt_threshold_nodes",
             "dt_value_width", "dt_left_dtype", "dt_child_past_end", "rf_child_before_parent", "rf_leaf_child",
             "ada_alphas", "ada_value_width", "gb_train_loss", "gb_value_width", "gb_n_classes"],
    )
    def test_disagreeing_arrays_name_the_file(self, kind, changes, message, tmp_path):
        path = _model_file(tmp_path / "m.modl", kind, changes)
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            load_model(path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_preserves_predictions(self, kind, tmp_path, blob_data):
        X, y, Xt, _ = blob_data
        model = build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind], seed=2)).fit(X, y)
        path = save_model(model, tmp_path / f"{kind}.modl")
        back = load_model(path)
        assert back.spec == model.spec
        np.testing.assert_array_equal(back.predict_proba(Xt), model.predict_proba(Xt))

    @pytest.mark.parametrize("kind", KINDS)
    def test_unfitted_model_not_saved(self, kind, tmp_path):
        with pytest.raises(ValueError, match="^classifier is not fitted$"):
            save_model(build_classifier(ClassifierSpec(kind)), tmp_path / "m.modl")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_rewrite_identical_bytes(self, kind, tmp_path, blob_data):
        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind], seed=2)).fit(X, y)
        p1 = save_model(model, tmp_path / "a.modl")
        p2 = save_model(load_model(p1), tmp_path / "b.modl")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, blob_data):
        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec("naive_bayes")).fit(X, y)
        path = save_model(model, tmp_path / "m.modl")
        blob = bytearray(path.read_bytes())
        blob[:4] = b"EVIL"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_model(path)

    def test_corruption_detected(self, tmp_path, blob_data):
        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec("knn", params={"k": 2})).fit(X, y)
        path = save_model(model, tmp_path / "m.modl")
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xAA
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)
