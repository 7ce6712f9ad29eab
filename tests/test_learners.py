"""The seven classifiers: correctness oracles, contracts, serialization."""

import hashlib

import numpy as np
import pytest

from slidebench.learners import (
    ClassifierSpec,
    KINDS,
    build_classifier,
    default_grid,
    load_model,
    save_model,
)
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
        ],
    )
    def test_invalid_params(self, kind, params):
        with pytest.raises(ValueError):
            ClassifierSpec(kind, params=params)

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

    def test_l2_shrinks_weights(self):
        X, y = make_blobs([20, 20, 20], d=6, sep=3.0, seed=5)
        w0 = build_classifier(ClassifierSpec("logistic_regression", params={"l2": 0.0})).fit(X, y)
        w1 = build_classifier(ClassifierSpec("logistic_regression", params={"l2": 1.0})).fit(X, y)
        assert np.linalg.norm(w1.W_) < np.linalg.norm(w0.W_)


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
# x86-64). Any change to the tree engine must leave every byte of these
# models unchanged.
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

    @pytest.mark.parametrize("kind", ["random_forest", "gradient_boosting", "adaboost"])
    def test_staged_prefix_equals_cold_fit(self, kind, blob_data):
        X, y, Xt, _ = blob_data
        big = build_classifier(ClassifierSpec(kind, params={"n_estimators": 24}, seed=9)).fit(X, y)
        small = build_classifier(ClassifierSpec(kind, params={"n_estimators": 9}, seed=9)).fit(X, y)
        staged = big.staged_proba(Xt, [9, 24])
        np.testing.assert_allclose(staged[0], small.predict_proba(Xt), atol=1e-12)
        np.testing.assert_allclose(staged[1], big.predict_proba(Xt), atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_preserves_predictions(self, kind, tmp_path, blob_data):
        X, y, Xt, _ = blob_data
        model = build_classifier(ClassifierSpec(kind, params=ALL_PARAMS[kind], seed=2)).fit(X, y)
        path = save_model(model, tmp_path / f"{kind}.modl")
        back = load_model(path)
        assert back.spec == model.spec
        np.testing.assert_array_equal(back.predict_proba(Xt), model.predict_proba(Xt))

    def test_rewrite_identical_bytes(self, tmp_path, blob_data):
        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec("decision_tree", params={"max_depth": 3})).fit(X, y)
        p1 = save_model(model, tmp_path / "a.modl")
        p2 = save_model(load_model(p1), tmp_path / "b.modl")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, blob_data):
        from slidebench.learners import ModelFormatError

        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec("naive_bayes")).fit(X, y)
        path = save_model(model, tmp_path / "m.modl")
        blob = bytearray(path.read_bytes())
        blob[:4] = b"EVIL"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_model(path)

    def test_corruption_detected(self, tmp_path, blob_data):
        from slidebench.learners import ModelFormatError

        X, y, _, _ = blob_data
        model = build_classifier(ClassifierSpec("knn", params={"k": 2})).fit(X, y)
        path = save_model(model, tmp_path / "m.modl")
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xAA
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)
