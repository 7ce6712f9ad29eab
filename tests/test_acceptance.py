"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or on
failure). The paper-shaped fixture run uses the production row counts
(714 slides, 126/263/325, effective split 498/216) with both embedding
widths, and must finish end to end inside ten minutes.
"""

import dataclasses
import json
import math
import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from slidebench.categories import Category, EffectiveSubset, Subset
from slidebench.config import BackendConfig, RunConfig
from slidebench.design import DesignError, DesignMatrix, load_design, save_design
from slidebench.embeddings import (
    BackendSpec,
    CacheFormatError,
    EmbeddingMatrix,
    read_cache,
    write_cache,
)
from slidebench.fixture import paper_manifest
from slidebench.learners import ClassifierSpec, build_classifier
from slidebench.manifest import write_manifest
from slidebench.metrics import auroc
from slidebench.patches import NormalizationParams, normalize
from slidebench.rocstats import PairedScores, delong_test, paired_ttest, venkatraman_test
from slidebench.runner import learning_curve, run_pipeline


def check(name: str, condition: bool, detail: str = "") -> None:
    tag = "PASS" if condition else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert condition, f"{name}: {detail}"


def paper_config(tmp: Path, sep: float, dims=(1024, 1280), jobs: int = 2, seed: int = 2026) -> RunConfig:
    tmp.mkdir(parents=True, exist_ok=True)
    manifest_path = tmp / "manifest.csv"
    if not manifest_path.exists():
        write_manifest(paper_manifest(seed=0), manifest_path)
    names = ["uni-sim", "virchow2-sim"][: len(dims)]
    return RunConfig(
        manifest=str(manifest_path),
        out_dir=str(tmp / "out"),
        cache_dir=str(tmp / "cache"),
        seed=seed,
        backends=[
            BackendConfig(
                name=name, kind="synthetic", dim=dim, class_separation=sep,
                patch_count_min=16, patch_count_max=48,
            )
            for name, dim in zip(names, dims)
        ],
        jobs=jobs,
    )


@pytest.fixture(scope="module")
def main_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_main")
    cfg = paper_config(tmp, sep=6.0)
    t0 = time.perf_counter()
    out = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, out, elapsed


@pytest.fixture(scope="module")
def chance_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_chance")
    cfg = paper_config(tmp, sep=0.0, dims=(1024,))
    out = run_pipeline(cfg)
    return cfg, out


class TestPaperShapedFixture:
    def test_completes_under_ten_minutes(self, main_run):
        _, _, elapsed = main_run
        check(
            "paper-shaped fixture run < 10 minutes",
            elapsed < 600.0,
            f"elapsed {elapsed:.1f}s",
        )

    def test_table2_shape(self, main_run):
        _, out, _ = main_run
        table = json.loads((out / "accuracy_table.json").read_text())
        shape_ok = (
            len(table["rows"]) == 7
            and table["backends"] == ["uni-sim", "virchow2-sim"]
            and all(set(r["accuracy"]) == {"uni-sim", "virchow2-sim"} for r in table["rows"])
        )
        check("Table-2-shaped accuracy report: 7 classifiers x 2 backends", shape_ok)

    def test_table3_shape(self, main_run):
        _, out, _ = main_run
        table = json.loads((out / "f1_table.json").read_text())
        cats = {"basaloid", "melanocytic", "squamous"}
        shape_ok = (
            len(table["rows"]) == 21
            and {r["category"] for r in table["rows"]} == cats
            and all(set(r["f1"]) == {"uni-sim", "virchow2-sim"} for r in table["rows"])
        )
        check("Table-3-shaped F1 report: 7 x 3 entries per backend", shape_ok)

    def test_table4_shape(self, main_run):
        _, out, _ = main_run
        doc = json.loads((out / "comparison.json").read_text())
        shape_ok = (
            [c["category"] for c in doc["categories"]] == ["basaloid", "melanocytic", "squamous"]
            and all(
                set(c["delong"]) == {"auc_a", "auc_b", "z", "p"}
                and set(c["venkatraman"]) == {"roc_difference", "p", "permutations"}
                for c in doc["categories"]
            )
            and {"t", "df", "p"} <= set(doc["paired_ttest"])
        )
        check("Table-4-shaped comparison document", shape_ok)

    def test_reports_for_all_pairs(self, main_run):
        cfg, out, _ = main_run
        missing = [
            f"{b.name}/{kind}"
            for b in cfg.backends
            for kind in cfg.classifiers
            if not (out / b.name / "reports" / f"{kind}.json").exists()
        ]
        check("evaluation reports for all 7 x 2 pairs", not missing, str(missing))


class TestSeparableSanity:
    def test_logreg_accuracy_floor(self, main_run):
        _, out, _ = main_run
        worst_acc, worst_auroc = 1.0, 1.0
        for backend in ("uni-sim", "virchow2-sim"):
            report = json.loads((out / backend / "reports" / "logistic_regression.json").read_text())
            worst_acc = min(worst_acc, report["accuracy"])
            worst_auroc = min(worst_auroc, report["macro_auroc"])
        check(
            "separation 6: logistic regression accuracy >= 0.95",
            worst_acc >= 0.95,
            f"worst accuracy {worst_acc:.4f}",
        )
        check(
            "separation 6: logistic regression macro AUROC >= 0.99",
            worst_auroc >= 0.99,
            f"worst macro AUROC {worst_auroc:.4f}",
        )

    def test_chance_band_at_zero_separation(self, chance_run):
        cfg, out = chance_run
        table = json.loads((out / "accuracy_table.json").read_text())
        accs = {row["kind"]: row["accuracy"]["uni-sim"] for row in table["rows"]}
        outside = {k: a for k, a in accs.items() if not 0.25 <= a <= 0.55}
        check(
            "separation 0: every classifier inside the [0.25, 0.55] chance band",
            not outside,
            json.dumps(accs),
        )


class TestAurocOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        worst = 0.0
        for trial in range(200):
            n = int(rng.integers(4, 501))
            y = np.zeros(n, dtype=int)
            y[: int(rng.integers(1, n))] = 1
            rng.shuffle(y)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            if trial % 2:
                s = rng.integers(0, 6, n).astype(float)  # heavy ties
            else:
                s = rng.normal(size=n) + y * rng.random()
            pos, neg = s[y == 1], s[y == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
            worst = max(worst, abs(auroc(y, s) - brute))
        elapsed = time.perf_counter() - t0
        check(
            "AUROC equals pairwise-counting oracle (200 instances, ties included)",
            worst < 1e-12,
            f"worst abs diff {worst:.2e}",
        )
        check("AUROC oracle comparison runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f}s")


def _null_scores(rng, n=100, n_pos=40, rho=0.6, delta=1.5):
    y = np.zeros(n, dtype=int)
    y[:n_pos] = 1
    rng.shuffle(y)
    shared = rng.standard_normal(n)
    a = math.sqrt(rho) * shared + math.sqrt(1 - rho) * rng.standard_normal(n) + delta * y
    b = math.sqrt(rho) * shared + math.sqrt(1 - rho) * rng.standard_normal(n) + delta * y
    return y, a, b


class TestDeLongCriteria:
    def test_self_comparison(self):
        rng = np.random.default_rng(1)
        y, a, _ = _null_scores(rng)
        res = delong_test(PairedScores(y, a, a))
        check("DeLong self-comparison gives z=0, p=1", res.z == 0.0 and res.p == 1.0)

    def test_variance_vs_bootstrap(self):
        rng = np.random.default_rng(60)
        y, a, b = _null_scores(rng, n=60, n_pos=24, rho=0.5, delta=1.2)
        res = delong_test(PairedScores(y, a, b))
        var_delong = ((res.auc_a - res.auc_b) / res.z) ** 2

        boot = np.random.default_rng(61)
        diffs = []
        while len(diffs) < 10_000:
            idx = boot.integers(0, 60, 60)
            yy = y[idx]
            if yy.sum() in (0, 60):
                continue
            pa, na = a[idx][yy == 1], a[idx][yy == 0]
            pb, nb = b[idx][yy == 1], b[idx][yy == 0]
            auc_a = ((pa[:, None] > na).sum() + 0.5 * (pa[:, None] == na).sum()) / (len(pa) * len(na))
            auc_b = ((pb[:, None] > nb).sum() + 0.5 * (pb[:, None] == nb).sum()) / (len(pb) * len(nb))
            diffs.append(auc_a - auc_b)
        var_boot = float(np.var(diffs, ddof=1))
        rel = abs(var_delong - var_boot) / var_boot
        check(
            "DeLong variance within 15% of 10k paired bootstrap (n=60)",
            rel <= 0.15,
            f"delong {var_delong:.3e} vs bootstrap {var_boot:.3e} (rel {rel:.3f})",
        )

    def test_null_calibration(self):
        rng = np.random.default_rng(2)
        sims = 500
        rejections = sum(
            delong_test(PairedScores(*_null_scores(rng))).p < 0.05 for _ in range(sims)
        )
        rate = rejections / sims
        check(
            "DeLong null rejection rate 0.05 +/- 0.02 over 500 simulations",
            0.03 <= rate <= 0.07,
            f"rate {rate:.4f}",
        )


class TestVenkatramanCriteria:
    def test_p_bounds_and_identity(self):
        rng = np.random.default_rng(3)
        bounds_ok = True
        for B in (1, 5, 50, 500):
            y, a, b = _null_scores(rng, n=50, n_pos=20)
            p = venkatraman_test(PairedScores(y, a, b), permutations=B, seed=4).p
            bounds_ok &= 1.0 / (B + 1) <= p <= 1.0
        check("Venkatraman p within [1/(B+1), 1] across B", bounds_ok)

        y, a, _ = _null_scores(rng, n=60, n_pos=25)
        res = venkatraman_test(PairedScores(y, a, a), permutations=2000, seed=5)
        check(
            "Venkatraman identical inputs give statistic 0, p=1",
            res.roc_difference == 0.0 and res.p == 1.0,
        )

    def test_null_calibration(self):
        rng = np.random.default_rng(6)
        sims = 500
        rejections = 0
        for _ in range(sims):
            y, a, b = _null_scores(rng, n=60, n_pos=24)
            res = venkatraman_test(
                PairedScores(y, a, b), permutations=2000, seed=int(rng.integers(1 << 31))
            )
            rejections += res.p < 0.05
        rate = rejections / sims
        check(
            "Venkatraman null rejection rate 0.05 +/- 0.02 at B=2000 over 500 simulations",
            0.03 <= rate <= 0.07,
            f"rate {rate:.4f}",
        )


class TestPairedTTestCriteria:
    def test_hand_derived(self):
        res = paired_ttest(np.asarray([1.0, 2.0, 3.0]), np.zeros(3))
        check(
            "paired t-test differences (1,2,3): t = 3.4641 +/- 1e-4, df=2",
            abs(res.t - 3.4641) <= 1e-4 and res.df == 2,
            f"t={res.t:.6f}",
        )
        check(
            "paired t-test differences (1,2,3): p = 0.0742 +/- 5e-4",
            abs(res.p - 0.0742) <= 5e-4,
            f"p={res.p:.6f}",
        )

    def test_identical(self):
        a = np.asarray([0.8, 0.85, 0.9, 0.7])
        res = paired_ttest(a, a)
        check("paired t-test a=b gives t=0, p=1", res.t == 0.0 and res.p == 1.0)


class TestNumericalOptimization:
    def test_logreg_gradient(self):
        from slidebench.learners.linear import gradients, objective

        rng = np.random.default_rng(7)
        Xs = rng.standard_normal((30, 8))
        codes = rng.integers(0, 3, 30)
        Y = np.zeros((30, 3))
        Y[np.arange(30), codes] = 1.0
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            W = rng.standard_normal((8, 3))
            b = rng.standard_normal(3)
            l2 = float(rng.choice([0.0, 1e-3, 1e-1]))
            gW, gb = gradients(Xs, Y, W, b, l2)
            scale = max(np.abs(gW).max(), np.abs(gb).max())
            for _ in range(6):  # random coordinates per point
                i, j = int(rng.integers(8)), int(rng.integers(3))
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                num = (objective(Xs, Y, Wp, b, l2) - objective(Xs, Y, Wm, b, l2)) / (2 * h)
                worst = max(worst, abs(num - gW[i, j]) / scale)
        check(
            "logistic gradient vs central differences, rel err < 1e-5 at 20 points",
            worst < 1e-5,
            f"worst rel err {worst:.2e}",
        )

    def test_gbm_monotone_loss(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((100, 16))
        y = rng.integers(0, 3, 100)
        monotone = True
        for lr in (0.05, 0.1):
            m = build_classifier(
                ClassifierSpec("gradient_boosting", params={"n_estimators": 60, "learning_rate": lr})
            ).fit(X, y)
            monotone &= bool(np.all(np.diff(m.train_loss_) <= 1e-12))
        check("GBM training cross-entropy non-increasing per round", monotone)

    def test_rf_degenerates_to_tree(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((90, 12))
        y = rng.integers(0, 3, 90)
        Xt = rng.standard_normal((40, 12))
        rf = build_classifier(
            ClassifierSpec(
                "random_forest",
                params={"n_estimators": 1, "bootstrap": False, "max_features": None},
                seed=4,
            )
        ).fit(X, y)
        dt = build_classifier(ClassifierSpec("decision_tree", seed=4)).fit(X, y)
        same = bool(
            np.array_equal(rf.predict(Xt), dt.predict(Xt))
            and np.allclose(rf.predict_proba(Xt), dt.predict_proba(Xt), atol=1e-12)
        )
        check("RF(1 tree, no bagging/subsampling) equals the decision tree", same)


class TestNormalizationCriterion:
    def test_hundred_thousand_patches(self):
        rng = np.random.default_rng(10)
        params = NormalizationParams()
        # 1e5 patches of 2x2 pixels drawn with the normalization constants
        # as their true per-channel moments, normalized in batches.
        total = np.zeros(3)
        total_sq = np.zeros(3)
        count = 0
        for _ in range(10):
            batch = rng.normal(params.mu, params.sigma, size=(10_000 * 2, 2, 3))
            out = normalize(batch, params).reshape(-1, 3)
            total += out.sum(axis=0)
            total_sq += (out**2).sum(axis=0)
            count += out.shape[0]
        mean = total / count
        std = np.sqrt(total_sq / count - mean**2)
        check(
            "normalized synthetic patches: per-channel |mean| < 0.02",
            bool(np.abs(mean).max() < 0.02),
            f"max |mean| {np.abs(mean).max():.4f}",
        )
        check(
            "normalized synthetic patches: per-channel std within 0.02 of 1",
            bool(np.abs(std - 1.0).max() < 0.02),
            f"max |std-1| {np.abs(std - 1.0).max():.4f}",
        )


class TestLearningCurveCriterion:
    def test_plateau_at_140(self, main_run):
        cfg, out, _ = main_run
        cv = json.loads((out / "uni-sim" / "cv" / "logistic_regression.json").read_text())
        spec = ClassifierSpec(
            "logistic_regression", params=cv["best"]["params"], seed=cv["best"]["seed"]
        )
        curve = learning_curve(cfg, "uni-sim", spec, sizes=[140, 498], repeats=5)
        gap = abs(curve.test_accuracy[0] - curve.test_accuracy[1])
        check(
            "learning curve: accuracy at 140 within 2 points of accuracy at 498",
            gap <= 0.02,
            f"acc(140)={curve.test_accuracy[0]:.4f} acc(498)={curve.test_accuracy[1]:.4f}",
        )


class TestDeterminismCriterion:
    def test_byte_identical_documents(self, tmp_path):
        def run_once(base: Path) -> Path:
            cfg = paper_config(base, sep=2.0, dims=(32, 48), jobs=1, seed=99)
            cfg = dataclasses.replace(
                cfg,
                backends=[
                    BackendConfig(
                        name=b.name, kind="synthetic", dim=b.dim, class_separation=2.0,
                        patch_count_min=4, patch_count_max=8,
                    )
                    for b in cfg.backends
                ],
                grids={
                    "logistic_regression": {"l2": [1e-2], "max_iter": [200]},
                    "knn": {"k": [3]},
                    "decision_tree": {"max_depth": [4]},
                    "random_forest": {"n_estimators": [10]},
                    "gradient_boosting": {"n_estimators": [10], "learning_rate": [0.1]},
                    "adaboost": {"n_estimators": [10]},
                },
            )
            return run_pipeline(cfg)

        out1 = run_once(tmp_path / "r1")
        out2 = run_once(tmp_path / "r2")
        identical = True
        compared = 0
        for rel in ("accuracy_table.json", "f1_table.json", "comparison.json"):
            identical &= (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
            compared += 1
        for backend in ("uni-sim", "virchow2-sim"):
            for report in sorted((out1 / backend / "reports").glob("*.json")):
                other = out2 / backend / "reports" / report.name
                identical &= report.read_bytes() == other.read_bytes()
                compared += 1
        check(
            "identical config + seed give byte-identical reports and comparison",
            identical and compared == 17,
            f"{compared} documents compared",
        )


class TestFormatRoundTrips:
    def test_embc_round_trip_and_corruption(self, tmp_path):
        rng = np.random.default_rng(11)
        emb = EmbeddingMatrix(
            "slide-rt", rng.standard_normal((12, 24)).astype(np.float32),
            Category.MELANOCYTIC, EffectiveSubset.TEST,
        )
        p1 = write_cache(emb, tmp_path / "a")
        back = read_cache(p1)
        p2 = write_cache(back, tmp_path / "b")
        check(".embc write-read-write gives identical bytes", p1.read_bytes() == p2.read_bytes())

        blob = bytearray(p1.read_bytes())
        detected = 0
        cases = 0
        # Magic corruption.
        for i in range(4):
            mangled = bytearray(blob)
            mangled[i] ^= 0xFF
            (tmp_path / "m.embc").write_bytes(bytes(mangled))
            cases += 1
            try:
                read_cache(tmp_path / "m.embc")
            except CacheFormatError:
                detected += 1
        # Payload corruption at several offsets (CRC check).
        header = 4 + 4 + 2 + len(b"slide-rt") + 2 + 8
        for off in range(header, len(blob) - 4, 97):
            mangled = bytearray(blob)
            mangled[off] ^= 0x01
            (tmp_path / "m.embc").write_bytes(bytes(mangled))
            cases += 1
            try:
                read_cache(tmp_path / "m.embc")
            except CacheFormatError:
                detected += 1
        check(
            ".embc corrupted magic/payload always detected",
            detected == cases,
            f"{detected}/{cases} corruptions detected",
        )

    def test_dmat_round_trip_and_corruption(self, tmp_path):
        rng = np.random.default_rng(12)
        dm = DesignMatrix(
            rng.standard_normal((9, 7)).astype(np.float32),
            rng.integers(0, 3, 9).astype(np.uint8),
            rng.integers(0, 2, 9).astype(np.uint8),
            [f"s{i}" for i in range(9)],
        )
        p1 = save_design(dm, tmp_path / "a.dmat")
        p2 = save_design(load_design(p1), tmp_path / "b.dmat")
        check("design matrix write-read-write gives identical bytes", p1.read_bytes() == p2.read_bytes())

        blob = bytearray(p1.read_bytes())
        detected = 0
        cases = 0
        for off in list(range(4)) + list(range(8, len(blob), 61)):
            mangled = bytearray(blob)
            mangled[off] ^= 0xFF
            (tmp_path / "m.dmat").write_bytes(bytes(mangled))
            cases += 1
            try:
                load_design(tmp_path / "m.dmat")
            except DesignError:
                detected += 1
        check(
            "design matrix corrupted magic/CRC always detected",
            detected == cases,
            f"{detected}/{cases} corruptions detected",
        )
