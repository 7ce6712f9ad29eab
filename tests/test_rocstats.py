"""Paired ROC statistics against independent oracles.

Oracles: mpmath for tail probabilities, brute-force pairwise AUC, a
literal-transcription permutation statistic, and a paired bootstrap for
the DeLong variance.
"""

import math

import mpmath
import numpy as np
import pytest

from slidebench.metrics import auroc
from slidebench.rocstats import (
    PairedScores,
    delong_test,
    paired_ttest,
    student_t_cdf,
    venkatraman_test,
)
from slidebench.rocstats import _curve_difference, _first_ranks, _midrank, _t_central

from conftest import run_python


class TestSpecialFunctions:
    def test_z_196_gives_p_005(self):
        # DeLong's two-sided p is the normal tail erfc(|z| / sqrt(2)).
        p = math.erfc(1.96 / math.sqrt(2.0))
        assert p == pytest.approx(0.05, abs=1e-3)

    def test_student_t_cdf_vs_mpmath(self):
        for t, df in [(0.0, 1), (1.0, 1), (-2.0, 3), (3.4641, 2), (1.706, 6), (-1.706, 6), (5.0, 30)]:
            expected = float(
                0.5 + 0.5 * mpmath.betainc(
                    mpmath.mpf(1) / 2, mpmath.mpf(df) / 2, 0,
                    t * t / (df + t * t), regularized=True,
                ) * mpmath.sign(t)
            ) if t != 0 else 0.5
            assert student_t_cdf(t, df) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("df", range(1, 31))
    def test_student_t_tails_vs_mpmath(self, df):
        # I_x(df/2, 1/2) at x = df / (df + t^2) is the two-sided tail
        # P(|T| > |t|), evaluated at 40 digits.
        with mpmath.workdps(40):
            for t in (0.0, 1e-3, 0.5, 1.706, 2.447, 3.4641, 10.0, 1e3):
                two_sided = mpmath.betainc(
                    mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0,
                    mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2), regularized=True,
                )
                assert abs(1.0 - _t_central(t, df) - two_sided) < 1e-14
                lower = two_sided / 2 if t else mpmath.mpf(1) / 2
                assert abs(student_t_cdf(t, df) - (1 - lower)) < 1e-14
                assert abs(student_t_cdf(-t, df) - lower) < 1e-14

    @pytest.mark.parametrize("df", [0, -1, 2.0, 2.5, "3"])
    def test_student_t_cdf_rejects_bad_df(self, df):
        with pytest.raises(ValueError, match="integer >= 1"):
            student_t_cdf(1.0, df)


def correlated_null_scores(rng, n=100, n_pos=40, rho=0.6, delta=1.5):
    """Two score vectors with identical marginal ROC behavior (the null)."""
    y = np.zeros(n, dtype=int)
    y[:n_pos] = 1
    rng.shuffle(y)
    shared = rng.standard_normal(n)
    a = math.sqrt(rho) * shared + math.sqrt(1 - rho) * rng.standard_normal(n) + delta * y
    b = math.sqrt(rho) * shared + math.sqrt(1 - rho) * rng.standard_normal(n) + delta * y
    return y, a, b


class TestDeLong:
    def test_self_comparison(self):
        rng = np.random.default_rng(0)
        y, a, _ = correlated_null_scores(rng)
        res = delong_test(PairedScores(y, a, a))
        assert res.z == 0.0
        assert res.p == 1.0
        assert res.auc_a == res.auc_b

    def test_auc_matches_trapezoid_auroc(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(6, 200))
            y = (rng.random(n) < 0.4).astype(int)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            a = np.round(rng.normal(size=n), rng.integers(0, 3))  # ties included
            b = rng.normal(size=n)
            res = delong_test(PairedScores(y, a, b))
            assert res.auc_a == pytest.approx(auroc(y, a), abs=1e-12)
            assert res.auc_b == pytest.approx(auroc(y, b), abs=1e-12)

    def test_swap_negates_z_keeps_p(self):
        rng = np.random.default_rng(2)
        y, a, b = correlated_null_scores(rng)
        r1 = delong_test(PairedScores(y, a, b))
        r2 = delong_test(PairedScores(y, b, a))
        assert r1.z == pytest.approx(-r2.z, abs=1e-12)
        assert r1.p == pytest.approx(r2.p, abs=1e-12)

    def test_detects_clear_difference(self):
        rng = np.random.default_rng(3)
        n = 200
        y = np.zeros(n, dtype=int)
        y[:80] = 1
        rng.shuffle(y)
        strong = rng.standard_normal(n) + 2.5 * y
        weak = rng.standard_normal(n) + 0.3 * y
        res = delong_test(PairedScores(y, strong, weak))
        assert res.p < 0.01
        assert res.z > 0

    @pytest.mark.parametrize("seed, delta, z", [(0, 0.89, 9), (2, 0.41, 12)])
    def test_far_tail_p_is_erfc(self, seed, delta, z):
        # A perfect classifier against a weak one: |z| near 9 and 12, where
        # 1 - cdf rounds to 0.0 but the tail is still a normal double.
        rng = np.random.default_rng(seed)
        y = np.zeros(300, dtype=int)
        y[:150] = 1
        rng.shuffle(y)
        strong = rng.standard_normal(300) + 4.0 * y
        weak = rng.standard_normal(300) + delta * y
        res = delong_test(PairedScores(y, strong, weak))
        assert round(res.z) == z
        expected = mpmath.erfc(mpmath.mpf(res.z) / mpmath.sqrt(2))
        assert res.p == pytest.approx(float(expected), rel=1e-12, abs=0.0)

    def test_variance_matches_paired_bootstrap(self):
        # Fixed-seed n=60 instance; 10k-resample paired bootstrap oracle.
        rng = np.random.default_rng(60)
        y, a, b = correlated_null_scores(rng, n=60, n_pos=24, rho=0.5, delta=1.2)
        res = delong_test(PairedScores(y, a, b))
        var_delong = ((res.auc_a - res.auc_b) / res.z) ** 2 if res.z != 0 else None
        assert var_delong is not None

        boot = np.random.default_rng(61)
        diffs = []
        while len(diffs) < 10_000:
            idx = boot.integers(0, 60, 60)
            yy = y[idx]
            if yy.sum() in (0, 60):
                continue
            diffs.append(_pairwise_auc(yy, a[idx]) - _pairwise_auc(yy, b[idx]))
        var_boot = float(np.var(diffs, ddof=1))
        assert var_delong == pytest.approx(var_boot, rel=0.15)

    def test_null_calibration(self):
        rng = np.random.default_rng(4)
        rejections = 0
        sims = 500
        for _ in range(sims):
            y, a, b = correlated_null_scores(rng)
            if delong_test(PairedScores(y, a, b)).p < 0.05:
                rejections += 1
        rate = rejections / sims
        assert 0.03 <= rate <= 0.07

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            PairedScores(np.ones(5), np.arange(5.0), np.arange(5.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_scores_rejected(self, bad, side):
        scores = {"a": np.arange(4.0), "b": np.arange(4.0)}
        scores[side][2] = bad
        with pytest.raises(ValueError, match="paired scores must be finite"):
            PairedScores(np.array([0, 1, 0, 1]), scores["a"], scores["b"])

    def test_midrank_matches_loop_on_ties(self):
        def loop_midrank(x):
            order = np.argsort(x, kind="stable")
            z, ranks = x[order], np.empty(len(x))
            i = 0
            while i < len(x):
                j = i
                while j < len(x) and z[j] == z[i]:
                    j += 1
                ranks[i:j] = 0.5 * (i + j - 1) + 1.0
                i = j
            out = np.empty(len(x))
            out[order] = ranks
            return out

        rng = np.random.default_rng(8)
        for _ in range(500):
            x = rng.integers(0, rng.integers(1, 12), rng.integers(1, 40)) / 7.0
            assert _midrank(x).tobytes() == loop_midrank(x).tobytes()

    def test_midrank_of_nan_returns(self):
        # Run apart so that a rank loop that never ends fails the test
        # instead of stalling the suite.
        code = (
            "import numpy as np; from slidebench.rocstats import _midrank; "
            "print(_midrank(np.array([0.2, np.nan, 0.3])).tolist())"
        )
        res = run_python("-c", code, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[1.0, 3.0, 2.0]"


def _pairwise_auc(y, s):
    pos = s[y.astype(bool)]
    neg = s[~y.astype(bool)]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def naive_curve_difference(ranks_a, ranks_b, y):
    """Literal transcription of the rank-cutpoint error-count statistic."""
    n = len(y)
    total = 0
    for k in range(1, n):
        ea = np.sum((ranks_a <= k) & (y == 1)) + np.sum((ranks_a > k) & (y == 0))
        eb = np.sum((ranks_b <= k) & (y == 1)) + np.sum((ranks_b > k) & (y == 0))
        total += abs(int(ea) - int(eb))
    return total


class TestVenkatraman:
    def test_identical_scores(self):
        rng = np.random.default_rng(5)
        y, a, _ = correlated_null_scores(rng, n=50, n_pos=20)
        res = venkatraman_test(PairedScores(y, a, a), permutations=500, seed=1)
        assert res.roc_difference == 0.0
        assert res.p == 1.0

    def test_p_bounds(self):
        rng = np.random.default_rng(6)
        for B in (1, 10, 100):
            y, a, b = correlated_null_scores(rng, n=40, n_pos=15)
            res = venkatraman_test(PairedScores(y, a, b), permutations=B, seed=2)
            assert 1.0 / (B + 1) <= res.p <= 1.0

    def test_statistic_matches_naive_transcription(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            y = (rng.random(n) < 0.45).astype(int)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            ra = np.asarray(_first_ranks(a))
            rb = np.asarray(_first_ranks(b))
            fast = float(_curve_difference(ra, rb, y))
            assert fast == naive_curve_difference(ra, rb, y)

    def test_exchangeable_copy_not_rejected(self):
        # Per-case exchangeable noise copy at n=80: the observed statistic
        # sits inside its own permutation distribution; cross-checked by a
        # direct oracle using identical swap draws.
        rng = np.random.default_rng(80)
        y, a, b = correlated_null_scores(rng, n=80, n_pos=32)
        ps = PairedScores(y, a, b)
        B, seed = 2000, 9
        res = venkatraman_test(ps, permutations=B, seed=seed)
        assert res.p > 0.2

        ranks_a = _first_ranks(np.asarray(a))
        ranks_b = _first_ranks(np.asarray(b))
        observed = naive_curve_difference(ranks_a, ranks_b, y)
        orng = np.random.default_rng(seed)
        swap = orng.random((B, len(y))) < 0.5
        exceed = 0
        for bi in range(B):
            pa = np.where(swap[bi], ranks_b, ranks_a)
            pb = np.where(swap[bi], ranks_a, ranks_b)
            ra = np.asarray(_first_ranks(pa))
            rb = np.asarray(_first_ranks(pb))
            exceed += naive_curve_difference(ra, rb, y) >= observed
        expected_p = (1 + exceed) / (B + 1)
        assert res.p == pytest.approx(expected_p, abs=1e-12)

    def test_swap_leaves_statistic_and_p(self):
        rng = np.random.default_rng(10)
        y, a, b = correlated_null_scores(rng, n=60, n_pos=25)
        r1 = venkatraman_test(PairedScores(y, a, b), permutations=300, seed=3)
        r2 = venkatraman_test(PairedScores(y, b, a), permutations=300, seed=3)
        assert r1.roc_difference == pytest.approx(r2.roc_difference, abs=1e-15)
        assert r1.p == pytest.approx(r2.p, abs=1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(11)
        y, a, b = correlated_null_scores(rng, n=50, n_pos=20)
        r1 = venkatraman_test(PairedScores(y, a, b), permutations=400, seed=7)
        r2 = venkatraman_test(PairedScores(y, a, b), permutations=400, seed=7)
        assert r1 == r2

    def test_seed_spread_bounded(self):
        # p varies across seeds by less than 0.1 at B=2000.
        rng = np.random.default_rng(12)
        y, a, b = correlated_null_scores(rng, n=60, n_pos=24)
        ps = PairedScores(y, a, b)
        ps_values = [venkatraman_test(ps, permutations=2000, seed=s).p for s in range(20)]
        assert max(ps_values) - min(ps_values) < 0.1

    def test_null_calibration(self):
        rng = np.random.default_rng(13)
        sims, rejections = 500, 0
        for _ in range(sims):
            y, a, b = correlated_null_scores(rng, n=60, n_pos=24)
            res = venkatraman_test(PairedScores(y, a, b), permutations=2000, seed=int(rng.integers(1 << 31)))
            if res.p < 0.05:
                rejections += 1
        rate = rejections / sims
        assert 0.03 <= rate <= 0.07

    # (roc_difference, p) recorded with the null that re-ranked every
    # permutation through `_first_ranks` and scattered the labels into
    # rank order (numpy 2.4, x86-64).
    GOLDEN = {
        "tied": (0.03666666666666667, 0.7744510978043913),
        "n2": (0.5, 0.47058823529411764),
        "n32767": (0.0014863716525642674, 1.0),
        "n32773": (0.0014788316371648971, 0.75),
    }

    @staticmethod
    def golden_cases():
        rng = np.random.default_rng(40)
        n = 60
        y = rng.random(n) < 0.4
        a = np.round(rng.standard_normal(n) + y, 1)
        b = np.round(rng.standard_normal(n) + 0.5 * y, 1)
        yield "tied", y, a, b, 500
        yield "n2", np.array([True, False]), np.array([0.7, 0.3]), np.array([0.3, 0.7]), 50
        # The largest n with 16-bit ranks, and one past it.
        for n in (2**15 - 1, 2**15 + 5):
            y = rng.random(n) < 0.3
            yield f"n{n}", y, rng.standard_normal(n) + y, np.round(rng.standard_normal(n) + y, 2), 3

    def test_golden_values_unchanged(self):
        seen = []
        for name, y, a, b, permutations in self.golden_cases():
            res = venkatraman_test(PairedScores(y, a, b), permutations=permutations, seed=11)
            assert (res.roc_difference, res.p) == self.GOLDEN[name], name
            seen.append(name)
        assert seen == list(self.GOLDEN)

    def test_detects_shape_difference(self):
        # Same AUC but different curve shapes should be detectable.
        rng = np.random.default_rng(14)
        n = 200
        y = np.r_[np.ones(100, dtype=int), np.zeros(100, dtype=int)]
        a = rng.standard_normal(n) + 1.2 * y          # uniform shift
        b = np.where(
            (y == 1) & (rng.random(n) < 0.5),
            rng.standard_normal(n) + 3.5,
            rng.standard_normal(n) - 0.4,
        )
        res = venkatraman_test(PairedScores(y, a, b), permutations=1000, seed=5)
        assert res.p < 0.05


class TestPairedTTest:
    def test_identical_vectors(self):
        a = np.asarray([0.8, 0.9, 0.7])
        res = paired_ttest(a, a)
        assert res.t == 0.0
        assert res.p == 1.0
        assert res.df == 2

    def test_hand_derived_123(self):
        # d = (1,2,3): mean 2, sd 1, t = 2*sqrt(3) = 3.4641, df = 2.
        res = paired_ttest(np.asarray([1.0, 2.0, 3.0]), np.zeros(3))
        assert res.t == pytest.approx(2 * math.sqrt(3), abs=1e-4)
        assert res.df == 2
        expected_p = float(2 * (1 - (0.5 + 0.5 * mpmath.betainc(
            mpmath.mpf(1) / 2, mpmath.mpf(2) / 2, 0,
            res.t ** 2 / (2 + res.t ** 2), regularized=True,
        ))))
        assert res.p == pytest.approx(0.0742, abs=5e-4)
        assert res.p == pytest.approx(expected_p, abs=1e-10)

    def test_paper_shaped_accuracy_columns(self):
        # Seven paired accuracies, as in the published comparison table;
        # the rounded published values are not an acceptance target, but
        # the output must be well-formed with df = 6.
        uni = np.asarray([0.83, 0.76, 0.87, 0.84, 0.88, 0.80, 0.82])
        virchow2 = np.asarray([0.84, 0.77, 0.89, 0.88, 0.90, 0.86, 0.86])
        res = paired_ttest(uni, virchow2)
        assert res.df == 6
        assert res.t < 0  # second column uniformly better
        assert 0.0 <= res.p <= 1.0

    def test_constant_nonzero_difference(self):
        res = paired_ttest(np.asarray([1.0, 1.0, 1.0]), np.zeros(3))
        assert math.isinf(res.t)
        assert res.p == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="aligned"):
            paired_ttest(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="at least 2"):
            paired_ttest(np.zeros(1), np.zeros(1))

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        a, b = rng.random(7), rng.random(7)
        r1, r2 = paired_ttest(a, b), paired_ttest(b, a)
        assert r1.t == pytest.approx(-r2.t, abs=1e-12)
        assert r1.p == pytest.approx(r2.p, abs=1e-12)
