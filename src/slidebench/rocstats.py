"""Paired statistical comparison of classifiers on a shared test set.

Three tests: DeLong's test for the difference of two correlated AUCs,
the paired-permutation comparison of two whole ROC curves, and a paired
t-test on accuracy vectors. The normal tail is erfc; the Student-t tail
for the t-test's integer degrees of freedom is a finite trigonometric
series, so both are closed forms exact to about 1e-15.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_DEGENERATE_VAR = 1e-12
_PERMUTATION_BLOCK = 256


# -- Student-t tails ---------------------------------------------------------

def _t_central(t: float, df: int) -> float:
    """P(|T| <= |t|) for Student's t with integer `df` >= 1, from the
    finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(|t| / sqrt(df))."""
    theta = math.atan(abs(t) / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    odd = df % 2
    # The series' j-th term is the one before it times cos^2 * m / (m + 1),
    # m = 2j for odd df and 2j - 1 for even df; the sum has (df - 1) // 2
    # terms for odd df (none for df = 1) and df // 2 for even df.
    total, term = 0.0, 1.0
    for m in range(1 + odd, df, 2):
        total += term
        term *= cos * cos * m / (m + 1)
    if odd:
        return 2.0 / math.pi * (theta + sin * cos * total)
    return sin * total


def student_t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with integer `df` >= 1."""
    if not isinstance(df, numbers.Integral) or df < 1:
        raise ValueError("df must be an integer >= 1")
    return 0.5 + 0.5 * math.copysign(_t_central(t, df), t)


# -- paired inputs -----------------------------------------------------------

@dataclass(frozen=True)
class PairedScores:
    """Two models' scores for the same cases, with shared binary labels."""

    y_true: np.ndarray
    scores_a: np.ndarray
    scores_b: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y_true).astype(bool)
        a = np.asarray(self.scores_a, dtype=np.float64)
        b = np.asarray(self.scores_b, dtype=np.float64)
        if not (y.shape == a.shape == b.shape) or y.ndim != 1:
            raise ValueError("paired scores must be aligned 1-D arrays")
        if y.all() or not y.any():
            raise ValueError("both classes must be present")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("paired scores must be finite")
        object.__setattr__(self, "y_true", y)
        object.__setattr__(self, "scores_a", a)
        object.__setattr__(self, "scores_b", b)


# -- DeLong ------------------------------------------------------------------

def _midrank(x: np.ndarray) -> np.ndarray:
    """1-based ranks of `x`, each run of equal values sharing its mean rank."""
    order = np.argsort(x, kind="stable")
    z = x[order]
    n = x.shape[0]
    # Sorted positions [start, end) of each run of equal values.
    start = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
    end = np.r_[start[1:], n]
    out = np.empty(n)
    out[order] = np.repeat(0.5 * (start + end - 1) + 1.0, end - start)
    return out


def _auc_components(y: np.ndarray, scores: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """AUC plus its positive (V10) and negative (V01) structural components."""
    pos = scores[y]
    neg = scores[~y]
    m, n = pos.shape[0], neg.shape[0]
    tx = _midrank(pos)
    ty = _midrank(neg)
    tz = _midrank(np.concatenate([pos, neg]))
    auc = (tz[:m].sum() - m * (m + 1) / 2.0) / (m * n)
    v10 = (tz[:m] - tx) / n
    v01 = 1.0 - (tz[m:] - ty) / m
    return float(auc), v10, v01


@dataclass(frozen=True)
class DeLongResult:
    auc_a: float
    auc_b: float
    z: float
    p: float


def delong_test(ps: PairedScores) -> DeLongResult:
    """Two-sided test of AUC_a = AUC_b with paired-structure covariance."""
    auc_a, v10_a, v01_a = _auc_components(ps.y_true, ps.scores_a)
    auc_b, v10_b, v01_b = _auc_components(ps.y_true, ps.scores_b)
    m = v10_a.shape[0]
    n = v01_a.shape[0]
    s10 = np.cov(np.stack([v10_a, v10_b]), ddof=1) if m > 1 else np.zeros((2, 2))
    s01 = np.cov(np.stack([v01_a, v01_b]), ddof=1) if n > 1 else np.zeros((2, 2))
    contrast = np.array([1.0, -1.0])
    var = float(contrast @ (s10 / m + s01 / n) @ contrast)
    if var < _DEGENERATE_VAR:
        return DeLongResult(auc_a=auc_a, auc_b=auc_b, z=0.0, p=1.0)
    z = (auc_a - auc_b) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return DeLongResult(auc_a=auc_a, auc_b=auc_b, z=float(z), p=p)


# -- Venkatraman -------------------------------------------------------------

def _first_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n along the last axis; ties broken by position (stable)."""
    order = np.argsort(values, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    ar = np.broadcast_to(np.arange(1, values.shape[-1] + 1), values.shape)
    np.put_along_axis(ranks, order, ar, axis=-1)
    return ranks


def _curve_difference(ranks_a: np.ndarray, ranks_b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over rank cutpoints of |error count difference| between curves.

    With ranks a permutation of 1..n, the misclassification-count
    difference at cutpoint k reduces to twice the difference of positive
    counts among ranks <= k. Cases are taken in the stable order of their
    ranks, so ranks with ties (swapped pairs in the null) count as the
    position-broken ranks `_first_ranks` would give them. All counts are
    integers, so the statistic is exact.
    """
    # Counts and their differences stay within +-n, so below 2**15 cases
    # they fit 16 bits, as the ranks do; only the sum needs 64.
    count_type = np.int16 if y.shape[0] < 2**15 else np.int64
    pos_a = y[np.argsort(ranks_a, axis=-1, kind="stable")]
    pos_b = y[np.argsort(ranks_b, axis=-1, kind="stable")]
    cum_a = np.cumsum(pos_a, axis=-1, dtype=count_type)[..., :-1]
    cum_b = np.cumsum(pos_b, axis=-1, dtype=count_type)[..., :-1]
    np.subtract(cum_a, cum_b, out=cum_a)
    np.abs(cum_a, out=cum_a)
    return 2.0 * cum_a.sum(axis=-1, dtype=np.int64)


@dataclass(frozen=True)
class VenkatramanResult:
    roc_difference: float
    p: float
    permutations: int


def venkatraman_test(ps: PairedScores, permutations: int = 2000, seed: int = 0) -> VenkatramanResult:
    """Permutation test of equality of two paired ROC curves.

    Scores are rank-transformed per model; the statistic integrates the
    absolute difference between the rank-scale error curves (reported
    normalized by n^2). The null swaps each case's score pair with
    probability one half and re-ranks; p = (1 + #{perm >= obs}) / (B + 1).
    """
    if permutations < 1:
        raise ValueError("permutation count must be >= 1")
    y = ps.y_true
    n = y.shape[0]
    # 16-bit ranks make numpy's stable argsort a radix sort.
    rank_type = np.int16 if n < 2**15 else np.int64
    ranks_a = _first_ranks(ps.scores_a).astype(rank_type)
    ranks_b = _first_ranks(ps.scores_b).astype(rank_type)
    observed = float(_curve_difference(ranks_a, ranks_b, y))

    rng = np.random.default_rng(seed)
    gap = ranks_b - ranks_a
    exceed = 0
    # Blocks of consecutive draws from one generator: the same swaps as a
    # single (permutations, n) draw, in memory bounded by the block size.
    for start in range(0, permutations, _PERMUTATION_BLOCK):
        swap = rng.random((min(_PERMUTATION_BLOCK, permutations - start), n)) < 0.5
        # Integer arithmetic picks the same ranks as np.where(swap, ...), with
        # no broadcast select per permutation row.
        moved = swap * gap
        perm_stats = _curve_difference(ranks_a + moved, ranks_b - moved, y)
        exceed += int(np.sum(perm_stats >= observed - 1e-12))
    p = (1.0 + exceed) / (permutations + 1.0)
    return VenkatramanResult(
        roc_difference=observed / (n * n),
        p=float(p),
        permutations=permutations,
    )


# -- paired t-test -----------------------------------------------------------

@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float


def paired_ttest(acc_a: np.ndarray, acc_b: np.ndarray) -> TTestResult:
    """Two-sided paired t-test on aligned accuracy vectors."""
    a = np.asarray(acc_a, dtype=np.float64)
    b = np.asarray(acc_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("accuracy vectors must be aligned 1-D arrays")
    n = a.shape[0]
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = a - b
    df = n - 1
    if np.all(d == 0.0):
        return TTestResult(t=0.0, df=df, p=1.0)
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return TTestResult(t=math.copysign(math.inf, float(d.mean())), df=df, p=0.0)
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 1.0 - _t_central(t, df)
    return TTestResult(t=t, df=df, p=max(p, 0.0))
