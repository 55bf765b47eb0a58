"""Distribution goodness-of-fit tests for mechanism verification.

These are the statistical primitives behind ``tests/verify``'s
mechanism-distribution checks: a one-sample Kolmogorov-Smirnov test for
continuous mechanisms (Laplace), a chi-square test with sparse-cell
merging for discrete mechanisms (the exponential mechanism), and
Bonferroni bookkeeping so a suite of ``m`` checks keeps
its *family-wise* false-positive rate at the declared level.

Everything is deterministic given the input samples; randomness lives in
:mod:`repro.verify.streams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro._validation import check_integer, check_positive, check_probability
from repro.verify.special import chi2_sf, kolmogorov_sf

__all__ = [
    "GofResult",
    "ks_test",
    "chi_square_test",
    "chi_square_from_samples",
    "laplace_cdf",
    "bonferroni_alpha",
    "merge_sparse_cells",
]


@dataclass(frozen=True)
class GofResult:
    """Outcome of one goodness-of-fit test."""

    test: str
    statistic: float
    pvalue: float
    n_samples: int
    df: int = 0

    def passes(self, alpha: float) -> bool:
        """True when the null (correct distribution) is *not* rejected."""
        check_probability(alpha, "alpha")
        return self.pvalue >= alpha


def laplace_cdf(x: "float | np.ndarray", scale: float, loc: float = 0.0):
    """CDF of the Laplace distribution with the given scale and location."""
    check_positive(scale, "scale")
    arr = np.asarray(x, dtype=np.float64)
    z = (arr - loc) / scale
    out = np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def ks_test(
    samples: Sequence[float],
    cdf: Callable[[np.ndarray], np.ndarray],
) -> GofResult:
    """One-sample Kolmogorov-Smirnov test against a fully specified CDF.

    The p-value uses the asymptotic Kolmogorov distribution with
    Stephens' small-sample correction
    ``lam = (sqrt(n) + 0.12 + 0.11 / sqrt(n)) * D``, accurate for
    ``n >= 35`` and conservative below.
    """
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(arr)
    if n < 8:
        raise ValueError(f"need at least 8 samples for a KS test, got {n}")
    theo = np.asarray(cdf(arr), dtype=np.float64)
    if theo.shape != arr.shape:
        raise ValueError("cdf must return one value per sample")
    if np.any(theo < -1e-12) or np.any(theo > 1.0 + 1e-12):
        raise ValueError("cdf values must lie in [0, 1]")
    ecdf_hi = np.arange(1, n + 1, dtype=np.float64) / n
    ecdf_lo = np.arange(0, n, dtype=np.float64) / n
    d = float(max(np.max(ecdf_hi - theo), np.max(theo - ecdf_lo)))
    sqrt_n = math.sqrt(n)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d
    return GofResult(test="ks", statistic=d, pvalue=kolmogorov_sf(lam),
                     n_samples=n)


def merge_sparse_cells(
    observed: Sequence[float],
    expected: Sequence[float],
    min_expected: float = 5.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge adjacent cells until every expected count is >= ``min_expected``.

    Standard chi-square hygiene: cells are folded left-to-right into
    their right neighbour (the final cell folds backwards) so the
    asymptotic chi-square approximation holds.
    """
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if obs.shape != exp.shape:
        raise ValueError("observed and expected must have the same shape")
    merged_obs: List[float] = []
    merged_exp: List[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += float(o)
        acc_e += float(e)
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0:
        if merged_exp:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    return np.asarray(merged_obs), np.asarray(merged_exp)


def chi_square_test(
    observed: Sequence[float],
    expected: Sequence[float],
    min_expected: float = 5.0,
) -> GofResult:
    """Pearson chi-square goodness-of-fit on matched count vectors.

    ``expected`` is rescaled to the observed total (the distributional
    shape, not the sample size, is under test); sparse cells are merged
    first so the chi-square approximation is valid.
    """
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if obs.sum() <= 0 or exp.sum() <= 0:
        raise ValueError("observed and expected must have positive totals")
    exp = exp * (obs.sum() / exp.sum())
    obs, exp = merge_sparse_cells(obs, exp, min_expected=min_expected)
    if len(obs) < 2:
        raise ValueError(
            "fewer than 2 cells survive sparse-cell merging; widen the "
            "binning or collect more samples"
        )
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    df = len(obs) - 1
    return GofResult(test="chi2", statistic=statistic,
                     pvalue=chi2_sf(statistic, df), n_samples=int(obs.sum()),
                     df=df)


def chi_square_from_samples(
    samples: Sequence[float],
    pmf: Callable[[np.ndarray], np.ndarray],
    support: Sequence[int],
    min_expected: float = 5.0,
) -> GofResult:
    """Chi-square GOF of integer ``samples`` against a PMF on ``support``.

    Values outside ``support`` are folded into the nearest end cell, so
    the tails are tested too (with the correct tail mass on the ends).
    """
    sup = np.asarray(sorted(set(int(s) for s in support)), dtype=np.int64)
    if len(sup) < 2:
        raise ValueError("support must contain at least 2 values")
    arr = np.asarray(samples, dtype=np.float64)
    clipped = np.clip(np.rint(arr).astype(np.int64), sup[0], sup[-1])
    observed = np.array(
        [np.count_nonzero(clipped == v) for v in sup], dtype=np.float64
    )
    probs = np.asarray(pmf(sup), dtype=np.float64)
    # Fold the untested tail mass into the end cells so probabilities sum
    # to 1 over the folded support.
    probs = probs.copy()
    probs[0] += max(0.0, _tail_mass_below(pmf, sup[0]))
    probs[-1] += max(0.0, _tail_mass_above(pmf, sup[-1]))
    expected = probs * len(arr)
    return chi_square_test(observed, expected, min_expected=min_expected)


def _tail_mass_below(pmf, lo: int, span: int = 200) -> float:
    ks = np.arange(lo - span, lo)
    return float(np.sum(pmf(ks)))


def _tail_mass_above(pmf, hi: int, span: int = 200) -> float:
    ks = np.arange(hi + 1, hi + span + 1)
    return float(np.sum(pmf(ks)))


def bonferroni_alpha(family_alpha: float, n_tests: int) -> float:
    """Per-test level keeping the family-wise error at ``family_alpha``."""
    check_probability(family_alpha, "family_alpha")
    check_integer(n_tests, "n_tests", minimum=1)
    return family_alpha / n_tests
