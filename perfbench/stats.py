"""Summary statistics and closed-form error bands used by the benchmark.

Everything here is pure arithmetic on lists of floats, so the unit tests
in ``perfbench/tests`` can pin it down without a server.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, the "tail" is one or two requests.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0 < q < 100) of ``samples``, or ``None``.

    Nearest-rank: the value at rank ``ceil(q/100 * n)``.  ``None`` when
    fewer than :data:`MIN_BEYOND` samples rank above it, so a p90 needs
    at least 100 samples and a median at least 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median_over_rounds(rounds: Sequence[Sequence[float]], q: float) -> float:
    """Median over the rounds of each round's ``q``-th percentile.

    The host's speed drifts by ±15% over seconds; a slow spell that
    covers fewer than half of a run's rounds moves this median not at
    all, whereas it moves a percentile of all samples pooled.  Raises
    when a round has too few samples for :func:`percentile`.
    """
    values = [percentile(r, q) for r in rounds]
    if not values or None in values:
        raise ValueError(f"rounds of {[len(r) for r in rounds]} samples "
                         f"cannot support a p{q:g}")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def laplace_range_mse(length: int, epsilon: float) -> float:
    """Expected squared error of a length-``L`` range under per-bin
    ``Lap(1/ε)`` noise: ``L`` independent variances of ``2/ε²``."""
    if length < 1 or epsilon <= 0:
        raise ValueError("length must be >= 1 and epsilon > 0")
    return 2.0 * length / (epsilon * epsilon)


#: Half-widths of the band, in standard deviations below and above 1.
#: One normalized point error is ``E²/2`` with ``E ~ Exp(1)`` (mean 1,
#: variance 5, skewness 6.6; ranges have lighter tails), so the mean of
#: ``m`` of them has standard deviation ``√5/√m`` and a long upper tail.
#: Equal tail probabilities need a wider upper side: an honest release
#: leaves ``[1 − 4σ, 1 + 8σ]`` with probability about 1e-6 at m = 128
#: (exact convolution of the density), whereas a symmetric 4σ band is
#: left once in about 900 checks on the upper side alone.
LAPLACE_Z = (4.0, 8.0)
#: The smallest half-width, as in ``repro.obs.drift.oracle_band``.
LAPLACE_MIN_HALF_WIDTH = 0.2
LAPLACE_MIN_ANSWERS = 128


def laplace_band(answers: int) -> Tuple[float, float]:
    """Band on the mean of ``answers`` independent squared Laplace range
    errors, each divided by ``2L/ε²``.

    Each half-width is ``max(0.2, z·√5/√m)``, the shape of
    ``repro.obs.drift.oracle_band``, with the ``z`` of
    :data:`LAPLACE_Z`.  From m = 200 on, a noise scale off by a factor
    of two (mean 4 or 1/4) lies outside the band; at m = 128 the upper
    side still rejects a mean of 4.
    """
    if answers < LAPLACE_MIN_ANSWERS:
        raise ValueError(
            f"need at least {LAPLACE_MIN_ANSWERS} answers, got {answers}"
        )
    sd = math.sqrt(5.0 / answers)
    z_lo, z_hi = LAPLACE_Z
    return (1.0 - max(LAPLACE_MIN_HALF_WIDTH, z_lo * sd),
            1.0 + max(LAPLACE_MIN_HALF_WIDTH, z_hi * sd))


def laplace_band_ok(mean_normalized: float, answers: int) -> bool:
    """Whether a mean of normalized squared errors is honest."""
    lo, hi = laplace_band(answers)
    return lo <= mean_normalized <= hi


def disjoint_ranges(ranges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """A largest set of pairwise disjoint half-open ranges (earliest end
    first), in order.

    Errors of disjoint ranges sum disjoint noise, so they are
    independent even when several releases share one noise vector;
    overlapping ranges repeat the same draws and would make a band sized
    to their count far too narrow.
    """
    out: List[Tuple[int, int]] = []
    end = None
    for lo, hi in sorted(set(ranges), key=lambda r: (r[1], r[0])):
        if end is None or lo >= end:
            out.append((lo, hi))
            end = hi
    return out
