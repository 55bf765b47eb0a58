"""Constant-time segment SSE via prefix sums.

The SSE of replacing a contiguous segment ``counts[i:j]`` by its mean is

    SSE(i, j) = sum(c**2) - (sum(c))**2 / (j - i)

which both the v-optimal dynamic program and StructureFirst's boundary
scorer evaluate O(n^2) times, so :class:`SegmentStats` precomputes prefix
sums of the counts and their squares once and answers each segment in
O(1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._validation import check_counts
from repro.partition.partition import Partition

__all__ = ["SegmentStats", "partition_sse"]


class SegmentStats:
    """Prefix-sum tables answering segment sum / mean / SSE in O(1)."""

    def __init__(self, counts: Sequence[float]) -> None:
        arr = check_counts(counts, "counts")
        self._n = len(arr)
        self._prefix = np.concatenate(([0.0], np.cumsum(arr)))
        self._prefix_sq = np.concatenate(([0.0], np.cumsum(arr * arr)))
        self._non_decreasing = bool(np.all(arr[1:] >= arr[:-1]))
        # Hoisted index buffer: sse_row slices this instead of allocating
        # a fresh np.arange per call (the DP calls sse_row n times, which
        # used to cost O(n^2) allocation churn per run).
        self._indices = np.arange(self._n + 1, dtype=np.int64)

    @property
    def n(self) -> int:
        """Number of bins the stats cover."""
        return self._n

    @property
    def prefix(self) -> np.ndarray:
        """Prefix sums ``P`` with ``P[j] = sum(counts[:j])`` (length n+1)."""
        return self._prefix

    @property
    def prefix_sq(self) -> np.ndarray:
        """Prefix sums of squares (length n+1)."""
        return self._prefix_sq

    @property
    def non_decreasing(self) -> bool:
        """Whether the counts are sorted non-decreasing (checked on them,
        not on the prefix sums, whose differences round)."""
        return self._non_decreasing

    @property
    def indices(self) -> np.ndarray:
        """The shared ``int64`` index buffer ``[0, 1, …, n]``."""
        return self._indices

    def _check(self, start: int, stop: int) -> None:
        if not 0 <= start < stop <= self._n:
            raise ValueError(
                f"segment [{start}, {stop}) invalid for {self._n} bins"
            )

    def segment_sum(self, start: int, stop: int) -> float:
        """Sum of counts over the half-open segment ``[start, stop)``."""
        self._check(start, stop)
        return float(self._prefix[stop] - self._prefix[start])

    def segment_mean(self, start: int, stop: int) -> float:
        """Mean of counts over ``[start, stop)``."""
        return self.segment_sum(start, stop) / (stop - start)

    def segment_sse(self, start: int, stop: int) -> float:
        """SSE of replacing ``counts[start:stop]`` by its mean.

        Clamped at zero: the closed form can dip a few ulp negative.
        """
        self._check(start, stop)
        total = self._prefix[stop] - self._prefix[start]
        total_sq = self._prefix_sq[stop] - self._prefix_sq[start]
        sse = total_sq - total * total / (stop - start)
        return float(max(sse, 0.0))

    def sse_row(self, stop: int) -> np.ndarray:
        """Vector of ``segment_sse(i, stop)`` for all ``i in [0, stop)``.

        Used by the dynamic program to process a whole DP row with numpy
        instead of a Python inner loop.  The hot path of the exact
        kernels calls this once per prefix, so it avoids every avoidable
        pass: the prefix tables are read through basic slices (no index
        gather), widths come from a reversed view of the shared index
        buffer, and the arithmetic runs in-place on the two unavoidable
        difference arrays — same operations in the same order as the
        closed form, so results are bit-identical to the historical
        ``totals_sq - totals * totals / widths``.
        """
        self._check(stop - 1, stop)
        totals = self._prefix[stop] - self._prefix[:stop]
        np.multiply(totals, totals, out=totals)
        widths = self._indices[stop:0:-1]  # stop - i for i in [0, stop)
        np.divide(totals, widths, out=totals)
        sse = self._prefix_sq[stop] - self._prefix_sq[:stop]
        np.subtract(sse, totals, out=sse)
        np.maximum(sse, 0.0, out=sse)
        return sse


def partition_sse(counts: Sequence[float], partition: Partition) -> float:
    """Total SSE of approximating ``counts`` by ``partition``'s bucket means.

    Vectorized over buckets: one prefix-diff per edge array instead of a
    Python loop of per-bucket ``segment_sse`` calls.
    """
    stats = SegmentStats(counts)
    if stats.n != partition.n:
        raise ValueError(
            f"counts has {stats.n} bins but partition covers {partition.n}"
        )
    edges = np.empty(partition.k + 1, dtype=np.int64)
    edges[0] = 0
    edges[1:-1] = partition.boundaries
    edges[-1] = partition.n
    totals = np.diff(stats.prefix[edges])
    totals_sq = np.diff(stats.prefix_sq[edges])
    widths = np.diff(edges)
    sse = totals_sq - totals * totals / widths
    return float(np.maximum(sse, 0.0).sum())
