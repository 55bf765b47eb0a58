"""Lazy segment-cost providers for the DP kernels and the Gibbs sampler.

A *cost-rows provider* answers the cost of merging the contiguous bin
segment ``[i, j)`` into one bucket, in the access patterns the kernels
need, from ``O(n)`` state:

``column(j)``
    Vector of ``cost(i, j)`` for every ``i in [0, j)`` — one DP "row"
    (all segments *closing* at prefix ``j``).  The reference kernel and
    the Gibbs forward filter consume columns left to right; generating
    them lazily is what drops StructureFirst's memory from the dense
    ``(n, n + 1)`` cost matrix (``O(n^2)``) to ``O(n k)``.
``interval(ilo, ihi, j)``
    The slice ``cost(i, j), i in [ilo, ihi)`` — a divide-and-conquer
    midpoint probe.
``block(ilo, ihi, jlo, jhi)``
    Dense ``(jhi - jlo, ihi - ilo)`` block ``cost(i, j)`` — the leaf
    scan of the divide-and-conquer kernel.  Entries with ``i >= j`` are
    garbage (the kernel masks them).
``first_row()``
    ``cost(0, j)`` for every ``j in [1, n]`` — DP layer 1 in one call.
``grid(starts, stops)``
    Dense ``(len(stops), len(starts))`` gather ``cost(starts[c],
    stops[r])`` at *arbitrary* (not necessarily contiguous) index
    arrays — the approximate kernel's sparse candidate evaluation
    (:mod:`repro.perf.approx`).  Entries with ``start >= stop`` are
    garbage (the caller masks them).
``single_bin_free``
    Flag: ``True`` iff every single-bin segment costs exactly zero
    (``cost(j-1, j) == 0``).  SSE and SAE both qualify; the
    approximate kernel's wavefront-candidate bound requires it.

Providers:

* :class:`PrefixSSECost` — SSE about the segment mean from prefix sums,
  every access O(length) with no per-call allocation beyond the output.
  Bit-identical to :meth:`repro.partition.sse.SegmentStats.sse_row`.
* :class:`DenseCost` — adapter over a precomputed ``(n, n + 1)`` cost
  matrix (e.g. :func:`repro.partition.sae.sae_matrix`), for callers that
  already hold one.
* :class:`LazySAECost` — SAE about the segment median, one column at a
  time via an incremental two-heap running median (O(j log j) per
  column, O(n) memory).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro._validation import check_counts

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from repro.partition.sse import SegmentStats

__all__ = ["PrefixSSECost", "DenseCost", "LazySAECost", "as_cost_rows"]


class PrefixSSECost:
    """SSE segment costs from :class:`~repro.partition.sse.SegmentStats`.

    All four access patterns reuse the stats object's prefix-sum and
    index buffers, and apply the exact arithmetic of
    :meth:`SegmentStats.sse_row` (same operand order, same clamp), so
    kernel outputs are floating-point identical to the historical code
    paths.
    """

    def __init__(self, counts: "Sequence[float] | SegmentStats") -> None:
        # Runtime import: repro.partition.voptimal imports this module at
        # load time, so the reverse edge must stay lazy.
        from repro.partition.sse import SegmentStats

        stats = (
            counts
            if isinstance(counts, SegmentStats)
            else SegmentStats(counts)
        )
        self._stats = stats
        self.n = stats.n
        self._prefix = stats.prefix
        self._prefix_sq = stats.prefix_sq
        self._indices = stats.indices

    #: Single-bin SSE is identically zero (one value, its own mean).
    single_bin_free = True

    @property
    def monge_certified(self) -> bool:
        """True iff the counts are sorted non-decreasing.

        SSE segment costs satisfy the concave quadrangle inequality
        exactly when the underlying sequence is sorted (the 1-D
        quantization setting, e.g. AHP's sorted-scaffold clustering);
        unsorted sequences violate it (``[0, 1, 0]`` is a
        counterexample — see docs/performance.md), so the
        divide-and-conquer kernel only engages on this certificate.
        Checked once in O(n) on the counts themselves
        (:attr:`SegmentStats.non_decreasing`): first differences of the
        prefix sums round, and would refuse sorted counts such as
        ``[1e-12, 16, 16]``.
        """
        return self._stats.non_decreasing

    def column(self, j: int) -> np.ndarray:
        """``cost(i, j)`` for all ``i in [0, j)`` (== ``sse_row(j)``)."""
        return self._stats.sse_row(j)

    def interval(self, ilo: int, ihi: int, j: int) -> np.ndarray:
        """``cost(i, j)`` for ``i in [ilo, ihi)``."""
        starts = self._indices[ilo:ihi]
        totals = self._prefix[j] - self._prefix[starts]
        totals_sq = self._prefix_sq[j] - self._prefix_sq[starts]
        widths = j - starts
        sse = totals_sq - totals * totals / widths
        return np.maximum(sse, 0.0)

    def block(self, ilo: int, ihi: int, jlo: int, jhi: int) -> np.ndarray:
        """``cost(i, j)`` grid, shape ``(jhi - jlo, ihi - ilo)``.

        Entries with ``j <= i`` are meaningless (0/0 or negative width);
        the caller masks them before any reduction.
        """
        starts = self._indices[ilo:ihi]
        stops = self._indices[jlo:jhi]
        totals = self._prefix[stops][:, None] - self._prefix[starts][None, :]
        totals_sq = (
            self._prefix_sq[stops][:, None] - self._prefix_sq[starts][None, :]
        )
        widths = stops[:, None] - starts[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = totals_sq - totals * totals / widths
        return np.maximum(sse, 0.0)

    def first_row(self) -> np.ndarray:
        """``cost(0, j)`` for every ``j in [1, n]``."""
        stops = self._indices[1:]
        totals = self._prefix[1:] - self._prefix[0]
        totals_sq = self._prefix_sq[1:] - self._prefix_sq[0]
        sse = totals_sq - totals * totals / stops
        return np.maximum(sse, 0.0)

    def grid(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """``cost(starts[c], stops[r])`` grid at arbitrary index arrays.

        Same prefix-sum arithmetic as :meth:`block`; entries with
        ``start >= stop`` are garbage (caller masks them).
        """
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        totals = self._prefix[stops][:, None] - self._prefix[starts][None, :]
        totals_sq = (
            self._prefix_sq[stops][:, None] - self._prefix_sq[starts][None, :]
        )
        widths = stops[:, None] - starts[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = totals_sq - totals * totals / widths
        return np.maximum(sse, 0.0)


class DenseCost:
    """Adapter over a precomputed ``(n, n + 1)`` segment-cost matrix.

    ``assume_monge=True`` certifies that the matrix satisfies the
    concave quadrangle inequality (caller's responsibility — e.g. SAE
    costs of a sorted sequence), unlocking the divide-and-conquer
    kernel; the default leaves the exact blocked scan in charge.
    """

    def __init__(self, matrix: np.ndarray, assume_monge: bool = False) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != matrix.shape[0] + 1:
            raise ValueError(
                f"cost matrix must have shape (n, n+1), got {matrix.shape}"
            )
        self._matrix = matrix
        self.n = matrix.shape[0]
        self.monge_certified = bool(assume_monge)
        self._single_bin_free: "bool | None" = None

    @property
    def single_bin_free(self) -> bool:
        """True iff the matrix diagonal ``cost(j-1, j)`` is all zeros.

        Checked once in O(n); SSE/SAE matrices qualify, arbitrary
        matrices may not — the approximate kernel refuses the latter.
        """
        if self._single_bin_free is None:
            idx = np.arange(self.n)
            self._single_bin_free = bool(
                np.all(self._matrix[idx, idx + 1] == 0.0)
            )
        return self._single_bin_free

    def column(self, j: int) -> np.ndarray:
        return self._matrix[:j, j]

    def interval(self, ilo: int, ihi: int, j: int) -> np.ndarray:
        return self._matrix[ilo:ihi, j]

    def block(self, ilo: int, ihi: int, jlo: int, jhi: int) -> np.ndarray:
        return self._matrix[ilo:ihi, jlo:jhi].T

    def first_row(self) -> np.ndarray:
        return self._matrix[0, 1:]

    def grid(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        return self._matrix[np.ix_(starts, stops)].T


class LazySAECost:
    """SAE (absolute deviation about the median) costs, one column at a time.

    ``column(j)`` inserts ``counts[j-1], counts[j-2], …`` into a two-heap
    running median — insertion order is irrelevant to the median of a
    multiset — and reads the SAE after each insertion, yielding
    ``SAE(i, j)`` for ``i = j-1 … 0`` in ``O(j log j)`` time and ``O(j)``
    memory.  The whole Gibbs forward filter therefore runs in the same
    ``O(n^2 log n)`` time as materializing
    :func:`repro.partition.sae.sae_matrix` once, but peaks at ``O(n)``
    cost-state instead of the matrix's ``O(n^2)``.

    Values can differ from the dense matrix by a few ulp (floating-point
    sums accumulate in a different order); the Gibbs distribution the
    sampler realizes is identical in exact arithmetic.
    """

    #: SAE costs of arbitrary sequences violate the quadrangle
    #: inequality (same ``[0, 1, 0]`` counterexample family as SSE), so
    #: the lazy provider never certifies Monge structure.
    monge_certified = False

    #: A single bin is its own median: SAE(j-1, j) == 0 always.
    single_bin_free = True

    def __init__(self, counts: Sequence[float]) -> None:
        self._arr = check_counts(counts, "counts")
        self.n = len(self._arr)

    def column(self, j: int) -> np.ndarray:
        """``SAE(i, j)`` for all ``i in [0, j)``."""
        if not 0 < j <= self.n:
            raise ValueError(f"column index {j} outside [1, {self.n}]")
        arr = self._arr
        out = np.empty(j, dtype=np.float64)
        low: List[float] = []  # max-heap (negated): values <= median
        high: List[float] = []  # min-heap: values >= median
        low_sum = 0.0
        high_sum = 0.0
        for i in range(j - 1, -1, -1):
            value = float(arr[i])
            if not low or value <= -low[0]:
                heapq.heappush(low, -value)
                low_sum += value
            else:
                heapq.heappush(high, value)
                high_sum += value
            # Rebalance so len(low) == len(high) or len(low) == len(high)+1.
            if len(low) > len(high) + 1:
                moved = -heapq.heappop(low)
                low_sum -= moved
                heapq.heappush(high, moved)
                high_sum += moved
            elif len(high) > len(low):
                moved = heapq.heappop(high)
                high_sum -= moved
                heapq.heappush(low, -moved)
                low_sum += moved
            median = -low[0]
            # SAE = sum(high) - sum(low) + median * (len(low) - len(high)).
            sae = (high_sum - len(high) * median) + (len(low) * median - low_sum)
            out[i] = max(sae, 0.0)
        return out

    def interval(self, ilo: int, ihi: int, j: int) -> np.ndarray:
        return self.column(j)[ilo:ihi]

    def block(self, ilo: int, ihi: int, jlo: int, jhi: int) -> np.ndarray:
        cols = [self.column(j)[ilo:ihi] for j in range(jlo, jhi)]
        width = ihi - ilo
        out = np.zeros((jhi - jlo, width), dtype=np.float64)
        for row, col in enumerate(cols):
            out[row, : len(col)] = col
        return out

    def grid(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """``SAE(starts[c], stops[r])`` grid via one column pass per stop.

        ``O(sum_j j log j)`` over the requested stops — adequate for the
        moderate ``n`` where a lazy SAE provider meets the approximate
        kernel (the big-n SAE path coarsens first; see
        :mod:`repro.partition.coarsen`).  Cells with ``start >= stop``
        are zero-filled garbage (caller masks them).
        """
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        out = np.zeros((len(stops), len(starts)), dtype=np.float64)
        for row, j in enumerate(stops):
            col = self.column(int(j))  # SAE(i, j) for i in [0, j)
            valid = starts < j
            out[row, valid] = col[starts[valid]]
        return out

    def first_row(self) -> np.ndarray:
        """``SAE(0, j)`` for every ``j in [1, n]`` in one rightward pass."""
        arr = self._arr
        out = np.empty(self.n, dtype=np.float64)
        low: List[float] = []
        high: List[float] = []
        low_sum = 0.0
        high_sum = 0.0
        for j in range(self.n):
            value = float(arr[j])
            if not low or value <= -low[0]:
                heapq.heappush(low, -value)
                low_sum += value
            else:
                heapq.heappush(high, value)
                high_sum += value
            if len(low) > len(high) + 1:
                moved = -heapq.heappop(low)
                low_sum -= moved
                heapq.heappush(high, moved)
                high_sum += moved
            elif len(high) > len(low):
                moved = heapq.heappop(high)
                high_sum -= moved
                heapq.heappush(low, -moved)
                low_sum += moved
            median = -low[0]
            sae = (high_sum - len(high) * median) + (len(low) * median - low_sum)
            out[j] = max(sae, 0.0)
        return out


def as_cost_rows(cost) -> "PrefixSSECost | DenseCost | LazySAECost":
    """Coerce an ``(n, n+1)`` ndarray to :class:`DenseCost`; pass through
    anything already quacking like a cost-rows provider."""
    if isinstance(cost, np.ndarray):
        return DenseCost(cost)
    if not hasattr(cost, "n") or not hasattr(cost, "column"):
        raise TypeError(
            "cost must be an (n, n+1) ndarray or a cost-rows provider "
            f"with .n and .column(); got {type(cost).__name__}"
        )
    return cost
