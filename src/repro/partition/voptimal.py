"""Exact v-optimal partitioning by dynamic programming.

``voptimal_partition(counts, k)`` finds the contiguous ``k``-bucket
partition minimizing total SSE (Jagadish et al., VLDB 1998).
``voptimal_table`` exposes the full DP table — the optimal SSE for
*every* ``k' <= k`` — which NoiseFirst's adaptive bucket-count selection
consumes directly.

Two kernels compute the identical tables (dispatch via ``kernel=``):

* ``"exact_dc"`` (default) — divide-and-conquer DP optimization over the
  Monge/quadrangle-inequality structure of the SSE cost,
  ``O(n k log n)`` (:mod:`repro.perf.kernels`).
* ``"reference"`` — the original ``O(n^2 k)`` prefix loop, kept as the
  correctness anchor.

Both run the same floating-point operations per candidate and break ties
identically, so ``sse_by_k``, the prefix table, and every reconstructed
partition agree bit for bit (asserted by the property suite in
``tests/perf``).  See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro._validation import check_counts, check_integer
from repro.partition.partition import Partition
from repro.partition.sse import SegmentStats
from repro.perf.approx import ApproxDP, approx_tables
from repro.perf.costrows import PrefixSSECost
from repro.perf.kernels import dp_tables, resolve_table_kernel

__all__ = [
    "VOptimalResult",
    "ApproxVOptimalResult",
    "voptimal_table",
    "voptimal_partition",
]


def backtrack_boundaries(choices: np.ndarray, n: int, k: int) -> Tuple[int, ...]:
    """Reconstruct the ``k - 1`` boundaries from a DP choice table.

    Walks ``j -> choices[level][j]`` from ``(k, n)`` down to level 2 into
    a preallocated ``int64`` buffer — no per-level Python list append,
    no reversal, and safe for ``n`` beyond 32-bit (the table is int64
    end to end).  ``k = 1`` short-circuits to the empty boundary tuple.
    """
    if k == 1:
        return ()
    boundaries = np.empty(k - 1, dtype=np.int64)
    j = np.int64(n)
    for level in range(k, 1, -1):
        j = choices[level, j]
        boundaries[level - 2] = j
    return tuple(int(b) for b in boundaries)


@dataclass(frozen=True)
class VOptimalResult:
    """Output of the v-optimal DP: optimal SSE and partition per k.

    ``sse_by_k[k]`` is the minimal SSE achievable with exactly ``k``
    buckets (index 0 is unused and set to +inf).  ``partition_for(k)``
    reconstructs the argmin partition from the stored choice table.
    """

    n: int
    max_k: int
    sse_by_k: np.ndarray
    _choices: np.ndarray  # choices[k][j] = start of last bucket for prefix j
    _opt: np.ndarray  # opt[k][j] = min SSE of first j bins in k buckets

    def sse_prefix_table(self) -> np.ndarray:
        """The full DP table ``opt[k][j]`` (read-only view).

        ``opt[k][j]`` is the minimal SSE of splitting the first ``j``
        bins into exactly ``k`` buckets (+inf where infeasible).
        StructureFirst's exponential-mechanism sampling scores candidate
        boundaries with this table.
        """
        view = self._opt.view()
        view.setflags(write=False)
        return view

    def partition_for(self, k: int) -> Partition:
        """Reconstruct the optimal ``k``-bucket partition by backtracking."""
        check_integer(k, "k", minimum=1)
        if k > self.max_k:
            raise ValueError(f"k={k} exceeds computed max_k={self.max_k}")
        return Partition(
            n=self.n, boundaries=backtrack_boundaries(self._choices, self.n, k)
        )


@dataclass(frozen=True)
class ApproxVOptimalResult:
    """Sparse v-optimal result from the approximate (1+delta) kernel.

    Duck-types :class:`VOptimalResult` for every quantity the
    publishers consume — ``n``, ``max_k``, ``sse_by_k``,
    ``partition_for`` — without the ``O(k n)`` dense tables (2 GB at
    ``n = 2^20, k = 128``).  ``sse_by_k[k]`` is an upper bound on the
    exact optimum within the factor ``1 + delta_certified_by_k[k]``
    (:mod:`repro.perf.approx`); the materialized partition's true cost
    never exceeds it.  ``sse_prefix_table`` is deliberately absent —
    callers that need full prefix tables must request an exact kernel.
    """

    n: int
    max_k: int
    sse_by_k: np.ndarray
    _dp: ApproxDP

    @property
    def delta(self) -> float:
        """The configured target slack."""
        return self._dp.delta

    @property
    def delta_certified_by_k(self) -> np.ndarray:
        """Achieved multiplicative bound per bucket count."""
        return self._dp.delta_certified_by_k

    def sse_prefix_table(self) -> np.ndarray:
        raise NotImplementedError(
            "the approx kernel keeps no dense prefix table; use an exact "
            "kernel (exact_dc / exact_blocked / reference) when the full "
            "opt[k][j] table is required"
        )

    def partition_for(self, k: int) -> Partition:
        """Materialize the approx ``k``-bucket partition.

        True cost of the returned partition is at most ``sse_by_k[k]``
        (boundary truncation + refinement only ever decrease cost).
        """
        check_integer(k, "k", minimum=1)
        if k > self.max_k:
            raise ValueError(f"k={k} exceeds computed max_k={self.max_k}")
        return Partition(n=self.n, boundaries=self._dp.boundaries_for(k))


def voptimal_table(
    counts: Sequence[float],
    max_k: int,
    kernel: Optional[str] = None,
) -> "VOptimalResult | ApproxVOptimalResult":
    """Run the v-optimal DP for every bucket count ``1..max_k``.

    DP recurrence over prefixes: with ``OPT[k][j]`` the minimal SSE of
    splitting the first ``j`` bins into ``k`` buckets,

        OPT[1][j] = SSE(0, j)
        OPT[k][j] = min_{k-1 <= i < j} OPT[k-1][i] + SSE(i, j)

    ``kernel`` selects the DP engine: ``"auto"`` (default) runs
    ``exact_dc`` up to :data:`repro.perf.kernels.AUTO_APPROX_THRESHOLD`
    bins — bit-identical to the historical behavior — and the sparse
    approximate (1+delta) engine beyond it, returning an
    :class:`ApproxVOptimalResult`; ``"approx"`` forces the approximate
    engine at any size; ``"reference"`` is the O(n^2 k) anchor; ``None``
    means ``"auto"``.
    """
    arr = check_counts(counts, "counts")
    n = len(arr)
    check_integer(max_k, "max_k", minimum=1)
    if max_k > n:
        raise ValueError(f"max_k ({max_k}) cannot exceed the number of bins ({n})")

    cost = PrefixSSECost(SegmentStats(arr))
    if resolve_table_kernel(kernel, n) == "approx":
        from repro.obs.trace import span

        with span("kernel.dp", kernel="approx", n=n, k=max_k):
            dp = approx_tables(cost, max_k)
        return ApproxVOptimalResult(
            n=n, max_k=max_k, sse_by_k=dp.sse_by_k, _dp=dp
        )
    opt, choices = dp_tables(cost, max_k, kernel=kernel)

    sse_by_k = np.full(max_k + 1, np.inf, dtype=np.float64)
    sse_by_k[1 : max_k + 1] = opt[1 : max_k + 1, n]
    return VOptimalResult(
        n=n, max_k=max_k, sse_by_k=sse_by_k, _choices=choices, _opt=opt
    )


def voptimal_partition(
    counts: Sequence[float],
    k: int,
    kernel: Optional[str] = None,
) -> Tuple[Partition, float]:
    """Optimal ``k``-bucket partition of ``counts`` and its SSE."""
    result = voptimal_table(counts, k, kernel=kernel)
    partition = result.partition_for(k)
    return partition, float(result.sse_by_k[k])
