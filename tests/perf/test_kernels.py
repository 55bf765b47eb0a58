"""Exactness of the DP kernels: every engine, bit for bit.

The blocked kernel must reproduce the reference loop exactly on any
input (same float ops per candidate, leftmost argmin).  The
divide-and-conquer kernel only engages on Monge-certified (sorted)
costs — its honest workload, AHP's sorted-scaffold clustering — and
must be bit-identical there; on unsorted inputs ``exact_dc`` silently
falls back to the blocked scan and stays exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.sae import l1_voptimal_table, sae_matrix
from repro.partition.voptimal import voptimal_partition, voptimal_table
from repro.perf.kernels import KERNELS, dp_tables, resolve_kernel
from repro.perf.costrows import PrefixSSECost

counts_strategy = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
              allow_infinity=False, width=32),
    min_size=1,
    max_size=48,
)


@st.composite
def counts_and_k(draw):
    counts = draw(counts_strategy)
    k = draw(st.integers(min_value=1, max_value=len(counts)))
    return np.asarray(counts, dtype=np.float64), k


def _tables(counts, max_k, kernel):
    return dp_tables(PrefixSSECost(counts), max_k, kernel=kernel)


class TestKernelEquivalence:
    @given(counts_and_k())
    @settings(max_examples=60, deadline=None)
    def test_blocked_bitequal_reference_unsorted(self, case):
        counts, k = case
        opt_ref, ch_ref = _tables(counts, k, "reference")
        opt_blk, ch_blk = _tables(counts, k, "exact_blocked")
        assert np.array_equal(opt_ref, opt_blk)
        assert np.array_equal(ch_ref, ch_blk)

    @given(counts_and_k())
    @settings(max_examples=60, deadline=None)
    def test_dc_bitequal_reference_sorted(self, case):
        counts, k = case
        counts = np.sort(counts)
        assert PrefixSSECost(counts).monge_certified
        opt_ref, ch_ref = _tables(counts, k, "reference")
        opt_dc, ch_dc = _tables(counts, k, "exact_dc")
        assert np.array_equal(opt_ref, opt_dc)
        assert np.array_equal(ch_ref, ch_dc)

    def test_dc_certified_where_prefix_differences_round(self):
        # 16 + 1e-12 - 1e-12 rounds below 16: a certificate read off
        # prefix-sum differences refused these sorted counts.
        counts = np.array([1e-12, 16.0, 16.0])
        assert PrefixSSECost(counts).monge_certified
        for k in (1, 2, 3):
            opt_ref, ch_ref = _tables(counts, k, "reference")
            opt_dc, ch_dc = _tables(counts, k, "exact_dc")
            assert np.array_equal(opt_ref, opt_dc)
            assert np.array_equal(ch_ref, ch_dc)

    @given(counts_and_k())
    @settings(max_examples=40, deadline=None)
    def test_dc_on_unsorted_falls_back_exact(self, case):
        counts, k = case
        ref = voptimal_table(counts, k, kernel="reference")
        dc = voptimal_table(counts, k, kernel="exact_dc")
        assert np.array_equal(ref.sse_by_k, dc.sse_by_k)
        for level in range(1, k + 1):
            assert ref.partition_for(level) == dc.partition_for(level)

    @given(counts_and_k())
    @settings(max_examples=30, deadline=None)
    def test_l1_tables_agree_across_kernels(self, case):
        counts, k = case
        matrix = sae_matrix(counts)
        ref = l1_voptimal_table(counts, k, matrix=matrix, kernel="reference")
        blk = l1_voptimal_table(
            counts, k, matrix=matrix, kernel="exact_blocked"
        )
        assert np.array_equal(ref.sae_by_k, blk.sae_by_k)
        for level in range(1, k + 1):
            assert ref.partition_for(level) == blk.partition_for(level)

    def test_quadrangle_inequality_counterexample(self):
        """SSE is NOT Monge on unsorted data — the dispatch must know."""
        cost = PrefixSSECost(np.array([0.0, 1.0, 0.0]))
        assert not cost.monge_certified
        # w(0,2) + w(1,3) > w(0,3) + w(1,2): QI violated.
        w = {
            (i, j): float(cost.column(j)[i])
            for j in (2, 3) for i in (0, 1)
        }
        assert w[(0, 2)] + w[(1, 3)] > w[(0, 3)] + w[(1, 2)] + 1e-12

    def test_tie_heavy_inputs_bitequal(self):
        """All-equal and step data maximize argmin ties; leftmost rule
        must coincide across kernels."""
        for counts in (
            np.zeros(40),
            np.repeat([1.0, 5.0], 20),
            np.ones(33) * 7,
        ):
            opt_ref, ch_ref = _tables(counts, 12, "reference")
            opt_blk, ch_blk = _tables(counts, 12, "exact_blocked")
            assert np.array_equal(opt_ref, opt_blk)
            assert np.array_equal(ch_ref, ch_blk)
            srt = np.sort(counts)
            opt_ref, ch_ref = _tables(srt, 12, "reference")
            opt_dc, ch_dc = _tables(srt, 12, "exact_dc")
            assert np.array_equal(opt_ref, opt_dc)
            assert np.array_equal(ch_ref, ch_dc)


class TestDispatch:
    def test_kernels_tuple(self):
        assert KERNELS == (
            "auto",
            "exact_dc",
            "exact_blocked",
            "reference",
            "approx",
        )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel("smawk")
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel("")


class TestBacktrackEdges:
    """partition_for at the extremes (satellite regression tests)."""

    def test_k_equals_one(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(9.0, size=57).astype(float)
        for kernel in KERNELS:
            result = voptimal_table(counts, 5, kernel=kernel)
            partition = result.partition_for(1)
            assert partition.boundaries == ()
            assert partition.k == 1
            assert partition.n == 57

    def test_k_equals_n(self):
        rng = np.random.default_rng(4)
        counts = rng.poisson(9.0, size=23).astype(float)
        for kernel in KERNELS:
            result = voptimal_table(counts, 23, kernel=kernel)
            partition = result.partition_for(23)
            assert partition.boundaries == tuple(range(1, 23))
            assert result.sse_by_k[23] == 0.0

    def test_boundaries_are_python_ints(self):
        partition, sse = voptimal_partition([1.0, 9.0, 1.0, 9.0], 2)
        assert all(isinstance(b, int) for b in partition.boundaries)
        assert sse >= 0.0
