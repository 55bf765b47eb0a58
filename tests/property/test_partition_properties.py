"""Property-based tests for partition machinery (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.equiwidth import equiwidth_partition
from repro.partition.partition import Partition
from repro.partition.sae import sae_matrix
from repro.partition.sse import SegmentStats, partition_sse
from repro.partition.voptimal import voptimal_table

counts_strategy = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
              allow_infinity=False, width=32),
    min_size=1,
    max_size=24,
)


@st.composite
def counts_and_k(draw):
    counts = draw(counts_strategy)
    k = draw(st.integers(min_value=1, max_value=len(counts)))
    return counts, k


@st.composite
def partition_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    boundaries = draw(
        st.lists(st.integers(min_value=1, max_value=max(1, n - 1)),
                 unique=True, max_size=n - 1)
        if n > 1
        else st.just([])
    )
    return Partition(n=n, boundaries=tuple(sorted(boundaries)))


class TestPartitionInvariants:
    @given(partition_strategy())
    def test_buckets_tile_domain(self, partition):
        covered = []
        for start, stop in partition.buckets():
            assert start < stop
            covered.extend(range(start, stop))
        assert covered == list(range(partition.n))

    @given(partition_strategy())
    def test_bucket_of_consistent_with_buckets(self, partition):
        for idx, (start, stop) in enumerate(partition.buckets()):
            assert partition.bucket_of(start) == idx
            assert partition.bucket_of(stop - 1) == idx

    @given(counts_and_k())
    def test_apply_means_preserves_total(self, data):
        counts, k = data
        partition = equiwidth_partition(len(counts), k)
        out = partition.apply_means(counts)
        assert np.isclose(out.sum(), np.sum(counts), atol=1e-6 * (1 + abs(np.sum(counts))))


class TestSseInvariants:
    @given(counts_strategy)
    def test_sse_non_negative(self, counts):
        stats = SegmentStats(counts)
        n = len(counts)
        for i in range(n):
            assert stats.segment_sse(i, n) >= 0.0

    @given(counts_and_k())
    def test_voptimal_not_worse_than_equiwidth(self, data):
        counts, k = data
        table = voptimal_table(counts, k)
        eq_sse = partition_sse(counts, equiwidth_partition(len(counts), k))
        tol = 1e-6 * (1.0 + abs(eq_sse))
        assert table.sse_by_k[k] <= eq_sse + tol

    @given(counts_and_k())
    def test_voptimal_monotone_in_k(self, data):
        counts, k = data
        table = voptimal_table(counts, k)
        sses = table.sse_by_k[1 : k + 1]
        scale = 1e-6 * (1.0 + float(np.max(np.abs(sses))))
        assert all(sses[i + 1] <= sses[i] + scale for i in range(len(sses) - 1))


class TestSaeInvariants:
    @given(counts_strategy)
    def test_sae_matrix_non_negative(self, counts):
        matrix = sae_matrix(counts)
        assert np.all(matrix >= 0.0)

    @given(counts_strategy)
    @settings(max_examples=50)
    def test_sae_one_lipschitz(self, counts):
        """The sensitivity-1 property StructureFirst's privacy relies on."""
        arr = np.asarray(counts, dtype=float)
        n = len(arr)
        before = sae_matrix(arr)
        t = n // 2
        bumped = arr.copy()
        bumped[t] += 1.0
        after = sae_matrix(bumped)
        # Every segment's SAE moves by at most 1.
        assert np.max(np.abs(after - before)) <= 1.0 + 1e-9

    @given(counts_strategy)
    def test_sae_monotone_under_merge(self, counts):
        """Merging two adjacent segments never decreases total SAE."""
        n = len(counts)
        if n < 2:
            return
        matrix = sae_matrix(counts)
        mid = n // 2
        merged = matrix[0, n]
        split = matrix[0, mid] + matrix[mid, n]
        assert merged >= split - 1e-9
