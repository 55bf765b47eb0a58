"""Histogram bucket partitioning.

A *partition* splits the ``n`` ordered bins into ``k`` contiguous
buckets.  The quality of a partition is its SSE — the L2 error of
replacing each bin with its bucket's mean — and the *v-optimal* partition
minimizes SSE for a given ``k`` (Jagadish et al., VLDB 1998).  Both
NoiseFirst (post-processing a noisy histogram) and StructureFirst
(scoring candidate boundaries inside the exponential mechanism) are built
on the machinery in this package.
"""

from repro.partition.partition import Partition
from repro.partition.sse import SegmentStats, partition_sse
from repro.partition.voptimal import (
    ApproxVOptimalResult,
    VOptimalResult,
    voptimal_partition,
    voptimal_table,
)
from repro.partition.equiwidth import equiwidth_partition

__all__ = [
    "Partition",
    "SegmentStats",
    "partition_sse",
    "VOptimalResult",
    "ApproxVOptimalResult",
    "voptimal_partition",
    "voptimal_table",
    "equiwidth_partition",
]
