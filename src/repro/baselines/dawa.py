"""DAWA-lite: data-aware partition + hierarchical bucket measurement.

A simplified composition in the spirit of Li et al.'s DAWA (VLDB 2014),
assembled from this library's substrates:

1. **Partition** (``eps1``): draw a k-bucket partition from the exact
   exponential mechanism over partitions with the sensitivity-1 L1 cost
   (the same Gibbs sampler StructureFirst uses).
2. **Measure** (``eps2``): treat the buckets as super-bins and measure
   their *sums* with the Boost hierarchical strategy — a b-ary interval
   tree over the k bucket sums, each level getting ``eps2/height``,
   followed by Hay et al. least-squares consistency.
3. **Reconstruct**: spread each consistent bucket sum uniformly over its
   bins.

Compared to StructureFirst (one flat Laplace per bucket sum), the
hierarchical stage-2 makes *ranges spanning many buckets* cheaper —
O(log k) noise terms instead of O(#buckets crossed) — at the price of a
log-factor on single-bucket queries.  DAWA's full workload-adaptive
stage 2 (matrix mechanism) is out of scope; the hierarchical ladder
captures the qualitative behaviour.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro._validation import check_in_range, check_integer
from repro.accounting.accountant import Accountant
from repro.baselines.boost import build_tree_sums, consistent_leaves
from repro.core.kselect import default_bucket_count
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import laplace_noise
from repro.obs.trace import span
from repro.partition.coarsen import (
    COARSE_MAX_CELLS,
    coarse_sample_partition_em,
)
from repro.partition.partition import Partition
from repro.perf.costrows import LazySAECost

__all__ = ["DawaLite"]


class DawaLite(Publisher):
    """Data-aware partition + hierarchical bucket measurement.

    Parameters
    ----------
    k:
        Bucket count; ``None`` uses ``n // 8`` like StructureFirst.
    partition_fraction:
        Budget share for the partition draw (``eps1``); default 0.25,
        DAWA's recommended partition-light split.
    branching:
        Fan-out of the stage-2 interval tree.
    max_cells:
        Big-n ceiling for the stage-1 EM draw: above this many bins the
        partition is sampled over a data-independent uniform grid and
        mapped back (:mod:`repro.partition.coarsen`); at or below it the
        draw is the exact sampler, bit-identical to the historical
        behaviour.  SAE keeps sensitivity 1 under cell aggregation, so
        ``alpha`` is unchanged.
    """

    name = "dawa-lite"

    def __init__(
        self,
        k: Optional[int] = None,
        partition_fraction: float = 0.25,
        branching: int = 2,
        max_cells: int = COARSE_MAX_CELLS,
    ) -> None:
        if k is not None:
            check_integer(k, "k", minimum=1)
        check_in_range(partition_fraction, "partition_fraction", 0.0, 1.0,
                       inclusive=False)
        check_integer(branching, "branching", minimum=2)
        check_integer(max_cells, "max_cells", minimum=1)
        self.k = k
        self.partition_fraction = partition_fraction
        self.branching = branching
        self.max_cells = max_cells

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        n = histogram.size
        k = min(self.k if self.k is not None else default_bucket_count(n), n)

        if k == 1:
            partition = Partition.single_bucket(n)
            eps1 = 0.0
        else:
            eps1 = accountant.total * self.partition_fraction
            accountant.spend(eps1, purpose="em-partition")
            with span("partition.em", n=n, k=k):
                alpha = eps1 / 2.0  # SAE sensitivity is exactly 1
                partition = coarse_sample_partition_em(
                    histogram.counts,
                    k,
                    alpha,
                    rng=rng,
                    max_cells=self.max_cells,
                    cost_factory=LazySAECost,  # O(n) cost state
                )

        eps2 = accountant.remaining
        sums = partition.bucket_sums(histogram.counts)

        # Stage 2: hierarchical measurement of the bucket sums.  Nodes in
        # one level partition the records, so each level spends eps2/h in
        # parallel across its nodes.
        b = self.branching
        padded = 1
        while padded < partition.k:
            padded *= b
        padded_sums = np.zeros(padded, dtype=np.float64)
        padded_sums[: partition.k] = sums
        levels = build_tree_sums(padded_sums, b)
        height = len(levels)
        eps_level = eps2 / height
        noisy_levels = []
        with span("noise.tree", height=height, branching=b):
            for i, level in enumerate(levels):
                accountant.spend(
                    eps_level, purpose=f"bucket-tree-level-{i}",
                    parallel_group=f"bucket-level-{i}",
                )
                noisy_levels.append(
                    level
                    + laplace_noise(eps_level, size=level.shape, rng=rng)
                )
        with span("postprocess.broadcast", n=n):
            consistent = consistent_leaves(noisy_levels, b)[: partition.k]
            widths = np.asarray(partition.bucket_sizes(), dtype=np.float64)
            published = partition.broadcast(consistent / widths)
        meta: Dict[str, Any] = {
            "k": partition.k,
            "partition": partition,
            "eps_partition": eps1,
            "eps_measure": eps2,
            "tree_height": height,
        }
        return published, meta
