"""AHP: Accurate Histogram Publication (Zhang et al., SDM 2014).

The direct successor to NoiseFirst/StructureFirst and the strongest
simple 1-D publisher in the DPBench era.  Pipeline:

1. **Noisy scaffold** (``eps1``): add ``Lap(1/eps1)`` to every bin.
2. **Threshold**: zero out scaffold counts below a cutoff
   ``t = c * sqrt(log n) / eps1`` (noise-level denoising of the many
   near-empty bins).
3. **Sort + cluster**: sort the thresholded scaffold and cluster the
   sorted values with the v-optimal DP (penalized k selection) —
   unlike NF/SF the clusters need not be contiguous in the domain,
   which is AHP's key advantage on unsorted/bursty data.
4. **Re-measure** (``eps2``): each cluster's total count is measured
   fresh with ``Lap(1/eps2)`` (clusters partition the bins, so one
   record touches one cluster: the vector of cluster sums has
   sensitivity 1) and the cluster's noisy mean is published for each of
   its bins.

Step 3 operates on already-private data (post-processing); only steps 1
and 4 spend budget.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro._validation import check_in_range, check_positive
from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import laplace_noise
from repro.obs.trace import span
from repro.partition.voptimal import voptimal_table

__all__ = ["Ahp"]


def _greedy_value_clusters(sorted_values: np.ndarray, gap: float) -> List[slice]:
    """Split a sorted value sequence where adjacent gaps exceed ``gap``.

    Returns slices into the sorted order; each slice is one cluster.
    """
    boundaries = [0]
    for i in range(1, len(sorted_values)):
        if sorted_values[i] - sorted_values[i - 1] > gap:
            boundaries.append(i)
    boundaries.append(len(sorted_values))
    return [slice(boundaries[i], boundaries[i + 1])
            for i in range(len(boundaries) - 1)]


class Ahp(Publisher):
    """Accurate Histogram Publication (value-clustering publisher).

    Parameters
    ----------
    scaffold_fraction:
        Share of the budget spent on the noisy scaffold (``eps1``);
        the paper's recommended split is scaffold-light (default 0.5 to
        match the NF/SF convention; the successors bench sweeps it).
    threshold_const:
        ``c`` in the cutoff ``c * sqrt(log n) / eps1``.
    kernel:
        DP engine for the clustering step
        (:data:`repro.perf.kernels.KERNELS`); ``None`` means ``auto``.
        The sorted scaffold certifies the Monge property, so the default
        engages the ``O(n k log n)`` divide-and-conquer kernel — AHP is
        the publisher this speedup targets (see ``docs/performance.md``).
    """

    name = "ahp"

    def __init__(
        self,
        scaffold_fraction: float = 0.5,
        threshold_const: float = 1.0,
        kernel: Optional[str] = None,
    ) -> None:
        check_in_range(scaffold_fraction, "scaffold_fraction", 0.0, 1.0,
                       inclusive=False)
        check_positive(threshold_const, "threshold_const")
        self.scaffold_fraction = scaffold_fraction
        self.threshold_const = threshold_const
        self.kernel = kernel

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        n = histogram.size
        eps1 = accountant.total * self.scaffold_fraction
        eps2 = accountant.total - eps1

        accountant.spend(eps1, purpose="scaffold-noise")
        with span("noise.scaffold", n=n):
            scaffold = histogram.counts + laplace_noise(
                eps1, size=n, rng=rng)

        # Post-processing of the scaffold: threshold + sort + cluster.
        cutoff = self.threshold_const * np.sqrt(np.log(max(n, 2))) / eps1
        scaffold = np.where(scaffold < cutoff, 0.0, scaffold)
        order = np.argsort(scaffold, kind="stable")
        sorted_vals = scaffold[order]

        # Cluster the *sorted* scaffold with the v-optimal DP, choosing
        # the cluster count by a penalized error estimate:
        #   bias      ~ SSE_y(k) + changepoint penalty (scaffold noise)
        #   noise     ~ sum_B sigma2^2 / |B|  (~ k^2 sigma2^2 / n for
        #               balanced clusters) from the re-measurement.
        sigma1_sq = 2.0 / (eps1 * eps1)
        sigma2_sq = 2.0 / (eps2 * eps2)
        max_k = min(n, 128)
        with span("partition.dp", n=n, k=max_k, kernel=self.kernel):
            table = voptimal_table(sorted_vals, max_k, kernel=self.kernel)
        ks = np.arange(1, max_k + 1, dtype=np.float64)
        penalty = 2.0 * sigma1_sq * ks * (np.log(n / ks) + 1.0)
        remeasure = sigma2_sq * ks * ks / n
        estimates = table.sse_by_k[1:] + penalty + remeasure
        k_star = int(np.argmin(estimates) + 1)
        partition = table.partition_for(k_star)
        clusters = [slice(start, stop) for start, stop in partition.buckets()]

        accountant.spend(eps2, purpose="cluster-sums")
        with span("noise.cluster-sums", clusters=len(clusters)):
            # Clusters are contiguous slices of the sorted order, so the
            # whole merge is three vectorized passes: gather counts into
            # sorted order, segment-sum via reduceat, scatter the noisy
            # means back.  One batched Laplace draw consumes the rng
            # stream exactly as the former per-cluster draws did.
            starts = np.array([c.start for c in clusters], dtype=np.int64)
            stops = np.array([c.stop for c in clusters], dtype=np.int64)
            widths = stops - starts
            gathered = histogram.counts[order]
            true_sums = np.add.reduceat(gathered, starts)
            noise = laplace_noise(eps2, size=len(clusters), rng=rng)
            means = (true_sums + noise) / widths
            out = np.empty(n, dtype=np.float64)
            out[order] = np.repeat(means, widths)
            cluster_bins = [
                order[c].astype(np.int64, copy=True) for c in clusters
            ]

        meta = {
            "clusters": len(clusters),
            "cluster_bins": cluster_bins,
            "cutoff": cutoff,
            "eps_scaffold": eps1,
            "eps_counts": eps2,
        }
        return out, meta
