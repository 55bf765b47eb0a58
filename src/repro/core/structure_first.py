"""StructureFirst (Xu et al., ICDE 2012).

StructureFirst splits the budget ``eps = eps_s + eps_n``:

1. **Structure** (``eps_s``): draw the k-bucket partition from the
   *exact* exponential mechanism over the whole partition space, with
   utility the negated total bucket cost.  The Gibbs distribution
   ``Pr[P] ~ exp(-eps_s * cost(P) / (2 * sensitivity))`` is sampled via
   the soft-DP forward-filter/backward-sample procedure in
   :mod:`repro.partition.gibbs` — one draw, one spend of ``eps_s``.
2. **Counts** (``eps_n``): add ``Lap(1/eps_n)`` to each bucket *sum*
   (one record affects exactly one bucket sum by 1, so the bucket-sum
   vector has sensitivity 1 under unbounded neighbours) and publish the
   noisy bucket mean for every bin in the bucket.

Inside a bucket of width ``b`` the per-bin noise variance is
``2/(eps_n^2 b^2)`` and — crucially — the noise of bins sharing a bucket
is *identical*, so a range query that spans whole buckets accumulates one
noise term per bucket, not per bin.  That is why StructureFirst wins on
long ranges and loses on points (it also paid ``eps_s`` for structure).

Structure score
---------------
Two scoring costs are supported:

* ``"sae"`` (default) — L1 v-optimality: a bucket costs the sum of
  absolute deviations from its median.  The total-SAE utility is
  **1-Lipschitz in every count** (see :mod:`repro.partition.sae`), so
  the exponential mechanism runs with sensitivity exactly 1 and stays
  sharp at small budgets.  This is the configuration that reproduces the
  paper's reported behaviour.
* ``"sse"`` — L2 v-optimality, whose sensitivity is data-dependent; we
  bound it with a public per-bin ``count_cap``
  (:func:`repro.mechanisms.sse_sensitivity_bound`).  The loose bound
  makes the mechanism close to uniform at small eps; kept for the
  ``abl_sf_sampling`` comparison and for callers with tight caps.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro._validation import check_in_range, check_integer
from repro.accounting.accountant import Accountant
from repro.core.kselect import default_bucket_count
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.sensitivity import sse_sensitivity_bound
from repro.obs.trace import span
from repro.partition.coarsen import (
    COARSE_MAX_CELLS,
    coarsen_counts,
    uniform_cell_edges,
)
from repro.partition.gibbs import sample_partition_em
from repro.partition.equiwidth import equiwidth_partition
from repro.partition.partition import Partition
from repro.partition.voptimal import voptimal_partition
from repro.perf.costrows import LazySAECost, PrefixSSECost

__all__ = ["StructureFirst"]


class StructureFirst(Publisher):
    """Structure-then-noise histogram publisher.

    Parameters
    ----------
    k:
        Number of buckets.  ``None`` picks ``n // 8`` at publish time
        (:func:`~repro.core.kselect.default_bucket_count`).
    structure_fraction:
        Fraction of the budget spent on boundary selection
        (``eps_s = fraction * eps``); default 0.5 as in the paper's
        even split.  Must lie strictly inside (0, 1).
    score:
        Structure-quality cost: ``"sae"`` (default, sensitivity-1 L1
        v-optimality) or ``"sse"`` (L2 v-optimality with the
        ``count_cap`` sensitivity bound).  See the module docstring.
    count_cap:
        Public upper bound on any single bin count, used only by the
        ``"sse"`` score's sensitivity bound.  ``None`` uses the observed
        maximum count — acceptable when the rough data scale is public
        knowledge, but callers with a schema-level cap should pass it.
    structure_mode:
        ``"em"`` (default) — the paper's exponential-mechanism sampling.
        ``"uniform"`` — data-independent equi-width boundaries; costs no
        structure budget (the full budget goes to the counts).
        ``"oracle"`` — the true v-optimal partition, computed on the raw
        counts *without* privacy protection; NOT differentially private,
        provided only as the upper-bound arm of the ``abl_sf_sampling``
        ablation.
    max_cells:
        Big-n ceiling for the EM draw: above this many bins the
        partition is sampled over a data-independent uniform grid of at
        most ``max_cells`` super-cells and mapped back
        (:mod:`repro.partition.coarsen`) — same privacy guarantee,
        grid-aligned boundary support, ``k`` capped at the cell count.
        At or below the ceiling the draw is the exact sampler,
        bit-identical to the historical behaviour.
    """

    name = "structurefirst"

    _MODES = ("em", "uniform", "oracle")
    _SCORES = ("sae", "sse")

    def __init__(
        self,
        k: Optional[int] = None,
        structure_fraction: float = 0.5,
        score: str = "sae",
        count_cap: Optional[float] = None,
        structure_mode: str = "em",
        max_cells: int = COARSE_MAX_CELLS,
    ) -> None:
        if k is not None:
            check_integer(k, "k", minimum=1)
        check_in_range(structure_fraction, "structure_fraction", 0.0, 1.0,
                       inclusive=False)
        if score not in self._SCORES:
            raise ValueError(
                f"score must be one of {self._SCORES}, got {score!r}"
            )
        if count_cap is not None and count_cap < 0:
            raise ValueError(f"count_cap must be >= 0, got {count_cap}")
        if structure_mode not in self._MODES:
            raise ValueError(
                f"structure_mode must be one of {self._MODES}, "
                f"got {structure_mode!r}"
            )
        check_integer(max_cells, "max_cells", minimum=1)
        self.k = k
        self.structure_fraction = structure_fraction
        self.score = score
        self.count_cap = count_cap
        self.structure_mode = structure_mode
        self.max_cells = max_cells

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        n = histogram.size
        k = self.k if self.k is not None else default_bucket_count(n)
        k = min(k, n)

        if k == 1:
            # Single bucket: no structure to choose, all budget to the sum.
            partition = Partition.single_bucket(n)
            eps_structure = 0.0
        elif self.structure_mode == "uniform":
            # Data-independent structure: free under DP.
            partition = equiwidth_partition(n, k)
            eps_structure = 0.0
        elif self.structure_mode == "oracle":
            # NOT private: ablation upper bound only.
            partition, _sse = voptimal_partition(histogram.counts, k)
            eps_structure = 0.0
        else:
            eps_structure = accountant.total * self.structure_fraction
            with span("partition.em", n=n, k=k, score=self.score):
                partition = self._sample_structure(
                    histogram.counts, k, eps_structure, accountant, rng
                )
        eps_noise = accountant.remaining
        accountant.spend(eps_noise, purpose="laplace-noise-bucket-sums")

        with span("noise.bucket-sums", k=partition.k):
            sums = partition.bucket_sums(histogram.counts)
            widths = np.asarray(partition.bucket_sizes(), dtype=np.float64)
            noisy_sums = LaplaceMechanism(sensitivity=1.0).release(
                sums, eps_noise, rng=rng
            )
        with span("postprocess.broadcast", n=n):
            published = partition.broadcast(noisy_sums / widths)

        meta: Dict[str, Any] = {
            "k": partition.k,
            "partition": partition,
            "eps_structure": eps_structure,
            "eps_noise": eps_noise,
            "structure_mode": self.structure_mode,
            "score": self.score,
        }
        return published, meta

    def _sample_structure(
        self,
        counts: np.ndarray,
        k: int,
        eps_structure: float,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Partition:
        """One exact EM draw over the whole k-bucket partition space.

        The utility of a partition is its negated total cost (SAE by
        default); one record changes one count by 1, which changes
        exactly one bucket's cost — so the utility's sensitivity is the
        single-bucket cost sensitivity: exactly 1 for SAE, the
        ``count_cap`` bound for SSE.  The draw is performed with the
        soft-DP sampler (:func:`repro.partition.gibbs.sample_partition_em`),
        which realizes the exponential mechanism over all
        ``C(n-1, k-1)`` partitions exactly, in one spend of the full
        structure budget.

        Costs are streamed through the lazy cost-rows providers
        (:mod:`repro.perf.costrows`), so the draw peaks at ``O(n k)``
        memory — never the dense ``(n, n + 1)`` cost matrix.  Beyond
        ``max_cells`` bins the draw runs over the data-independent
        uniform grid (:mod:`repro.partition.coarsen`): the utility's
        sensitivity is computed on the coarsened counts (for the SSE
        score a cell aggregates up to cell-width capped bins, so the
        cap scales by the widest cell) and the sampled cell boundaries
        map back to bin indices.
        """
        n = len(counts)
        edges = None
        scored = counts
        if n > self.max_cells:
            edges = uniform_cell_edges(n, self.max_cells)
            scored = coarsen_counts(counts, edges)
            k = min(k, len(scored))

        if self.score == "sae":
            cost = LazySAECost(scored)
            sensitivity = 1.0
        else:
            cost = PrefixSSECost(scored)
            if self.count_cap is not None:
                cap = self.count_cap
                if edges is not None:
                    cap *= float(np.max(np.diff(edges)))
            else:
                cap = float(np.max(np.abs(scored)))
            sensitivity = sse_sensitivity_bound(cap)

        accountant.spend(eps_structure, purpose="em-structure")
        alpha = eps_structure / (2.0 * sensitivity)
        drawn = sample_partition_em(cost, k, alpha, rng=rng)
        if edges is None:
            return drawn
        return Partition(
            n=n, boundaries=tuple(int(edges[b]) for b in drawn.boundaries)
        )
