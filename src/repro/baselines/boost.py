"""Boost: hierarchical interval measurements with consistency.

Reimplementation of Hay, Rastogi, Miklau & Suciu (VLDB 2010).  A full
``b``-ary tree of interval sums is built over the (zero-padded) domain;
every level gets an equal share ``eps/height`` of the budget (within one
level the nodes partition the data, so they compose in parallel); each
node's interval sum is measured with ``Lap(height/eps)``-scale noise.
The noisy tree is then made *consistent* — every parent equal to the sum
of its children — with Hay et al.'s exact two-pass weighted least squares:

1. **Bottom-up** (weighted averaging): for an internal node of height
   ``l`` (leaves have ``l = 1``),

       z[v] = (b^l - b^(l-1)) / (b^l - 1) * y[v]
            + (b^(l-1) - 1)  / (b^l - 1) * sum_children z

   which is the inverse-variance-optimal combination of the node's own
   measurement and its children's subtree estimates.
2. **Top-down** (mean consistency):

       h[root] = z[root]
       h[u] = z[u] + (1/b) * (h[parent] - sum_siblings z)

The leaves of ``h`` are the published counts.  Consistency is exact (the
leaves sum to the root) and never hurts: it is an orthogonal projection
of the noisy measurements onto the consistent subspace.

Range queries over the published leaves inherit the tree's
``O(log^3 n)``-variance behaviour, which is why Boost dominates the
identity baseline on long ranges.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro._validation import check_integer
from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import laplace_noise
from repro.obs.trace import span

__all__ = ["Boost", "build_tree_sums", "consistent_leaves"]


def _padded_size(n: int, branching: int) -> int:
    """Smallest power of ``branching`` that is >= n."""
    size = 1
    while size < n:
        size *= branching
    return size


def build_tree_sums(counts: np.ndarray, branching: int) -> List[np.ndarray]:
    """Level-by-level interval sums, leaves first, root last.

    ``counts`` must already have power-of-``branching`` length.  Level
    ``i`` has ``len(counts) / branching**i`` nodes.
    """
    levels = [np.asarray(counts, dtype=np.float64)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(prev.reshape(-1, branching).sum(axis=1))
    return levels


def consistent_leaves(
    noisy_levels: List[np.ndarray], branching: int
) -> np.ndarray:
    """Hay et al. two-pass least-squares consistency; returns the leaves."""
    b = branching
    n_levels = len(noisy_levels)

    # Bottom-up pass: z has the same shape as noisy_levels.
    z: List[np.ndarray] = [noisy_levels[0].copy()]
    for level in range(1, n_levels):
        l = level + 1  # height: leaves are height 1
        child_sums = z[level - 1].reshape(-1, b).sum(axis=1)
        w_self = (b**l - b ** (l - 1)) / (b**l - 1)
        w_kids = (b ** (l - 1) - 1) / (b**l - 1)
        z.append(w_self * noisy_levels[level] + w_kids * child_sums)

    # Top-down pass.
    h: List[np.ndarray] = [None] * n_levels  # type: ignore[list-item]
    h[n_levels - 1] = z[n_levels - 1].copy()
    for level in range(n_levels - 2, -1, -1):
        parent_h = h[level + 1]
        groups = z[level].reshape(-1, b)
        sibling_sums = groups.sum(axis=1)
        adjust = (parent_h - sibling_sums) / b
        h[level] = (groups + adjust[:, None]).reshape(-1)
    return h[0]


class Boost(Publisher):
    """Hierarchical-intervals publisher with least-squares consistency.

    Parameters
    ----------
    branching:
        Tree fan-out ``b`` (default 2, the paper's main configuration).
    consistency:
        Disable to publish the raw noisy leaves of the tree (used by the
        ``abl_consistency`` ablation); on by default.
    """

    name = "boost"

    def __init__(self, branching: int = 2, consistency: bool = True) -> None:
        check_integer(branching, "branching", minimum=2)
        self.branching = branching
        self.consistency = bool(consistency)

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        n = histogram.size
        b = self.branching
        padded = _padded_size(n, b)
        counts = np.zeros(padded, dtype=np.float64)
        counts[:n] = histogram.counts

        levels = build_tree_sums(counts, b)
        height = len(levels)
        eps_level = accountant.total / height
        noisy_levels: List[np.ndarray] = []
        with span("noise.tree", height=height, branching=b):
            for i, level in enumerate(levels):
                # Nodes within one level partition the domain: parallel
                # composition inside the level, sequential across levels.
                accountant.spend(
                    eps_level, purpose=f"tree-level-{i}",
                    parallel_group=f"level-{i}",
                )
                noise = laplace_noise(eps_level, size=level.shape, rng=rng)
                noisy_levels.append(level + noise)

        with span("postprocess.consistency", enabled=self.consistency):
            if self.consistency:
                leaves = consistent_leaves(noisy_levels, b)
            else:
                leaves = noisy_levels[0]
        meta = {
            "branching": b,
            "height": height,
            "padded_size": padded,
            "eps_per_level": eps_level,
            "consistency": self.consistency,
        }
        return leaves[:n], meta
