"""Spatial publishers: identity, uniform grid, adaptive grid, quadtree.

All follow the 1-D :class:`~repro.core.Publisher` discipline — budgets
drawn through an :class:`~repro.accounting.Accountant`, seeded rngs,
``PublishResult2D`` carrying the ledger — but operate on
:class:`~repro.spatial.Histogram2D`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro._validation import check_integer
from repro.accounting.accountant import Accountant
from repro.core.publisher import audited_publish
from repro.mechanisms.laplace import laplace_noise
from repro.spatial.histogram2d import Histogram2D

__all__ = [
    "PublishResult2D",
    "Publisher2D",
    "Identity2D",
    "UniformGrid",
    "AdaptiveGrid",
    "QuadTree",
]


@dataclass(frozen=True)
class PublishResult2D:
    """Outcome of one 2-D publication (mirrors the 1-D PublishResult)."""

    histogram: Histogram2D
    accountant: Accountant
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def epsilon_spent(self) -> float:
        """Composed epsilon actually spent, from the ledger."""
        return self.accountant.spent


class Publisher2D(abc.ABC):
    """Base class for differentially private 2-D histogram publishers."""

    name: str = "publisher2d"

    def publish(
        self,
        histogram: Histogram2D,
        budget: float,
        rng: "np.random.Generator | int | None" = None,
    ) -> PublishResult2D:
        """Publish a sanitized version of ``histogram`` under ``budget``."""
        if not isinstance(histogram, Histogram2D):
            raise TypeError(
                f"histogram must be a Histogram2D, got {type(histogram).__name__}"
            )
        counts, accountant, meta = audited_publish(self, histogram, budget, rng)
        return PublishResult2D(
            histogram=histogram.with_counts(counts),
            accountant=accountant,
            meta=meta,
        )

    @abc.abstractmethod
    def _publish(
        self,
        histogram: Histogram2D,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Algorithm body: return (sanitized counts, metadata)."""


class Identity2D(Publisher2D):
    """Laplace noise on every cell — the 2-D Dwork baseline."""

    name = "identity2d"

    def _publish(self, histogram, accountant, rng):
        epsilon = accountant.total
        accountant.spend(accountant.total, purpose="laplace-noise-per-cell")
        noise = laplace_noise(epsilon, size=histogram.shape, rng=rng)
        return histogram.counts + noise, {}


def _grid_side(total: float, epsilon: float, c: float) -> int:
    """Qardaji et al.'s UG sizing rule: ``m = sqrt(N eps / c)``."""
    return max(1, int(round(math.sqrt(max(total, 1.0) * epsilon / c))))


def _block_edges(size: int, blocks: int) -> np.ndarray:
    """``blocks + 1`` integer edges splitting ``size`` cells evenly."""
    return np.linspace(0, size, blocks + 1).round().astype(int)


class UniformGrid(Publisher2D):
    """One coarse ``m x m`` grid; noisy block counts spread uniformly.

    ``m`` defaults to the Qardaji et al. (ICDE 2013) rule
    ``sqrt(N eps / c)`` with ``c = 10``, clamped to the data resolution.
    """

    name = "uniformgrid"

    def __init__(self, m: Optional[int] = None, c: float = 10.0) -> None:
        if m is not None:
            check_integer(m, "m", minimum=1)
        if c <= 0:
            raise ValueError(f"c must be > 0, got {c}")
        self.m = m
        self.c = c

    def _publish(self, histogram, accountant, rng):
        rows, cols = histogram.shape
        epsilon = accountant.total
        m = self.m if self.m is not None else _grid_side(
            histogram.total, epsilon, self.c
        )
        m_rows, m_cols = min(m, rows), min(m, cols)
        accountant.spend(accountant.total, purpose="laplace-noise-blocks")

        row_edges = _block_edges(rows, m_rows)
        col_edges = _block_edges(cols, m_cols)
        out = np.empty((rows, cols), dtype=np.float64)
        noise = laplace_noise(epsilon, size=(m_rows, m_cols), rng=rng)
        for i in range(m_rows):
            for j in range(m_cols):
                r0, r1 = row_edges[i], row_edges[i + 1]
                c0, c1 = col_edges[j], col_edges[j + 1]
                if r0 == r1 or c0 == c1:
                    continue
                block = histogram.counts[r0:r1, c0:c1]
                noisy = block.sum() + noise[i, j]
                out[r0:r1, c0:c1] = noisy / block.size
        return out, {"m_rows": m_rows, "m_cols": m_cols}


class AdaptiveGrid(Publisher2D):
    """Two-level adaptive grid (Qardaji et al.'s AG).

    Level 1: a coarse grid measured with ``alpha * eps``.  Level 2: each
    level-1 block is re-partitioned into ``m2 x m2`` sub-blocks with
    ``m2 = sqrt(max(noisy_count, 0) * (1-alpha) * eps / c2)``, measured
    with the remaining budget (parallel across blocks — they are
    disjoint).  Dense regions get finer resolution; empty regions are
    left coarse.
    """

    name = "adaptivegrid"

    def __init__(self, alpha: float = 0.5, c1: float = 10.0, c2: float = 5.0) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if c1 <= 0 or c2 <= 0:
            raise ValueError("c1 and c2 must be > 0")
        self.alpha = alpha
        self.c1 = c1
        self.c2 = c2

    def _publish(self, histogram, accountant, rng):
        rows, cols = histogram.shape
        eps_total = accountant.total
        eps1 = eps_total * self.alpha
        eps2 = eps_total - eps1

        m1 = min(_grid_side(histogram.total, eps1, self.c1), rows, cols)
        accountant.spend(eps1, purpose="level1-blocks")
        row_edges = _block_edges(rows, m1)
        col_edges = _block_edges(cols, m1)
        level1_noise = laplace_noise(eps1, size=(m1, m1), rng=rng)

        accountant.spend(eps2, purpose="level2-blocks",
                         parallel_group="level2")
        out = np.empty((rows, cols), dtype=np.float64)
        sub_blocks = 0
        for i in range(m1):
            for j in range(m1):
                r0, r1 = row_edges[i], row_edges[i + 1]
                c0, c1 = col_edges[j], col_edges[j + 1]
                if r0 == r1 or c0 == c1:
                    continue
                block = histogram.counts[r0:r1, c0:c1]
                noisy1 = float(block.sum() + level1_noise[i, j])
                m2 = max(
                    1,
                    int(round(math.sqrt(max(noisy1, 0.0) * eps2 / self.c2))),
                )
                m2 = min(m2, r1 - r0, c1 - c0)
                sub_rows = _block_edges(r1 - r0, m2)
                sub_cols = _block_edges(c1 - c0, m2)
                noise2 = laplace_noise(eps2, size=(m2, m2), rng=rng)
                for a in range(m2):
                    for b in range(m2):
                        sr0, sr1 = r0 + sub_rows[a], r0 + sub_rows[a + 1]
                        sc0, sc1 = c0 + sub_cols[b], c0 + sub_cols[b + 1]
                        if sr0 == sr1 or sc0 == sc1:
                            continue
                        sub = histogram.counts[sr0:sr1, sc0:sc1]
                        noisy2 = sub.sum() + noise2[a, b]
                        out[sr0:sr1, sc0:sc1] = noisy2 / sub.size
                        sub_blocks += 1
        return out, {"m1": m1, "sub_blocks": sub_blocks,
                     "eps1": eps1, "eps2": eps2}


class QuadTree(Publisher2D):
    """Fixed-depth quadtree: each level measured with ``eps / depth``.

    The grid is recursively split in four; every node's count is
    measured (levels compose sequentially, nodes within a level in
    parallel) and the leaves are published, each leaf's noisy count
    spread uniformly over its cells.  Internal measurements refine the
    leaves with a simple top-down proportional correction.
    """

    name = "quadtree"

    def __init__(self, depth: int = 4) -> None:
        check_integer(depth, "depth", minimum=1)
        self.depth = depth

    def _publish(self, histogram, accountant, rng):
        rows, cols = histogram.shape
        eps_level = accountant.total / self.depth
        out = np.zeros((rows, cols), dtype=np.float64)

        # Iterative breadth-first split; regions as (r0, r1, c0, c1, est).
        accountant.spend(eps_level, purpose="level-0", parallel_group="l0")
        root_sum = histogram.counts.sum() + float(
            laplace_noise(eps_level, rng=rng)[0]
        )
        regions = [(0, rows, 0, cols, root_sum)]
        for level in range(1, self.depth):
            accountant.spend(eps_level, purpose=f"level-{level}",
                             parallel_group=f"l{level}")
            next_regions = []
            for r0, r1, c0, c1, parent_est in regions:
                if (r1 - r0) <= 1 and (c1 - c0) <= 1:
                    next_regions.append((r0, r1, c0, c1, parent_est))
                    continue
                rm = (r0 + r1) // 2 if r1 - r0 > 1 else r1
                cm = (c0 + c1) // 2 if c1 - c0 > 1 else c1
                quads = [
                    (r0, rm, c0, cm), (r0, rm, cm, c1),
                    (rm, r1, c0, cm), (rm, r1, cm, c1),
                ]
                quads = [q for q in quads if q[0] < q[1] and q[2] < q[3]]
                noisy = []
                for (qr0, qr1, qc0, qc1) in quads:
                    true_sum = histogram.counts[qr0:qr1, qc0:qc1].sum()
                    noisy.append(
                        true_sum + float(laplace_noise(eps_level, rng=rng)[0])
                    )
                # Proportional consistency: clamp the children at zero
                # (free post-processing) and rescale them to the parent's
                # estimate.  When the clamped children carry no mass the
                # rescale is ill-conditioned, so fall back to splitting
                # the parent by area.
                clamped = [max(v, 0.0) for v in noisy]
                parent_est = max(parent_est, 0.0)
                child_total = sum(clamped)
                if child_total > 1e-9:
                    for (quad, est) in zip(quads, clamped):
                        next_regions.append(
                            (*quad, est * parent_est / child_total)
                        )
                else:
                    total_area = sum(
                        (q[1] - q[0]) * (q[3] - q[2]) for q in quads
                    )
                    for quad in quads:
                        area = (quad[1] - quad[0]) * (quad[3] - quad[2])
                        next_regions.append(
                            (*quad, parent_est * area / total_area)
                        )
            regions = next_regions

        for r0, r1, c0, c1, est in regions:
            out[r0:r1, c0:c1] = est / ((r1 - r0) * (c1 - c0))
        return out, {"depth": self.depth, "leaves": len(regions)}
