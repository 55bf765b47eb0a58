"""RangeEngine: answer range queries on a release, with error bars.

A :class:`~repro.core.PublishResult` carries enough metadata (the
publisher's structure and budget split) to attach *closed-form noise
standard deviations* to every range answer — no extra privacy cost,
since both the release and its parameters are already public.  The
engine recognizes the structures of NoiseFirst / StructureFirst /
DworkIdentity (via the metadata each leaves behind) and falls back to
"no error bar" for publishers whose noise law it cannot reconstruct.

The laws are the range variances of :mod:`repro.verify.oracles`,
summed per bucket in ``O(k)``: an oracle holds the full ``n x n``
covariance, which no query path can afford at large ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.publisher import PublishResult
from repro.hist.ranges import RangeQuery
from repro.mechanisms.sensitivity import contract_sensitivity
from repro.partition.partition import Partition

__all__ = ["RangeAnswer", "RangeEngine"]


@dataclass(frozen=True)
class RangeAnswer:
    """A range estimate with its noise standard deviation (if known).

    ``std`` covers *noise only* — the publisher's approximation bias is
    data-dependent and cannot be disclosed without spending budget.
    """

    query: RangeQuery
    estimate: float
    std: Optional[float]

    def interval(self, z: float = 1.96) -> "tuple[float, float] | None":
        """Symmetric ``z``-sigma interval around the estimate, if a
        noise law is known."""
        if self.std is None:
            return None
        return (self.estimate - z * self.std, self.estimate + z * self.std)

    def __str__(self) -> str:
        if self.std is None:
            return f"{self.query}: {self.estimate:.2f}"
        return f"{self.query}: {self.estimate:.2f} ± {self.std:.2f}"


class RangeEngine:
    """Query interface over one published histogram."""

    def __init__(self, result: PublishResult) -> None:
        if not isinstance(result, PublishResult):
            raise TypeError(
                f"result must be a PublishResult, got {type(result).__name__}"
            )
        self._result = result
        self._histogram = result.histogram

    @property
    def has_error_model(self) -> bool:
        """True when the engine can attach noise std to answers."""
        return self._noise_variance(RangeQuery(0, 0)) is not None

    def range(self, lo: int, hi: int) -> RangeAnswer:
        """Answer the inclusive range ``[lo, hi]`` with an error bar."""
        query = RangeQuery(lo, hi)
        query.validate_for(self._histogram.size)
        estimate = self._histogram.range_sum(lo, hi)
        variance = self._noise_variance(query)
        std = math.sqrt(variance) if variance is not None else None
        return RangeAnswer(query=query, estimate=estimate, std=std)

    def total(self) -> RangeAnswer:
        """The full-domain total with its error bar."""
        return self.range(0, self._histogram.size - 1)

    def _noise_variance(self, query: RangeQuery) -> Optional[float]:
        """Noise variance of a range sum, reconstructed from metadata."""
        meta = self._result.meta
        epsilon = self._result.accountant.total
        partition = meta.get("partition")

        if "eps_noise" in meta and isinstance(partition, Partition):
            # StructureFirst: one Lap(1/eps_n) per bucket sum, shared by
            # the bucket's w_B bins, so a range over m_B of them carries
            # (m_B / w_B)^2 * 2/eps_n^2.
            eps_noise = meta["eps_noise"]
            sigma2 = 2.0 / (eps_noise * eps_noise)
            total = 0.0
            for overlap, width in _overlaps(partition, query):
                total += (overlap / width) ** 2 * sigma2
            return total
        if "adaptive" in meta:
            # NoiseFirst: every bin of bucket B publishes the mean of w_B
            # Lap(sens/eps) draws, one shared noise of variance
            # sigma2/w_B with sigma2 = 2 sens^2/eps^2, so a range over m_B
            # of them carries m_B^2 * sigma2/w_B.  With no partition
            # (k = n) this is the identity law.  sens is 1 under the
            # recorded unbounded neighbours and 2 under bounded ones.
            sens = contract_sensitivity(meta)
            sigma2 = 2.0 / (epsilon * epsilon) * sens * sens
            if partition is None:
                return query.length * sigma2
            total = 0.0
            for overlap, width in _overlaps(partition, query):
                total += (overlap**2) * sigma2 / width
            return total
        if "noise_variance" in meta:
            # DworkIdentity: independent per-bin noise, 2/eps^2 a bin at
            # sensitivity 1, scaled to the variance the publish recorded
            # (4x under bounded neighbours).
            return query.length * (2.0 * (1.0 / epsilon) ** 2) * (
                meta["noise_variance"] / (2.0 / epsilon**2)
            )
        return None


def _overlaps(partition: Partition, query: RangeQuery):
    """``(overlap, width)`` of every bucket the range touches."""
    for start, stop in partition.buckets():
        overlap = min(query.hi + 1, stop) - max(query.lo, start)
        if overlap > 0:
            yield overlap, stop - start
