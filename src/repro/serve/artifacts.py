"""Published artifacts: an immutable histogram plus its prefix sums.

Publishing is the expensive, budget-consuming step; answering queries
is free post-processing.  A :class:`PublishedArtifact` therefore
precomputes the length ``n + 1`` prefix-sum array once at publish time
so every point/range query afterwards is O(1), and freezes both arrays
(numpy ``writeable=False``) so the ThreadingHTTPServer's handler
threads can share one artifact with no locks and no torn reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.hist.ranges import prefix_sums
from repro.obs.trace import Stopwatch
from repro.serve.spec import ServeSpec

__all__ = ["PublishedArtifact", "publish_artifact"]


@dataclass(frozen=True)
class PublishedArtifact:
    """One published histogram, ready to answer count queries.

    ``counts`` is the sanitized (noisy) count vector; ``prefix`` its
    prefix sums (``prefix[j] = counts[:j].sum()``), so a half-open
    range ``[lo, hi)`` answers as ``prefix[hi] - prefix[lo]``.
    """

    spec: ServeSpec
    fingerprint: str
    counts: np.ndarray
    prefix: np.ndarray
    epsilon_spent: float
    publish_seconds: float
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.float64)
        counts.setflags(write=False)
        prefix = np.ascontiguousarray(self.prefix, dtype=np.float64)
        prefix.setflags(write=False)
        if len(prefix) != len(counts) + 1:
            raise ValueError(
                f"prefix has {len(prefix)} entries for {len(counts)} bins"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "prefix", prefix)

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def nbytes(self) -> int:
        """Approximate resident size (cache byte-bound accounting)."""
        return int(self.counts.nbytes + self.prefix.nbytes)

    def point(self, bin_index: int) -> float:
        """The published count of one bin."""
        if not 0 <= bin_index < self.n_bins:
            raise ValueError(
                f"bin {bin_index} outside domain of {self.n_bins} bins"
            )
        return float(self.counts[bin_index])

    def range(self, lo: int, hi: int) -> float:
        """Sum over the half-open bin range ``[lo, hi)``.

        ``lo == hi`` is the legal empty range (answer 0.0); ``hi`` may
        equal ``n_bins`` for the full-domain query.
        """
        if not 0 <= lo <= hi <= self.n_bins:
            raise ValueError(
                f"range [{lo}, {hi}) outside domain of {self.n_bins} bins"
            )
        return float(self.prefix[hi] - self.prefix[lo])


def publish_artifact(spec: ServeSpec) -> PublishedArtifact:
    """Run the spec's publisher once, deterministically.

    The random stream is ``np.random.default_rng(spec.seed)``, so the
    same spec always produces a bit-identical artifact — the anchor of
    the replay determinism guarantee (docs/serving.md).
    """
    publisher = spec.to_experiment_spec().publisher_factory()
    rng = np.random.default_rng(spec.seed)
    with Stopwatch() as sw:
        result = publisher.publish(spec.histogram(), spec.epsilon, rng)
    counts = result.histogram.counts
    return PublishedArtifact(
        spec=spec,
        fingerprint=spec.fingerprint(),
        counts=counts,
        prefix=prefix_sums(counts),
        epsilon_spent=float(result.epsilon_spent),
        publish_seconds=sw.seconds,
        meta={"publisher": getattr(publisher, "name", spec.publisher)},
    )
