"""The Dwork baseline: independent Laplace noise on every bin.

The original calibrated-noise mechanism (Dwork, McSherry, Nissim & Smith,
TCC 2006) applied to a histogram: the count vector has L1 sensitivity 1
under unbounded neighbours, so ``Lap(1/eps)`` per bin is ``eps``-DP.
Optimal for a single point query; pays ``O(L)`` variance on a range of
length ``L``.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.sensitivity import histogram_sensitivity

__all__ = ["DworkIdentity"]


class DworkIdentity(Publisher):
    """Per-bin Laplace noise with the full budget."""

    name = "dwork"

    def __init__(self, neighbours: str = "unbounded") -> None:
        self.sensitivity = histogram_sensitivity(neighbours)
        self.neighbours = neighbours

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        epsilon = accountant.total
        accountant.spend(accountant.total, purpose="laplace-noise-per-bin")
        mech = LaplaceMechanism(sensitivity=self.sensitivity)
        noisy = mech.release(histogram.counts, epsilon, rng=rng)
        return noisy, {"noise_variance": mech.variance(epsilon),
                       "neighbours": self.neighbours}
