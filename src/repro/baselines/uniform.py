"""UniformFlat: the one-bucket sanity floor.

Spends the whole budget on the single total count and spreads the noisy
total uniformly over the bins.  Equivalent to StructureFirst with
``k = 1`` and no structure cost; included as the degenerate end of the
bucket-count spectrum (maximal approximation error, minimal noise).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import laplace_noise

__all__ = ["UniformFlat"]


class UniformFlat(Publisher):
    """Noisy total spread uniformly across the domain."""

    name = "uniform"

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        epsilon = accountant.total
        accountant.spend(accountant.total, purpose="laplace-noise-total")
        noisy_total = histogram.total + float(laplace_noise(epsilon, rng=rng)[0])
        published = np.full(histogram.size, noisy_total / histogram.size)
        return published, {"noisy_total": noisy_total}
