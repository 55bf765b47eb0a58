"""Privelet: Haar-wavelet noise with generalized sensitivity weighting.

Reimplementation of Xiao, Wang & Gehrke (ICDE 2010 / TKDE 2011) for
one-dimensional ordinal domains.  The count vector (zero-padded to a
power of two) is Haar-transformed; every coefficient receives Laplace
noise whose scale is *weighted by the coefficient's level*, and the noisy
transform is inverted.

Transform convention (averaging Haar):

* level ``l`` pairs up the level ``l-1`` averages: ``avg = (x + y)/2``
  and detail ``d = (x - y)/2``;
* the base coefficient is the grand mean.

Changing one leaf count by 1 changes the level-``l`` detail on its path
by ``2^-l`` and the base by ``1/m`` (``m`` = padded size).  With weights
``W(base) = m`` and ``W(detail at level l) = 2^(l-1)``, the *generalized
sensitivity* ``rho = sum W(c) |delta c| = 1 + log2(m)/2``; adding
``Lap(rho / (eps * W(c)))`` to each coefficient is ``eps``-DP (the
privacy loss factors across coefficients and telescopes to
``exp(rho / lambda) = exp(eps)``).

The reconstructed bins carry more noise than the identity baseline on
point queries (a leaf sums ``log m`` coefficient noises) but any range
query touches only ``O(log m)`` coefficients, which is why Privelet wins
on long ranges.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import laplace_noise
from repro.obs.trace import span

__all__ = ["Privelet", "haar_transform", "haar_inverse"]


def _padded_size(n: int) -> int:
    size = 1
    while size < n:
        size *= 2
    return size


def haar_transform(values: np.ndarray) -> Tuple[float, List[np.ndarray]]:
    """Averaging Haar transform.

    Returns ``(base, details)`` where ``details[l]`` holds the level
    ``l+1`` detail coefficients (level 1 = finest, length m/2; the last
    level has a single coefficient).  ``values`` must have power-of-two
    length.
    """
    arr = np.asarray(values, dtype=np.float64)
    m = len(arr)
    if m & (m - 1):
        raise ValueError(f"length must be a power of two, got {m}")
    details: List[np.ndarray] = []
    current = arr
    while len(current) > 1:
        pairs = current.reshape(-1, 2)
        details.append((pairs[:, 0] - pairs[:, 1]) / 2.0)
        current = pairs.mean(axis=1)
    return float(current[0]), details


def haar_inverse(base: float, details: List[np.ndarray]) -> np.ndarray:
    """Invert :func:`haar_transform` exactly."""
    current = np.array([base], dtype=np.float64)
    for detail in reversed(details):
        if len(detail) != len(current):
            raise ValueError(
                f"detail level of {len(detail)} coefficients cannot expand "
                f"{len(current)} averages"
            )
        expanded = np.empty(2 * len(current), dtype=np.float64)
        expanded[0::2] = current + detail
        expanded[1::2] = current - detail
        current = expanded
    return current


class Privelet(Publisher):
    """Haar-wavelet publisher with level-weighted Laplace noise."""

    name = "privelet"

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        n = histogram.size
        m = _padded_size(n)
        counts = np.zeros(m, dtype=np.float64)
        counts[:n] = histogram.counts

        epsilon = accountant.total
        accountant.spend(accountant.total, purpose="wavelet-coefficients")

        with span("transform.haar", m=m):
            base, details = haar_transform(counts)
        n_levels = len(details)  # log2(m)
        rho = 1.0 + n_levels / 2.0  # generalized sensitivity
        lam = rho / epsilon

        with span("noise.wavelet", levels=n_levels):
            noisy_base = base + float(
                laplace_noise(1.0, rng=rng)[0]) * (lam / m)
            noisy_details: List[np.ndarray] = []
            for idx, detail in enumerate(details):
                level = idx + 1
                weight = 2.0 ** (level - 1)
                noise = laplace_noise(
                    1.0, size=detail.shape, rng=rng) * (lam / weight)
                noisy_details.append(detail + noise)

        with span("postprocess.inverse", m=m):
            reconstructed = haar_inverse(noisy_base, noisy_details)
        meta = {
            "padded_size": m,
            "levels": n_levels,
            "generalized_sensitivity": rho,
        }
        return reconstructed[:n], meta
