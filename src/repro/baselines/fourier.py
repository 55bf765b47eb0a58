"""EFPA-style Fourier publisher: lossy spectral compression + noise.

Inspired by Ács, Castelluccia & Chen (ICDM 2012).  The count vector is
orthonormally DFT-transformed; only the ``k`` lowest-frequency
coefficients are kept, noised, and inverted.  Dropping the tail trades
approximation error (spectral leakage) against noise error (fewer
coefficients to protect) — the Fourier analogue of bucket merging.

Budget split: ``select_fraction`` of eps chooses ``k`` with the
exponential mechanism (utility = the negated error estimate below); the
rest noises the retained coefficients.

Because the orthonormal DFT is an isometry, one record changes the
coefficient vector by L2 at most 1, so the L1 change over ``k`` retained
coefficients is at most ``sqrt(k)``: the retained (complex) coefficients
get ``Lap(sqrt(k)/eps_noise)`` per real component, covering the worst
case of both components.  The utility's sensitivity is data-dependent
through the spectrum energy; as with StructureFirst we bound it with a
public ``count_cap`` (see DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro._validation import check_in_range
from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.exponential import gumbel_argmax
from repro.mechanisms.laplace import laplace_noise

__all__ = ["FourierPublisher"]


class FourierPublisher(Publisher):
    """Keep-the-head Fourier publisher (EFPA-style)."""

    name = "fourier"

    def __init__(
        self,
        select_fraction: float = 0.2,
        count_cap: Optional[float] = None,
    ) -> None:
        check_in_range(select_fraction, "select_fraction", 0.0, 1.0,
                       inclusive=False)
        self.select_fraction = select_fraction
        self.count_cap = count_cap

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        counts = histogram.counts
        n = histogram.size
        eps_total = accountant.total
        eps_select = eps_total * self.select_fraction
        eps_noise = eps_total - eps_select

        spectrum = np.fft.rfft(counts, norm="ortho")
        n_coeffs = len(spectrum)
        energy = np.abs(spectrum) ** 2
        tail_energy = energy.sum() - np.cumsum(energy)  # dropped when k=i+1

        # Estimated squared error of keeping k coefficients:
        # spectral leakage (tail energy) + Laplace noise on 2k real
        # components at scale sqrt(k)/eps_noise.
        ks = np.arange(1, n_coeffs + 1, dtype=np.float64)
        noise_var = 2.0 * (np.sqrt(ks) / eps_noise) ** 2 * (2.0 * ks)
        estimates = tail_energy + noise_var
        scores = -estimates

        cap = self.count_cap if self.count_cap is not None else float(
            np.max(np.abs(counts))
        )
        # |Delta energy| <= 2*||c||_2 + 1 <= 2*cap*sqrt(n) + 1 in the
        # worst case; the cap keeps the EM calibrated without touching
        # private data beyond the declared bound.
        utility_sensitivity = 2.0 * cap * np.sqrt(n) + 1.0

        accountant.spend(eps_select, purpose="em-select-k")
        k = 1 + gumbel_argmax(scores, eps_select, utility_sensitivity, rng=rng)

        accountant.spend(eps_noise, purpose="laplace-noise-coefficients")
        scale = np.sqrt(k) / eps_noise
        kept = spectrum[:k].copy()
        kept.real += laplace_noise(1.0, size=k, rng=rng) * scale
        kept.imag += laplace_noise(1.0, size=k, rng=rng) * scale
        truncated = np.zeros_like(spectrum)
        truncated[:k] = kept
        reconstructed = np.fft.irfft(truncated, n=n, norm="ortho")

        meta = {"k": int(k), "n_coefficients": n_coeffs, "eps_noise": eps_noise}
        return reconstructed, meta
