"""NoiseFirst (Xu et al., ICDE 2012).

NoiseFirst spends the *entire* budget adding ``Lap(1/eps)`` to every bin,
then — as pure post-processing, which costs no additional privacy —
merges the noisy bins into the ``k*``-bucket v-optimal histogram of the
*noisy* counts, where ``k*`` minimizes the Cp-style error estimate from
:mod:`repro.core.kselect`.  Because smoothing happens after noising, the
merge averages out independent noise draws: a bucket of ``b`` bins has
per-bin noise variance ``2/(b eps^2)`` instead of ``2/eps^2``.

NoiseFirst is the short-query specialist: point queries and short ranges
benefit from the averaging, but long ranges still accumulate one noise
term per bucket crossed, so the structure-aware publishers win there
(see ``fig_range_vs_len``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro._validation import check_integer
from repro.accounting.accountant import Accountant
from repro.core.kselect import identity_error_estimate, noise_first_error_estimates
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.sensitivity import histogram_sensitivity
from repro.obs.trace import span
from repro.partition.voptimal import voptimal_table

__all__ = ["NoiseFirst"]

#: Cap on how many bucket counts the adaptive search evaluates; the DP is
#: O(n^2 k) so unbounded k would make wide domains quadratic-cubic.
_DEFAULT_MAX_K = 128


class NoiseFirst(Publisher):
    """Noise-then-structure histogram publisher.

    Parameters
    ----------
    k:
        Fixed number of buckets.  ``None`` (default) selects ``k*``
        adaptively from the noisy data.
    max_k:
        Upper limit of the adaptive search (ignored when ``k`` is fixed).
    neighbours:
        Neighbouring-dataset convention; controls the Laplace sensitivity
        (1 for ``"unbounded"``, 2 for ``"bounded"``).
    kernel:
        DP engine for the post-processing v-optimal merge
        (:data:`repro.perf.kernels.KERNELS`); ``None`` means ``auto``.
        Noisy counts are unsorted, so the exact blocked kernel is the
        effective engine — see ``docs/performance.md``.
    """

    name = "noisefirst"

    def __init__(
        self,
        k: Optional[int] = None,
        max_k: int = _DEFAULT_MAX_K,
        neighbours: str = "unbounded",
        kernel: Optional[str] = None,
    ) -> None:
        if k is not None:
            check_integer(k, "k", minimum=1)
        check_integer(max_k, "max_k", minimum=1)
        self.k = k
        self.max_k = max_k
        self.sensitivity = histogram_sensitivity(neighbours)
        self.neighbours = neighbours
        self.kernel = kernel

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        n = histogram.size
        epsilon = accountant.total
        accountant.spend(accountant.total, purpose="laplace-noise-per-bin")

        mech = LaplaceMechanism(sensitivity=self.sensitivity)
        with span("noise.perbin", n=n):
            noisy = mech.release(histogram.counts, epsilon, rng=rng)

        # Everything below is post-processing of `noisy` only.
        if self.k is not None:
            k_limit = min(self.k, n)
            with span("partition.dp", n=n, k=k_limit, kernel=self.kernel):
                table = voptimal_table(noisy, k_limit, kernel=self.kernel)
            chosen_k = k_limit
            estimates = None
        else:
            k_limit = min(self.max_k, n)
            with span("partition.dp", n=n, k=k_limit, kernel=self.kernel):
                table = voptimal_table(noisy, k_limit, kernel=self.kernel)
            estimates = noise_first_error_estimates(table, epsilon)
            chosen_k = int(np.argmin(estimates[1:]) + 1)
            # Publishing the raw noisy counts is the k = n member of the
            # family; include it in the comparison when n > k_limit.
            if n > k_limit and identity_error_estimate(n, epsilon) < float(
                estimates[chosen_k]
            ):
                chosen_k = n

        with span("postprocess.merge", k=chosen_k):
            if chosen_k == n:
                published = noisy
                partition = None
            else:
                partition = table.partition_for(chosen_k)
                published = partition.apply_means(noisy)

        meta: Dict[str, Any] = {
            "k": chosen_k,
            "adaptive": self.k is None,
            "partition": partition,
            "neighbours": self.neighbours,
            "noisy_sse_by_k": None if estimates is None else table.sse_by_k.copy(),
            "error_estimates": estimates,
        }
        return published, meta
