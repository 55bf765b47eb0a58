"""MWEM: multiplicative weights + exponential mechanism.

Reimplementation of Hardt, Ligett & McSherry (NIPS 2012), specialized to
range-count workloads over one-dimensional histograms.  MWEM maintains a
synthetic distribution (initially uniform, scaled to the data total) and
for ``T`` rounds (i) selects the workload query the synthetic answers
worst, via the exponential mechanism, (ii) measures that query with
Laplace noise, and (iii) nudges the synthetic distribution toward the
measurement with a multiplicative-weights update.

Budget: ``eps/T`` per round, half to selection, half to measurement.

The total count is treated as public (the usual convention for MWEM);
pass ``public_total`` to override, e.g. with a separately noised total.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro._validation import check_integer
from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher
from repro.hist.histogram import Histogram
from repro.mechanisms.exponential import gumbel_argmax
from repro.mechanisms.laplace import laplace_noise
from repro.workloads.builders import random_ranges
from repro.workloads.workload import Workload

__all__ = ["Mwem"]


class Mwem(Publisher):
    """Workload-driven iterative publisher.

    Parameters
    ----------
    workload:
        The range queries to optimize for.  ``None`` defaults to 200
        random ranges (seeded) built at publish time.
    rounds:
        Number of measure-update iterations ``T`` (default 10).
    public_total:
        Known total count; ``None`` uses the data total (documented
        convention).
    """

    name = "mwem"

    def __init__(
        self,
        workload: Optional[Workload] = None,
        rounds: int = 10,
        public_total: Optional[float] = None,
    ) -> None:
        check_integer(rounds, "rounds", minimum=1)
        self.workload = workload
        self.rounds = rounds
        self.public_total = public_total

    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        n = histogram.size
        workload = self.workload
        if workload is None:
            workload = random_ranges(n, count=min(200, n * (n + 1) // 2), rng=0)
        if workload.n != n:
            raise ValueError(
                f"workload built for {workload.n} bins, histogram has {n}"
            )
        total = (
            float(self.public_total)
            if self.public_total is not None
            else histogram.total
        )
        total = max(total, 1.0)

        true_answers = workload.evaluate(histogram)
        synthetic = np.full(n, total / n, dtype=np.float64)
        eps_round = accountant.total / self.rounds
        eps_select = eps_round / 2.0
        eps_measure = eps_round / 2.0

        # Precompute query index masks once; updates need them densely.
        masks = np.zeros((len(workload), n), dtype=np.float64)
        for i, q in enumerate(workload):
            masks[i, q.lo : q.hi + 1] = 1.0

        measured: Dict[int, float] = {}
        for t in range(self.rounds):
            synth_answers = masks @ synthetic
            scores = np.abs(true_answers - synth_answers)
            accountant.spend(eps_select, purpose=f"mwem-select-{t}")
            # Score sensitivity is 1: one record changes one true answer
            # by at most 1 and no synthetic answer.
            q_idx = gumbel_argmax(scores, eps_select, sensitivity=1.0, rng=rng)

            accountant.spend(eps_measure, purpose=f"mwem-measure-{t}")
            noisy = float(true_answers[q_idx]) + float(
                laplace_noise(eps_measure, rng=rng)[0]
            )
            measured[q_idx] = noisy

            # Multiplicative weights: push mass toward underestimated
            # regions.  The exponent is scaled by the total so the update
            # rate is shape-, not volume-, dependent.
            error = noisy - float(masks[q_idx] @ synthetic)
            synthetic *= np.exp(masks[q_idx] * error / (2.0 * total))
            synthetic *= total / synthetic.sum()

        meta = {
            "rounds": self.rounds,
            "workload_size": len(workload),
            "measured_queries": len(measured),
            "public_total": total,
        }
        return synthetic, meta
