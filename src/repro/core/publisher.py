"""The :class:`Publisher` interface every algorithm implements.

A publisher turns a true :class:`~repro.hist.Histogram` plus a privacy
budget ε into a sanitized histogram.  The base class owns the
boilerplate — budget check, accountant creation, rng coercion,
post-release audit that the spend stays within the grant — so each
algorithm only implements ``_publish``.  :func:`audited_publish` is that
boilerplate, shared with the 2-D publishers of :mod:`repro.spatial`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from repro._validation import as_rng, check_positive
from repro.accounting.accountant import EPS_TOL, Accountant
from repro.exceptions import ReproError
from repro.hist.histogram import Histogram

__all__ = ["PublishResult", "Publisher", "audited_publish"]


@dataclass(frozen=True)
class PublishResult:
    """Outcome of one publication.

    Attributes
    ----------
    histogram:
        The sanitized histogram (same domain as the input).
    accountant:
        The accountant used for the release; its ledger documents every
        budget spend the algorithm made.
    meta:
        Algorithm-specific details (chosen bucket count, partition,
        budget split, ...), for diagnostics and the benches.
    """

    histogram: Histogram
    accountant: Accountant
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def epsilon_spent(self) -> float:
        """Composed epsilon actually spent, from the ledger."""
        return self.accountant.spent


def audited_publish(
    publisher: Any,
    histogram: Any,
    budget: float,
    rng: "np.random.Generator | int | None",
) -> Tuple[np.ndarray, Accountant, Dict[str, Any]]:
    """Run ``publisher._publish`` on a fresh accountant and audit it.

    Checks that ``budget`` is a finite ε > 0, hands the algorithm an
    accountant for it and a generator from ``rng``, then checks that the
    counts it returns match ``histogram``'s shape and that its ledger
    stays within ``budget``.  Returns ``(counts, accountant, meta)``.
    """
    epsilon = check_positive(budget, "budget")
    accountant = Accountant(epsilon)
    counts, meta = publisher._publish(histogram, accountant, as_rng(rng))
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != histogram.counts.shape:
        raise ReproError(
            f"{publisher.name}: published {counts.shape} counts for a "
            f"{histogram.counts.shape} histogram"
        )
    spent = accountant.spent
    if spent > epsilon + EPS_TOL:
        raise ReproError(
            f"{publisher.name}: ledger shows overspend "
            f"({spent:g} > {epsilon:g})"
        )
    return counts, accountant, meta


class Publisher(abc.ABC):
    """Base class for differentially private histogram publishers."""

    #: Short stable identifier used in benches and result tables.
    name: str = "publisher"

    def publish(
        self,
        histogram: Histogram,
        budget: float,
        rng: "np.random.Generator | int | None" = None,
    ) -> PublishResult:
        """Publish a sanitized version of ``histogram`` under ``budget``.

        Parameters
        ----------
        histogram:
            The true histogram (never mutated).
        budget:
            Total privacy budget ε (> 0).
        rng:
            Numpy generator / int seed / None.

        Returns
        -------
        PublishResult
            Sanitized histogram, spend ledger, and algorithm metadata.
        """
        if not isinstance(histogram, Histogram):
            raise TypeError(
                f"histogram must be a Histogram, got {type(histogram).__name__}"
            )
        counts, accountant, meta = audited_publish(self, histogram, budget, rng)
        sanitized = Histogram(domain=histogram.domain, counts=counts)
        return PublishResult(histogram=sanitized, accountant=accountant, meta=meta)

    @abc.abstractmethod
    def _publish(
        self,
        histogram: Histogram,
        accountant: Accountant,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Algorithm body: return (sanitized counts, metadata).

        Implementations must draw every budget spend through
        ``accountant.spend`` — the base class audits the total.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
