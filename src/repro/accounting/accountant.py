"""The :class:`Accountant`: enforced budget withdrawal.

An accountant is created with a total ε and hands out spends until the
budget is exhausted, raising
:class:`~repro.exceptions.BudgetExceededError` on overdraft.  Publishers
receive an accountant rather than a raw epsilon so their composition is
checked, not merely asserted in a docstring.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro._validation import check_non_negative
from repro.accounting.ledger import Ledger, SpendRecord
from repro.exceptions import BudgetExceededError

__all__ = ["EPS_TOL", "Accountant"]

# Tolerance for floating-point budget comparisons.  Splitting epsilon into
# k parts and re-summing must not spuriously trip the overspend check.
EPS_TOL = 1e-9


class Accountant:
    """Tracks and enforces ε spends against a fixed total.

    The overdraft check, the ledger append and the read of what remains
    are atomic under an internal lock, so concurrent spenders (e.g. the
    query service's per-request handler threads debiting one tenant)
    can never race two debits past the total: sequential composition
    holds even when the spends themselves are issued in parallel.

    Example
    -------
    >>> acc = Accountant(1.0)
    >>> acc.spend(0.4, purpose="structure")
    0.6
    >>> acc.spent
    0.4
    """

    def __init__(self, total: float) -> None:
        self._total = check_non_negative(total, "total")
        self._ledger = Ledger()
        self._lock = threading.Lock()

    @property
    def total(self) -> float:
        """The ε this accountant was created with."""
        return self._total

    @property
    def ledger(self) -> Ledger:
        """The append-only spend ledger."""
        return self._ledger

    @property
    def spent(self) -> float:
        """Composed ε spent so far."""
        with self._lock:
            return self._ledger.total()

    @property
    def remaining(self) -> float:
        """ε still available (never negative)."""
        with self._lock:
            return max(self._total - self._ledger.total(), 0.0)

    def spend(
        self,
        epsilon: float,
        purpose: str,
        parallel_group: Optional[str] = None,
    ) -> float:
        """Withdraw ``epsilon``; raise :class:`BudgetExceededError` on overdraft.

        Returns the ε that remains after this spend, read under the same
        lock as the check, so no other spend can land in between.
        """
        epsilon = check_non_negative(epsilon, "epsilon")
        with self._lock:
            projected = self._ledger.total_with(epsilon, parallel_group)
            if projected > self._total + EPS_TOL:
                raise BudgetExceededError(
                    requested=epsilon,
                    remaining=max(self._total - self._ledger.total(), 0.0),
                )
            self._ledger.append(SpendRecord(epsilon, purpose, parallel_group))
            return max(self._total - projected, 0.0)

    def __repr__(self) -> str:
        return (
            f"Accountant(total={self._total:g}, spent={self.spent:g}, "
            f"records={len(self._ledger)})"
        )
