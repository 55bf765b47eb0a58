"""Per-tenant ε-budget ledgers for the query service.

Every tenant of the service owns an :class:`~repro.accounting.Accountant`
with a fixed total budget.  The service debits it once per *answered*
query (see docs/serving.md for the worst-case accounting rationale);
an overdraft raises :class:`~repro.exceptions.BudgetExceededError`,
which the HTTP layer maps to a 429-style refusal.  The accountant
itself is thread-safe (check-and-append is atomic), so concurrent
requests can never double-spend a tenant past its ε.  A charge adds to
the accountant's running total, so its cost does not grow with the
tenant's ledger.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.accounting.accountant import EPS_TOL, Accountant

__all__ = ["TenantLedgers"]


class TenantLedgers:
    """A registry of tenant accountants, created on first touch.

    ``register`` with an explicit budget is idempotent for an equal
    budget and a :class:`ValueError` for a conflicting one — a tenant's
    ε cap is a promise, not a mutable setting.
    """

    def __init__(self, default_budget: float = 100.0) -> None:
        if default_budget <= 0:
            raise ValueError(
                f"default_budget must be > 0, got {default_budget}"
            )
        self.default_budget = float(default_budget)
        self._lock = threading.Lock()
        self._accountants: Dict[str, Accountant] = {}
        self._queries: Dict[str, int] = {}

    @staticmethod
    def _check_name(name: str) -> str:
        if not isinstance(name, str) or not name.strip():
            raise ValueError("tenant name must be a non-empty string")
        return name

    def register(
        self, name: str, budget: Optional[float] = None
    ) -> Accountant:
        """Create (or fetch) the tenant's accountant."""
        name = self._check_name(name)
        total = self.default_budget if budget is None else float(budget)
        if total <= 0:
            raise ValueError(f"tenant budget must be > 0, got {budget}")
        with self._lock:
            existing = self._accountants.get(name)
            if existing is not None:
                if budget is not None and abs(
                    existing.total - total
                ) > EPS_TOL:
                    raise ValueError(
                        f"tenant {name!r} already registered with budget "
                        f"eps={existing.total:g}; cannot change "
                        f"to eps={total:g}"
                    )
                return existing
            accountant = Accountant(total)
            self._accountants[name] = accountant
            self._queries[name] = 0
            return accountant

    def charge(self, name: str, epsilon: float, purpose: str) -> float:
        """Debit one query's ε; raises ``BudgetExceededError`` when broke.

        Unregistered tenants are auto-registered at the default budget
        (the open-enrollment mode the replay driver relies on).
        Returns the tenant's remaining ε right after this debit, as the
        accountant read it under the lock that made the debit.
        """
        accountant = self.register(name)
        remaining = accountant.spend(epsilon, purpose=purpose)
        with self._lock:
            self._queries[name] = self._queries.get(name, 0) + 1
        return remaining

    def accountant(self, name: str) -> Optional[Accountant]:
        """The tenant's accountant, or ``None`` if never seen."""
        with self._lock:
            return self._accountants.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Stable per-tenant budget summary for ``/v1/stats``."""
        with self._lock:
            names = sorted(self._accountants)
            out: Dict[str, Dict[str, Any]] = {}
            for name in names:
                acc = self._accountants[name]
                out[name] = {
                    "budget": acc.total,
                    "spent": acc.spent,
                    "remaining": acc.remaining,
                    "queries": self._queries.get(name, 0),
                    "spends": len(acc.ledger),
                }
            return out
