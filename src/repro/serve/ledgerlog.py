"""Durable ε-accounting for the query service: a write-ahead ledger log.

The in-memory :class:`~repro.accounting.Accountant` ledgers enforce
per-tenant budgets while the server is up, but a served histogram
system that loses (or double-spends) its ε-ledger on a crash silently
voids the differential-privacy budget the publish paid for.  The
:class:`LedgerLog` closes that hole with the same discipline the
checkpoint journal uses for experiment sweeps
(:mod:`repro.robust.journal`), as a codec over the same
:class:`repro.robust.atomicio.RecordLog`: one JSON line per event, so a
SIGKILL mid-append tears at most the final line, which replay skips
and counts and the next append ends before writing.

Two event kinds:

``tenant``
    a tenant registration (name, ε budget) — replayed first on restart
    so explicit budgets survive a crash even if the server's default
    budget flag changes;
``debit``
    one charged query: tenant, ε, an **idempotency key**, plus the
    request **digest** and the answered **value**.  The service
    journals the debit *after* the in-memory check-and-spend succeeds
    and *before* the answer is released, which yields the two
    crash-safety invariants the chaos drill asserts:

    * **never overdraft** — only debits that passed the atomic
      in-memory budget check are ever journaled, so the journal's
      per-tenant sum can never exceed the budget;
    * **never re-charge an answered request** — a client retrying a
      request whose answer was already journaled presents the same
      idempotency key; the service finds it in :attr:`LedgerReplay.keys`
      (or the live seen-set) and answers for free.

    A crash *between* the in-memory spend and the journal append loses
    that debit — harmlessly, because the answer was never released, so
    no information left the server for that ε.

Idempotency keys are **scoped per tenant** (two tenants presenting the
same key string never collide — see :func:`scoped_key`) and **bound to
the request content**: the journaled ``digest`` covers
``(tenant, fingerprint, kind, lo, hi)``, and the journaled ``value``
is the answer that was released.  A replayed key therefore returns the
*original* answer, and a key resent with different bounds, a different
artifact, or a different tenant cannot harvest a free fresh answer —
the service rejects the mismatch instead (409).

Replay (:meth:`LedgerLog.replay`) is pure accounting: group debits by
tenant, dedupe by scoped key, sum.  The service applies the result to
fresh accountants at startup, restoring the exact spent totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.robust.atomicio import RecordLog

__all__ = [
    "LEDGER_SCHEMA", "LedgerDebit", "LedgerLog", "LedgerReplay",
    "scoped_key",
]

LEDGER_SCHEMA = 1


def scoped_key(tenant: str, key: str) -> str:
    """The tenant-scoped form of an idempotency key.

    Keys are client-controlled strings; scoping them by tenant (with a
    separator no sane tenant name contains) makes a key collision
    between tenants impossible — tenant A replaying tenant B's key can
    never be answered from B's journaled debit.
    """
    return f"{tenant}\x1f{key}"


@dataclass(frozen=True)
class LedgerDebit:
    """One journaled charge (deduped by tenant-scoped ``key``).

    ``digest`` binds the key to the request content (tenant, artifact
    fingerprint, query kind and bounds) and ``value`` records the
    answer that was released, so a post-restart replay can verify the
    retry matches and re-serve the original answer.
    """

    tenant: str
    epsilon: float
    key: Optional[str] = None
    purpose: str = ""
    digest: Optional[str] = None
    value: Optional[float] = None


@dataclass
class LedgerReplay:
    """Everything a ledger file says happened before the crash."""

    #: First-registration-wins explicit budgets, in journal order.
    tenants: Dict[str, float] = field(default_factory=dict)
    #: Deduped debits, in journal order.
    debits: List[LedgerDebit] = field(default_factory=list)
    #: Every charged idempotency key, **scoped by tenant**
    #: (:func:`scoped_key`), mapped to its journaled debit so the
    #: service can verify a retry's digest and replay its value.
    keys: Dict[str, LedgerDebit] = field(default_factory=dict)
    #: Lines skipped as unparseable (a torn tail from a crash).
    torn_lines: int = 0
    #: Keyed debits skipped because their key had already been applied.
    duplicate_debits: int = 0

    def spent_by_tenant(self) -> Dict[str, float]:
        """Per-tenant ε totals implied by the journaled debits."""
        out: Dict[str, float] = {}
        for debit in self.debits:
            out[debit.tenant] = out.get(debit.tenant, 0.0) + debit.epsilon
        return out


class LedgerLog:
    """Append-only, torn-tail-tolerant ε-ledger journal."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._log = RecordLog(path, LEDGER_SCHEMA)
        self.path = self._log.path
        #: Appends performed by *this* process (not the replayed past).
        self.appends = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LedgerLog({str(self.path)!r})"

    # -- writes --------------------------------------------------------
    def _append(self, entry: Dict[str, Any]) -> None:
        self._log.append(entry)
        self.appends += 1

    def append_tenant(self, tenant: str, budget: float) -> None:
        """Durably record a tenant registration."""
        self._append({
            "kind": "tenant",
            "tenant": str(tenant),
            "budget": float(budget),
        })

    def append_debit(
        self,
        tenant: str,
        epsilon: float,
        key: Optional[str] = None,
        purpose: str = "",
        digest: Optional[str] = None,
        value: Optional[float] = None,
    ) -> None:
        """Durably record one charged query (call *before* answering).

        ``digest`` and ``value`` travel with keyed debits so a retry
        after restart can be verified against the original request and
        answered with the original value.
        """
        entry: Dict[str, Any] = {
            "kind": "debit",
            "tenant": str(tenant),
            "epsilon": float(epsilon),
            "purpose": str(purpose),
        }
        if key is not None:
            entry["key"] = str(key)
        if digest is not None:
            entry["digest"] = str(digest)
        if value is not None:
            entry["value"] = float(value)
        self._append(entry)

    # -- reads ---------------------------------------------------------
    def replay(self) -> LedgerReplay:
        """Reconstruct the pre-crash accounting state from the file.

        Unparseable lines (the torn tail of an interrupted append) are
        counted and skipped — a truncation at *any* byte offset yields
        a clean prefix of the journaled debits, never a corrupted
        total, and debits appended after the tear replay too.  A wrong
        schema number raises :class:`~repro.exceptions.JournalError`
        (version mismatch, not a crash artifact).  Keyed debits whose
        key repeats are dropped, so replaying a journal that recorded a
        retried-and-deduped request stays exactly-once.
        """
        replay = LedgerReplay()
        entries, replay.torn_lines = self._log.read()
        for entry in entries:
            kind = entry.get("kind")
            if kind == "tenant":
                replay.tenants.setdefault(
                    str(entry["tenant"]), float(entry["budget"])
                )
            elif kind == "debit":
                tenant = str(entry["tenant"])
                key = entry.get("key")
                raw_value = entry.get("value")
                debit = LedgerDebit(
                    tenant=tenant,
                    epsilon=float(entry["epsilon"]),
                    key=None if key is None else str(key),
                    purpose=str(entry.get("purpose", "")),
                    digest=(
                        None if entry.get("digest") is None
                        else str(entry["digest"])
                    ),
                    value=None if raw_value is None else float(raw_value),
                )
                if key is not None:
                    skey = scoped_key(tenant, str(key))
                    if skey in replay.keys:
                        replay.duplicate_debits += 1
                        continue
                    replay.keys[skey] = debit
                replay.debits.append(debit)
            # Unknown kinds are ignored (forward-compatible).
        return replay
