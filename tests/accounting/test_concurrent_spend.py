"""Regression: sequential composition must hold under concurrent spends.

The accountant's overdraft check and ledger append used to be two
separate steps; two threads could both pass the check against the same
ledger snapshot and race past the total.  The check-and-append is now
atomic under an internal lock, and these tests pin the invariant:
however many threads spend concurrently, at most ``floor(total / ε)``
spends succeed and the ledger never composes past the budget.
"""

from __future__ import annotations

import threading

import pytest

from repro.accounting.accountant import EPS_TOL, Accountant
from repro.exceptions import BudgetExceededError


def race_spends(accountant, epsilon, n_threads, per_thread):
    """Spend from N threads simultaneously; returns (ok, refused)."""
    ok = refused = 0
    lock = threading.Lock()
    barrier = threading.Barrier(n_threads)

    def worker():
        nonlocal ok, refused
        barrier.wait()
        for _ in range(per_thread):
            try:
                accountant.spend(epsilon, purpose="concurrent")
                with lock:
                    ok += 1
            except BudgetExceededError:
                with lock:
                    refused += 1

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    return ok, refused


class TestConcurrentSpend:
    def test_no_overdraft_under_contention(self):
        """16 threads racing 0.1-ε spends against ε=1.0: exactly 10 win."""
        accountant = Accountant(1.0)
        ok, refused = race_spends(
            accountant, 0.1, n_threads=16, per_thread=4
        )
        assert ok == 10
        assert refused == 16 * 4 - 10
        assert accountant.spent <= 1.0 + EPS_TOL
        assert len(accountant.ledger) == 10

    def test_ledger_never_composes_past_total(self):
        """Uneven spend sizes still cannot exceed the budget."""
        accountant = Accountant(2.0)
        sizes = [0.7, 0.5, 0.3, 0.2, 0.9, 0.4, 0.6, 0.1]
        barrier = threading.Barrier(len(sizes))
        errors = []
        lock = threading.Lock()

        def worker(size):
            barrier.wait()
            try:
                accountant.spend(size, purpose="mixed")
            except BudgetExceededError:
                pass
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in sizes
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert accountant.spent <= 2.0 + EPS_TOL

    def test_sequential_behavior_unchanged(self):
        """The lock is invisible to single-threaded callers."""
        accountant = Accountant(1.0)
        accountant.spend(0.4, purpose="a")
        accountant.spend(0.6, purpose="b")
        with pytest.raises(BudgetExceededError):
            accountant.spend(0.1, purpose="c")
        assert accountant.remaining == pytest.approx(0.0)
