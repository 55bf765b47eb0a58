"""TenantLedgers: registration rules and budget enforcement."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import BudgetExceededError
from repro.serve.tenants import TenantLedgers


class TestRegistration:
    def test_register_creates_accountant(self):
        ledgers = TenantLedgers(default_budget=5.0)
        acc = ledgers.register("alpha", 2.0)
        assert acc.total == 2.0

    def test_register_without_budget_uses_default(self):
        ledgers = TenantLedgers(default_budget=5.0)
        assert ledgers.register("alpha").total == 5.0

    def test_reregister_same_budget_is_idempotent(self):
        ledgers = TenantLedgers()
        first = ledgers.register("alpha", 2.0)
        assert ledgers.register("alpha", 2.0) is first

    def test_reregister_conflicting_budget_rejected(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 2.0)
        with pytest.raises(ValueError, match="already registered"):
            ledgers.register("alpha", 3.0)

    def test_bad_names_rejected(self):
        ledgers = TenantLedgers()
        for bad in ("", "   ", None, 7):
            with pytest.raises(ValueError):
                ledgers.register(bad)

    def test_nonpositive_budget_rejected(self):
        ledgers = TenantLedgers()
        with pytest.raises(ValueError):
            ledgers.register("alpha", 0.0)
        with pytest.raises(ValueError):
            TenantLedgers(default_budget=-1.0)


class TestCharging:
    def test_charge_auto_registers_at_default(self):
        ledgers = TenantLedgers(default_budget=1.0)
        remaining = ledgers.charge("walk-in", 0.25, purpose="q")
        assert remaining == pytest.approx(0.75)
        assert ledgers.accountant("walk-in") is not None

    def test_exhaustion_raises_and_spends_nothing(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 1.0)
        ledgers.charge("alpha", 0.6, purpose="q")
        with pytest.raises(BudgetExceededError):
            ledgers.charge("alpha", 0.6, purpose="q")
        acc = ledgers.accountant("alpha")
        assert acc.spent == pytest.approx(0.6)
        assert len(acc.ledger) == 1

    def test_quota_is_floor_budget_over_epsilon(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 1.0)
        answered = 0
        for _ in range(10):
            try:
                ledgers.charge("alpha", 0.3, purpose="q")
                answered += 1
            except BudgetExceededError:
                break
        assert answered == 3  # floor(1.0 / 0.3)

    def test_snapshot_tracks_queries_and_spends(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 2.0)
        ledgers.charge("alpha", 0.5, purpose="q")
        ledgers.charge("alpha", 0.5, purpose="q")
        snap = ledgers.snapshot()
        assert snap["alpha"]["budget"] == 2.0
        assert snap["alpha"]["spent"] == pytest.approx(1.0)
        assert snap["alpha"]["remaining"] == pytest.approx(1.0)
        assert snap["alpha"]["queries"] == 2
        assert snap["alpha"]["spends"] == 2

    def test_tenants_are_isolated(self):
        ledgers = TenantLedgers()
        ledgers.register("alpha", 1.0)
        ledgers.register("beta", 1.0)
        ledgers.charge("alpha", 1.0, purpose="q")
        # Alpha being broke does not touch beta.
        assert ledgers.charge("beta", 1.0, purpose="q") == pytest.approx(
            0.0
        )

    def test_concurrent_charges_each_report_their_own_remaining(self):
        """8 threads × 32 charges of 0.25 against 64 ε: the 256 replies
        carry exactly the values 64 − 0.25·i, once each.  A reply must
        not show another request's debit that landed after its own."""
        expected = sorted(64.0 - 0.25 * i for i in range(1, 257))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                ledgers = TenantLedgers()
                ledgers.register("alpha", 64.0)
                barrier = threading.Barrier(8)
                seen = []
                lock = threading.Lock()

                def worker():
                    barrier.wait()
                    mine = [ledgers.charge("alpha", 0.25, purpose="q")
                            for _ in range(32)]
                    with lock:
                        seen.extend(mine)

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                    assert not t.is_alive()
                assert sorted(seen) == expected
        finally:
            sys.setswitchinterval(interval)
