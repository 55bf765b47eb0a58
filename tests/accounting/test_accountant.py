"""Tests for the enforcing Accountant."""

import numpy as np
import pytest

from repro.accounting.accountant import Accountant
from repro.exceptions import BudgetExceededError


class TestConstruction:
    def test_from_float(self):
        acc = Accountant(1.0)
        assert acc.total == 1.0

    def test_from_budget(self):
        # A budget computed with numpy is kept as a builtin float.
        acc = Accountant(np.float64(0.5))
        assert type(acc.total) is float and acc.total == 0.5

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            Accountant(True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            Accountant("1.0")


class TestSpend:
    def test_spend_tracks(self):
        acc = Accountant(1.0)
        acc.spend(0.4, purpose="noise")
        assert acc.spent == pytest.approx(0.4)
        assert acc.remaining == pytest.approx(0.6)

    def test_spend_returns_remaining(self):
        acc = Accountant(1.0)
        assert acc.spend(0.4, "a") == acc.remaining == 1.0 - 0.4
        assert acc.spend(0.6, "b") == 0.0

    def test_overdraft_raises(self):
        acc = Accountant(1.0)
        acc.spend(0.8, "a")
        with pytest.raises(BudgetExceededError):
            acc.spend(0.3, "b")

    def test_overdraft_does_not_record(self):
        acc = Accountant(1.0)
        with pytest.raises(BudgetExceededError):
            acc.spend(2.0, "too much")
        assert acc.spent == 0.0
        assert len(acc.ledger) == 0

    def test_exact_split_spends_cleanly(self):
        acc = Accountant(1.0)
        for _ in range(7):
            acc.spend(1.0 / 7, "slice")
        assert acc.spent == pytest.approx(1.0)

    def test_parallel_group_only_costs_max(self):
        acc = Accountant(0.5)
        acc.spend(0.5, "l0", parallel_group="level")
        acc.spend(0.5, "l1", parallel_group="level")
        assert acc.spent == pytest.approx(0.5)

    def test_rejects_nonnumeric(self):
        acc = Accountant(1.0)
        with pytest.raises(TypeError):
            acc.spend("0.5", "x")
        with pytest.raises(TypeError):
            acc.spend(True, "x")
        assert len(acc.ledger) == 0


class _Sealed(list):
    """A record list that fails any read of its records."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the ledger's records were visited")

    __iter__ = __getitem__ = __reversed__ = _refuse


class TestRunningTotal:
    def test_charge_visits_no_records(self):
        """After 10,000 debits, spend/remaining/spent read no record."""
        debits = [0.1 + (i % 7) * 0.01 for i in range(10_000)]
        acc = Accountant(2_000.0)
        for d in debits:
            acc.spend(d, "debit")
        acc.ledger.records = _Sealed(acc.ledger.records)
        remaining = acc.spend(0.3, "last")
        debits.append(0.3)
        assert acc.remaining == remaining
        expected = 0.0
        for d in debits:
            expected = expected + d
        assert acc.spent == expected
        assert remaining == 2_000.0 - expected
        assert len(acc.ledger) == 10_001

    def test_groups_compose_after_the_sequential_sum(self):
        acc = Accountant(1.0)
        acc.spend(0.1, "a", parallel_group="g")
        acc.spend(0.2, "seq")
        acc.spend(0.3, "b", parallel_group="g")
        acc.spend(0.05, "c", parallel_group="h")
        assert acc.spent == (0.0 + 0.2) + 0.3 + 0.05


class TestRepr:
    def test_repr_mentions_totals(self):
        acc = Accountant(1.0)
        assert "total" in repr(acc)
