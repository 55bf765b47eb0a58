"""Tests for ε budgets as plain floats: validation, composition by float
arithmetic, and the rounding tolerance of the overdraft check."""

import math

import pytest

from repro.accounting.accountant import EPS_TOL, Accountant
from repro.exceptions import BudgetExceededError


class TestConstruction:
    def test_pure_budget(self):
        acc = Accountant(1)
        assert type(acc.total) is float and acc.total == 1.0
        assert type(acc.spent) is float and type(acc.remaining) is float

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            Accountant(-0.1)
        with pytest.raises(ValueError):
            Accountant(1.0).spend(-0.1, "x")

    def test_rejects_non_finite_epsilon(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Accountant(bad)
            with pytest.raises(ValueError):
                Accountant(1.0).spend(bad, "x")

    def test_zero_budget_allowed(self):
        acc = Accountant(0.0)
        assert acc.total == 0.0
        assert acc.spend(0.0, "free") == 0.0


class TestArithmetic:
    def test_addition_composes(self):
        acc = Accountant(1.0)
        acc.spend(0.3, "a")
        acc.spend(0.2, "b")
        assert acc.spent == 0.3 + 0.2

    def test_subtraction(self):
        acc = Accountant(1.0)
        acc.spend(0.4, "a")
        assert acc.remaining == 1.0 - 0.4

    def test_subtraction_clamps_float_dust(self):
        # 0.1 + 0.2 rounds to just above 0.3: remaining is 0, not -5e-17.
        acc = Accountant(0.3)
        acc.spend(0.1, "a")
        assert acc.spend(0.2, "b") == 0.0
        assert acc.spent > acc.total
        assert acc.remaining == 0.0

    def test_subtraction_rejects_overdraft(self):
        acc = Accountant(0.5)
        with pytest.raises(BudgetExceededError) as info:
            acc.spend(1.0, "x")
        assert info.value.requested == 1.0
        assert info.value.remaining == 0.5


class TestCovers:
    def test_covers_smaller(self):
        assert Accountant(1.0).spend(0.5, "x") == 0.5

    def test_does_not_cover_larger(self):
        acc = Accountant(0.5)
        acc.spend(0.5 + EPS_TOL / 2, "within tolerance")
        with pytest.raises(BudgetExceededError):
            Accountant(0.5).spend(0.5 + 2 * EPS_TOL, "past tolerance")

    def test_covers_equal_with_tolerance(self):
        # Nine slices of 1/9 sum to just above 1.0; all nine are covered.
        acc = Accountant(1.0)
        for _ in range(9):
            acc.spend(1.0 / 9, "slice")
        assert acc.spent > 1.0
        assert acc.spent == pytest.approx(1.0)
