"""Property-based tests for plain-ε budget composition and accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.accounting.accountant import Accountant
from repro.exceptions import BudgetExceededError

eps_strategy = st.floats(min_value=1e-6, max_value=100.0,
                         allow_nan=False, allow_infinity=False)


class TestBudgetAlgebra:
    @given(eps_strategy, eps_strategy)
    def test_addition_commutative(self, a, b):
        x, y = Accountant(a + b), Accountant(a + b)
        x.spend(a, "first")
        x.spend(b, "second")
        y.spend(b, "first")
        y.spend(a, "second")
        assert x.spent == y.spent

    @given(eps_strategy)
    def test_covers_is_reflexive(self, eps):
        acc = Accountant(eps)
        assert acc.spend(eps, "all") == 0.0


class TestAccountantProperties:
    @given(eps_strategy, st.integers(min_value=1, max_value=30))
    def test_split_spends_exactly_exhaust(self, eps, n_spends):
        acc = Accountant(eps)
        for _ in range(n_spends):
            acc.spend(eps / n_spends, "slice")
        assert acc.spent == pytest.approx(eps, rel=1e-9)
        # Any further spend must fail.
        with pytest.raises(BudgetExceededError):
            acc.spend(eps * 0.01 + 1e-6, "extra")

    @given(eps_strategy, eps_strategy)
    def test_never_exceeds_total(self, total, request_eps):
        acc = Accountant(total)
        try:
            acc.spend(request_eps, "x")
        except BudgetExceededError:
            pass
        assert acc.spent <= total + 1e-9

    @given(st.lists(eps_strategy, min_size=1, max_size=10))
    def test_remaining_plus_spent_equals_total(self, spends):
        total = sum(spends)
        acc = Accountant(total)
        for s in spends:
            acc.spend(s, "x")
        assert acc.spent + acc.remaining == pytest.approx(
            total, rel=1e-9
        )
