"""Tests for the Publisher base class contract."""

import numpy as np
import pytest

from repro.accounting.accountant import Accountant
from repro.core.publisher import Publisher, PublishResult
from repro.exceptions import ReproError
from repro.hist.histogram import Histogram


class _SpendHalf(Publisher):
    """Test double: spends half, returns counts unchanged."""

    name = "spend-half"

    def _publish(self, histogram, accountant, rng):
        accountant.spend(accountant.total / 2, "half")
        return histogram.counts.copy(), {"note": "ok"}


class _Overspender(Publisher):
    name = "overspender"

    def _publish(self, histogram, accountant, rng):
        # Spends through the accountant correctly, so the accountant
        # itself raises on overdraft.
        accountant.spend(accountant.total * 2, "too much")
        return histogram.counts.copy(), {}


class _WrongShape(Publisher):
    name = "wrong-shape"

    def _publish(self, histogram, accountant, rng):
        return np.zeros(histogram.size + 1), {}


class TestPublishContract:
    def test_result_type(self, small_hist):
        result = _SpendHalf().publish(small_hist, budget=1.0, rng=0)
        assert isinstance(result, PublishResult)
        assert result.histogram.domain == small_hist.domain

    def test_budget_accepts_float(self, small_hist):
        result = _SpendHalf().publish(small_hist, budget=0.5, rng=0)
        assert result.accountant.total == 0.5

    def test_epsilon_spent_reflects_ledger(self, small_hist):
        result = _SpendHalf().publish(small_hist, budget=1.0, rng=0)
        assert result.epsilon_spent == pytest.approx(0.5)

    def test_meta_passed_through(self, small_hist):
        result = _SpendHalf().publish(small_hist, budget=1.0, rng=0)
        assert result.meta["note"] == "ok"

    def test_rejects_non_histogram(self):
        with pytest.raises(TypeError):
            _SpendHalf().publish([1.0, 2.0], budget=1.0)

    def test_rejects_zero_budget(self, small_hist):
        with pytest.raises(ValueError):
            _SpendHalf().publish(small_hist, budget=0.0)

    def test_rejects_non_numeric_budget(self, small_hist):
        for bad in ("0.5", True, None):
            with pytest.raises(TypeError):
                _SpendHalf().publish(small_hist, budget=bad)

    def test_overspend_raises(self, small_hist):
        from repro.exceptions import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            _Overspender().publish(small_hist, budget=1.0, rng=0)

    def test_wrong_shape_raises(self, small_hist):
        with pytest.raises(ReproError, match="shape|counts"):
            _WrongShape().publish(small_hist, budget=1.0, rng=0)

    def test_input_not_mutated(self, small_hist):
        before = small_hist.counts.copy()
        _SpendHalf().publish(small_hist, budget=1.0, rng=0)
        np.testing.assert_array_equal(small_hist.counts, before)

    def test_repr(self):
        assert "spend-half" in repr(_SpendHalf())
