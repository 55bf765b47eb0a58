"""Tests for sensitivity derivations."""

import numpy as np
import pytest

from repro.mechanisms.sensitivity import (
    contract_sensitivity,
    histogram_sensitivity,
    range_sum_sensitivity,
    sse_sensitivity_bound,
)


class TestHistogramSensitivity:
    def test_unbounded_is_one(self):
        assert histogram_sensitivity("unbounded") == 1.0

    def test_bounded_is_two(self):
        assert histogram_sensitivity("bounded") == 2.0

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            histogram_sensitivity("weird")


class TestContractSensitivity:
    """The sensitivity a publish's recorded neighbours convention owes."""

    @pytest.mark.parametrize("meta,expected", [
        ({}, 1.0),  # a journal written before the key existed
        ({"neighbours": "unbounded"}, 1.0),
        ({"neighbours": "bounded", "noise_variance": 2.0}, 2.0),
    ])
    def test_reads_recorded_neighbours(self, meta, expected):
        assert contract_sensitivity(meta) == expected

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            contract_sensitivity({"neighbours": "weird"})


class TestRangeSumSensitivity:
    def test_is_one_both_models(self):
        assert range_sum_sensitivity("unbounded") == 1.0
        assert range_sum_sensitivity("bounded") == 1.0


class TestSseSensitivityBound:
    def test_formula(self):
        assert sse_sensitivity_bound(10.0) == 21.0

    def test_bounded_doubles(self):
        assert sse_sensitivity_bound(10.0, "bounded") == 42.0

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            sse_sensitivity_bound(-1.0)

    def test_bound_actually_holds(self):
        """Empirically verify |SSE(c') - SSE(c)| <= 2*cap + 1 on random data."""
        rng = np.random.default_rng(0)
        cap = 20.0
        for _ in range(200):
            b = int(rng.integers(1, 10))
            counts = rng.uniform(0, cap, size=b)
            i = int(rng.integers(0, b))
            bumped = counts.copy()
            bumped[i] += 1.0

            def sse(c):
                return float(np.sum((c - c.mean()) ** 2))

            # The bumped value can exceed the cap by 1; the bound is
            # stated for counts within the cap before the change.
            assert abs(sse(bumped) - sse(counts)) <= 2 * cap + 1 + 1e-9
