"""Unit tests of the GOF machinery itself (power + calibration)."""

import numpy as np
import pytest

from repro.mechanisms.exponential import (
    exponential_probabilities,
    gumbel_argmax,
)
from repro.verify.stats import (
    GofResult,
    bonferroni_alpha,
    chi_square_from_samples,
    chi_square_test,
    ks_test,
    laplace_cdf,
    merge_sparse_cells,
)
from repro.verify.streams import StreamAllocator

STREAMS = StreamAllocator(2024, namespace="tests.verify.stats")

EM_SCORES = np.array([0.0, 1.0, 3.0, 3.5, -2.0])


def _em_pmf(epsilon):
    """The exponential mechanism's law on EM_SCORES as an integer PMF."""
    probs = exponential_probabilities(EM_SCORES, epsilon, 1.0)

    def pmf(ks):
        ks = np.asarray(ks)
        inside = (ks >= 0) & (ks < len(probs))
        return np.where(inside, probs[np.clip(ks, 0, len(probs) - 1)], 0.0)

    return pmf


class TestDistributionHelpers:
    def test_laplace_cdf_median_and_symmetry(self):
        assert laplace_cdf(0.0, scale=2.0) == pytest.approx(0.5)
        x = np.array([-3.0, -1.0, 1.0, 3.0])
        cdf = laplace_cdf(x, scale=1.5)
        np.testing.assert_allclose(cdf + laplace_cdf(-x, scale=1.5), 1.0)

    def test_laplace_cdf_known_value(self):
        # F(x) = 1 - exp(-x/b)/2 for x >= 0.
        assert laplace_cdf(2.0, scale=1.0) == pytest.approx(
            1.0 - np.exp(-2.0) / 2.0
        )


class TestKsTest:
    def test_correct_distribution_passes(self):
        gen = STREAMS.generator("ks-correct")
        samples = gen.laplace(0.0, 2.0, size=4000)
        result = ks_test(samples, lambda x: laplace_cdf(x, scale=2.0))
        assert isinstance(result, GofResult)
        assert result.passes(alpha=1e-3)

    def test_wrong_scale_rejected(self):
        gen = STREAMS.generator("ks-wrong")
        samples = gen.laplace(0.0, 2.0, size=4000)
        result = ks_test(samples, lambda x: laplace_cdf(x, scale=3.0))
        assert not result.passes(alpha=1e-3)
        assert result.pvalue < 1e-6

    def test_wrong_location_rejected(self):
        gen = STREAMS.generator("ks-shift")
        samples = gen.laplace(0.5, 1.0, size=4000)
        result = ks_test(samples, lambda x: laplace_cdf(x, scale=1.0))
        assert not result.passes(alpha=1e-3)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            ks_test([0.1] * 5, lambda x: laplace_cdf(x, scale=1.0))

    def test_rejects_invalid_cdf(self):
        with pytest.raises(ValueError):
            ks_test(np.linspace(-1, 1, 50), lambda x: x * 10.0)


class TestChiSquare:
    def test_merge_sparse_cells_preserves_totals(self):
        obs = np.array([1.0, 2.0, 30.0, 1.0, 1.0, 40.0, 0.5])
        exp = np.array([2.0, 2.0, 28.0, 2.0, 2.0, 39.0, 1.0])
        m_obs, m_exp = merge_sparse_cells(obs, exp, min_expected=5.0)
        assert m_obs.sum() == pytest.approx(obs.sum())
        assert m_exp.sum() == pytest.approx(exp.sum())
        assert np.all(m_exp >= 5.0)

    def test_exact_match_statistic_zero(self):
        exp = np.array([10.0, 20.0, 30.0, 40.0])
        result = chi_square_test(exp, exp)
        assert result.statistic == pytest.approx(0.0)
        assert result.pvalue == pytest.approx(1.0)

    def test_expected_rescaled_to_observed_total(self):
        obs = np.array([10.0, 20.0, 30.0, 40.0])
        result = chi_square_test(obs, obs / obs.sum())  # shape only
        assert result.statistic == pytest.approx(0.0)

    def test_true_law_passes(self):
        gen = STREAMS.generator("chi2-em")
        samples = [gumbel_argmax(EM_SCORES, 1.5, 1.0, rng=gen)
                   for _ in range(3000)]
        result = chi_square_from_samples(
            samples, _em_pmf(1.5), support=range(len(EM_SCORES)),
        )
        assert result.passes(alpha=1e-3)

    def test_wrong_law_rejected(self):
        gen = STREAMS.generator("chi2-em-bad")
        samples = [gumbel_argmax(EM_SCORES, 1.5, 1.0, rng=gen)
                   for _ in range(3000)]
        result = chi_square_from_samples(
            samples, _em_pmf(0.5), support=range(len(EM_SCORES)),
        )
        assert not result.passes(alpha=1e-3)

    def test_too_few_cells_raises(self):
        with pytest.raises(ValueError):
            chi_square_test([1.0], [1.0])


class TestBonferroni:
    def test_divides_alpha(self):
        assert bonferroni_alpha(0.05, 10) == pytest.approx(0.005)

    def test_validates(self):
        with pytest.raises(ValueError):
            bonferroni_alpha(0.05, 0)
        with pytest.raises(ValueError):
            bonferroni_alpha(1.5, 3)
