"""Structural tests of the closed-form error oracles.

Statistical (Monte-Carlo) validation lives in ``test_calibration.py``;
these tests pin the oracles' *algebra*: known closed forms (``2L/eps^2``,
``sigma^2/w``, ``sigma_n^2/w^2``, the Privelet level sum), covariance
structure, and the dispatch table's error paths.
"""

import numpy as np
import pytest

from repro.baselines import Boost, DworkIdentity
from repro.hist.histogram import Histogram
from repro.partition.partition import Partition
from repro.verify.oracles import (
    ORACLE_BUILDERS,
    ErrorOracle,
    ahp_oracle,
    boost_oracle,
    dawa_oracle,
    dwork_oracle,
    fourier_oracle,
    mwem_full_range_oracle,
    noisefirst_oracle,
    oracle_from_result,
    privelet_oracle,
    structurefirst_oracle,
    uniform_flat_oracle,
)
from repro.workloads.builders import prefix_ranges, unit_queries


class TestErrorOracleType:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            ErrorOracle("x", "exact", np.zeros(3), np.eye(4))

    def test_validates_kind(self):
        with pytest.raises(ValueError):
            ErrorOracle("x", "approximate", np.zeros(2), np.eye(2))

    def test_unit_mse_combines_bias_and_variance(self):
        oracle = ErrorOracle(
            "x", "exact", np.array([1.0, 0.0]), np.diag([2.0, 4.0])
        )
        assert oracle.unit_mse() == pytest.approx((1.0 + 2.0 + 4.0) / 2.0)

    def test_range_moments(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        oracle = ErrorOracle("x", "exact", np.array([0.5, -0.25]), cov)
        assert oracle.range_bias(0, 1) == pytest.approx(0.25)
        assert oracle.range_variance(0, 1) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            oracle.range_variance(0, 2)

    def test_workload_mse_size_checked(self):
        oracle = dwork_oracle(8, 1.0)
        with pytest.raises(ValueError):
            oracle.workload_mse(unit_queries(16))
        with pytest.raises(ValueError):
            oracle.workload_mse("nope")


class TestDworkOracle:
    def test_unit_variance_closed_form(self):
        oracle = dwork_oracle(16, 0.5)
        np.testing.assert_allclose(oracle.per_bin_variance, 8.0)
        assert oracle.unit_mse() == pytest.approx(8.0)

    def test_range_law_is_linear_in_length(self):
        # The 2L/eps^2 law of the paper's Section 2.
        oracle = dwork_oracle(32, 0.1)
        for length in (1, 5, 32):
            assert oracle.range_variance(0, length - 1) == pytest.approx(
                2.0 * length / 0.1**2
            )

    def test_prefix_workload(self):
        # Prefix ranges of lengths 1..n: mean variance = 2/eps^2 * (n+1)/2.
        n, eps = 8, 0.5
        got = dwork_oracle(n, eps).workload_mse(prefix_ranges(n))
        assert got == pytest.approx(2.0 / eps**2 * (n + 1) / 2.0)

    def test_off_diagonal_zero(self):
        cov = dwork_oracle(8, 1.0).covariance
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0)


class TestUniformFlatOracle:
    def test_rank_one_covariance(self):
        counts = np.array([1.0, 5.0, 3.0, 7.0])
        oracle = uniform_flat_oracle(counts, 0.5)
        # All entries equal: one shared draw.
        assert np.ptp(oracle.covariance) == pytest.approx(0.0)
        assert oracle.covariance[0, 0] == pytest.approx(2.0 / 0.25 / 16.0)

    def test_bias_is_mean_deviation(self):
        counts = np.array([0.0, 8.0])
        oracle = uniform_flat_oracle(counts, 1.0)
        np.testing.assert_allclose(oracle.per_bin_bias, [4.0, -4.0])


class TestBoostOracle:
    def test_unbiased(self):
        np.testing.assert_allclose(boost_oracle(16, 0.5).per_bin_bias, 0.0)

    def test_consistency_reduces_leaf_variance(self):
        raw = boost_oracle(16, 0.5, consistency=False)
        fixed = boost_oracle(16, 0.5, consistency=True)
        assert np.all(fixed.per_bin_variance < raw.per_bin_variance)

    def test_no_consistency_is_leaf_noise(self):
        # Without consistency the output is just the noisy leaf level:
        # Var = 2 (h/eps)^2 per bin, independent.
        oracle = boost_oracle(8, 0.5, consistency=False)
        h = 4  # levels of a binary tree over 8 leaves
        np.testing.assert_allclose(
            oracle.covariance, np.eye(8) * 2.0 * (h / 0.5) ** 2
        )

    def test_full_range_is_root_measurement_scale(self):
        # The consistent estimator's full-domain sum should be far better
        # than summing independent leaves.
        oracle = boost_oracle(16, 0.5)
        full = oracle.range_variance(0, 15)
        independent = float(oracle.per_bin_variance.sum())
        assert full < independent / 2.0


def _privelet_level_sum(n, eps):
    """Per-bin variance of Privelet over ``n`` bins padded to ``m = 2^L``:
    the base ``Lap(lambda/m)`` plus one ``Lap(lambda/2^(l-1))`` detail
    per level, ``lambda = (1 + L/2) / eps``."""
    m = 1
    while m < n:
        m *= 2
    levels = m.bit_length() - 1
    lam = (1.0 + levels / 2.0) / eps
    return 2.0 * lam**2 * (
        1.0 / m**2 + sum(4.0 ** -(level - 1)
                         for level in range(1, levels + 1))
    )


class TestPriveletOracle:
    def test_diagonal_matches_analysis_closed_form(self):
        for n in (8, 12, 16, 32):
            oracle = privelet_oracle(n, 0.4)
            np.testing.assert_allclose(
                oracle.per_bin_variance,
                _privelet_level_sum(n, 0.4),
                rtol=1e-10,
            )

    def test_unbiased(self):
        np.testing.assert_allclose(privelet_oracle(16, 1.0).per_bin_bias, 0.0)


class TestPartitionOracles:
    def test_noisefirst_matches_analysis_variances(self):
        counts = np.array([4.0, 4.0, 10.0, 10.0, 10.0, 2.0])
        partition = Partition(n=6, boundaries=(2, 5))
        oracle = noisefirst_oracle(counts, partition, 0.5)
        # sigma^2 / w with sigma^2 = 2/eps^2 = 8 and widths 2, 3, 1.
        np.testing.assert_allclose(
            oracle.per_bin_variance,
            [8.0 / 2, 8.0 / 2, 8.0 / 3, 8.0 / 3, 8.0 / 3, 8.0],
        )
        np.testing.assert_allclose(
            oracle.per_bin_bias, partition.apply_means(counts) - counts
        )

    def test_noisefirst_in_bucket_noise_fully_correlated(self):
        partition = Partition(n=4, boundaries=(2,))
        oracle = noisefirst_oracle(np.zeros(4), partition, 1.0)
        assert oracle.covariance[0, 1] == pytest.approx(
            oracle.covariance[0, 0]
        )
        assert oracle.covariance[0, 2] == pytest.approx(0.0)

    def test_structurefirst_matches_analysis_variances(self):
        partition = Partition(n=8, boundaries=(3, 6))
        oracle = structurefirst_oracle(np.zeros(8), partition, 0.25)
        # sigma_n^2 / w^2 with sigma_n^2 = 2/eps_n^2 = 32, widths 3, 3, 2.
        np.testing.assert_allclose(
            oracle.per_bin_variance,
            [32.0 / 9] * 6 + [32.0 / 4] * 2,
        )

    def test_structurefirst_range_noise_cancels_inside_bucket(self):
        # A full bucket's range sum sees exactly the bucket-sum noise:
        # Var = w^2 * (2 / (eps^2 w^2)) = 2/eps^2, independent of w.
        partition = Partition(n=8, boundaries=(4,))
        oracle = structurefirst_oracle(np.zeros(8), partition, 0.5)
        assert oracle.range_variance(0, 3) == pytest.approx(2.0 / 0.25)

    def test_range_noise_over_part_of_a_bucket(self):
        # m of a bucket's w bins: (m/w)^2 * 2/eps_n^2 under StructureFirst,
        # m^2 * 2/(eps^2 w) under NoiseFirst (one shared draw either way).
        partition = Partition(n=8, boundaries=(4,))
        sf = structurefirst_oracle(np.zeros(8), partition, 0.5)
        nf = noisefirst_oracle(np.zeros(8), partition, 0.5)
        assert sf.range_variance(2, 5) == pytest.approx(
            2 * (2 / 4) ** 2 * 8.0
        )
        assert nf.range_variance(2, 5) == pytest.approx(2 * 2**2 * 8.0 / 4)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            noisefirst_oracle(np.zeros(5), Partition(n=6, boundaries=(2,)), 1.0)


class TestAhpOracle:
    def test_non_contiguous_clusters(self):
        counts = np.array([1.0, 9.0, 1.0, 9.0])
        oracle = ahp_oracle(counts, [[0, 2], [1, 3]], eps_counts=1.0)
        np.testing.assert_allclose(oracle.per_bin_bias, 0.0)  # equal means
        assert oracle.covariance[0, 2] == pytest.approx(
            oracle.covariance[0, 0]
        )
        assert oracle.covariance[0, 1] == pytest.approx(0.0)

    def test_requires_full_cover(self):
        with pytest.raises(ValueError, match="cover"):
            ahp_oracle(np.zeros(4), [[0, 1]], eps_counts=1.0)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            ahp_oracle(np.zeros(3), [[0, 1], [1, 2]], eps_counts=1.0)


class TestDawaOracle:
    def test_single_bucket_matches_structure_of_boost_root(self):
        partition = Partition.single_bucket(8)
        oracle = dawa_oracle(np.zeros(8), partition, eps_measure=0.5)
        # One bucket -> a height-1 tree: Var[sum] = 2/eps^2, spread over
        # w=8 bins -> per-bin 2/(eps^2 64), fully correlated.
        assert oracle.per_bin_variance[0] == pytest.approx(
            2.0 / 0.25 / 64.0
        )
        assert np.ptp(oracle.covariance) == pytest.approx(0.0)

    def test_bias_is_bucket_mean_approximation(self):
        counts = np.array([2.0, 4.0, 6.0, 8.0])
        partition = Partition(n=4, boundaries=(2,))
        oracle = dawa_oracle(counts, partition, eps_measure=1.0)
        np.testing.assert_allclose(
            oracle.per_bin_bias, partition.apply_means(counts) - counts
        )


class TestFourierOracle:
    def test_keeping_all_coefficients_reconstructs_exactly(self):
        counts = np.array([5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 6.0])
        k = len(np.fft.rfft(counts))
        oracle = fourier_oracle(counts, k, eps_noise=1.0)
        np.testing.assert_allclose(oracle.per_bin_bias, 0.0, atol=1e-10)

    def test_head_one_bias_is_mean_deviation(self):
        counts = np.array([0.0, 8.0, 0.0, 8.0])
        oracle = fourier_oracle(counts, 1, eps_noise=1.0)
        np.testing.assert_allclose(
            oracle.per_bin_bias, counts.mean() - counts, atol=1e-10
        )

    def test_k_bounds_checked(self):
        with pytest.raises(ValueError):
            fourier_oracle(np.zeros(8), 6, eps_noise=1.0)


class TestMwemOracle:
    def test_zero_variance_uniform_bias(self):
        counts = np.array([1.0, 2.0, 3.0, 10.0])
        oracle = mwem_full_range_oracle(counts)
        np.testing.assert_allclose(oracle.covariance, 0.0)
        np.testing.assert_allclose(
            oracle.per_bin_bias, counts.sum() / 4.0 - counts
        )


class TestOracleFromResult:
    def test_boost_reads_config_from_meta(self):
        hist = Histogram.from_counts(np.arange(16, dtype=float))
        result = Boost(branching=4).publish(hist, budget=0.5, rng=0)
        oracle = oracle_from_result("boost", hist, 0.5, result)
        np.testing.assert_allclose(
            oracle.covariance, boost_oracle(16, 0.5, branching=4).covariance
        )

    def test_unknown_name_raises(self):
        hist = Histogram.from_counts(np.zeros(4))
        result = DworkIdentity().publish(hist, budget=1.0, rng=0)
        with pytest.raises(KeyError):
            oracle_from_result("nope", hist, 1.0, result)

    def test_accepts_publisher_instance(self):
        hist = Histogram.from_counts(np.zeros(4))
        result = DworkIdentity().publish(hist, budget=1.0, rng=0)
        oracle = oracle_from_result(DworkIdentity(), hist, 1.0, result)
        assert oracle.unit_mse() == pytest.approx(2.0)

    def test_every_registered_publisher_has_a_builder(self):
        assert set(ORACLE_BUILDERS) == {
            "dwork", "uniform", "boost", "privelet", "noisefirst",
            "structurefirst", "dawa-lite", "ahp", "fourier", "mwem",
        }
