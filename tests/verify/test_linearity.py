"""Basis propagation and covariance algebra for linear estimators."""

import numpy as np
import pytest

from repro.verify.linearity import linear_operator_matrix, output_covariance


class TestLinearOperatorMatrix:
    def test_recovers_known_matrix(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
        recovered = linear_operator_matrix(lambda x: a @ x, 3)
        np.testing.assert_allclose(recovered, a)

    def test_cumsum_operator(self):
        mat = linear_operator_matrix(np.cumsum, 5)
        np.testing.assert_allclose(mat, np.tril(np.ones((5, 5))))

    def test_rejects_affine_map(self):
        with pytest.raises(ValueError, match="not linear"):
            linear_operator_matrix(lambda x: x + 1.0, 4)

    def test_rejects_nonlinear_map(self):
        with pytest.raises(ValueError, match="not linear"):
            linear_operator_matrix(lambda x: x**2, 4)

    def test_check_can_be_disabled(self):
        mat = linear_operator_matrix(lambda x: x + 1.0, 3, check_linear=False)
        # Garbage in, garbage out — but no exception.
        assert mat.shape == (3, 3)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            linear_operator_matrix(lambda x: x, 0)


class TestOutputCovariance:
    def test_identity_passes_variances_through(self):
        v = [1.0, 2.0, 3.0]
        cov = output_covariance(np.eye(3), v)
        np.testing.assert_allclose(cov, np.diag(v))

    def test_averaging_two_measurements(self):
        # x_hat = (y1 + y2) / 2 with Var[y_i] = s^2: Var[x_hat] = s^2/2.
        a = np.array([[0.5, 0.5]])
        cov = output_covariance(a, [4.0, 4.0])
        assert cov[0, 0] == pytest.approx(2.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 6))
        v = rng.uniform(0.5, 2.0, size=6)
        cov = output_covariance(a, v)
        draws = a @ (rng.normal(size=(6, 200_000)) * np.sqrt(v)[:, None])
        np.testing.assert_allclose(cov, np.cov(draws), rtol=0.05, atol=0.05)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            output_covariance(np.eye(3), [1.0, 2.0])

    def test_negative_variance_raises(self):
        with pytest.raises(ValueError):
            output_covariance(np.eye(2), [1.0, -1.0])
