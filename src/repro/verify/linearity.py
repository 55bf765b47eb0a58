"""Exact noise propagation through linear estimators.

Several publishers (Boost's two-pass consistency, Privelet's inverse
wavelet, DAWA-lite's bucket tree) are *linear* maps from their noisy
measurements to the published counts.  For a linear estimator
``x_hat = A y`` with independent zero-mean measurement noises of
variances ``v_j``, the output covariance is exactly
``Sigma = A diag(v) A^T`` — no Monte Carlo needed.

``linear_operator_matrix`` materializes ``A`` by feeding basis vectors
through the estimator (exact for any linear map, and cheap at the domain
sizes calibration tests use); ``output_covariance`` turns ``A`` and the
measurement variances into ``Sigma``, from which
:class:`~repro.verify.oracles.ErrorOracle` reads per-bin and range-sum
variances.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "linear_operator_matrix",
    "output_covariance",
]


def linear_operator_matrix(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    input_dim: int,
    check_linear: bool = True,
) -> np.ndarray:
    """Materialize the matrix of a linear map by basis propagation.

    Parameters
    ----------
    apply_fn:
        The estimator, mapping a length-``input_dim`` measurement vector
        to the output vector.  Must be linear (checked by default with a
        random probe).
    input_dim:
        Number of measurement coordinates.
    check_linear:
        Verify ``A x = apply_fn(x)`` on one random probe; catches callers
        passing affine or nonlinear estimators.
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    columns = []
    for j in range(input_dim):
        basis = np.zeros(input_dim, dtype=np.float64)
        basis[j] = 1.0
        columns.append(np.asarray(apply_fn(basis), dtype=np.float64))
    matrix = np.column_stack(columns)
    if check_linear:
        probe_rng = np.random.default_rng(0)
        probe = probe_rng.normal(size=input_dim)
        direct = np.asarray(apply_fn(probe), dtype=np.float64)
        if not np.allclose(matrix @ probe, direct, rtol=1e-9, atol=1e-9):
            raise ValueError(
                "apply_fn is not linear: basis reconstruction disagrees "
                "with a direct evaluation"
            )
    return matrix


def output_covariance(
    matrix: np.ndarray, noise_variances: Sequence[float]
) -> np.ndarray:
    """Exact output covariance ``A diag(v) A^T`` of a linear estimator."""
    a = np.asarray(matrix, dtype=np.float64)
    v = np.asarray(noise_variances, dtype=np.float64)
    if v.ndim != 1 or a.shape[1] != len(v):
        raise ValueError(
            f"matrix has {a.shape[1]} inputs but {len(v)} variances given"
        )
    if np.any(v < 0):
        raise ValueError("noise variances must be >= 0")
    return (a * v) @ a.T
