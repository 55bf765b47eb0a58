"""Direct numerical verification of the epsilon-DP guarantees.

For mechanisms whose output distribution we can compute *exactly* —
the exponential mechanism, StructureFirst's Gibbs sampler over
partitions, and the Laplace mechanism — we check
the definition itself: for neighbouring inputs, every outcome's
probability ratio is bounded by ``exp(eps)``.  These are the strongest
tests in the suite: they verify the privacy claim, not just the
plumbing.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanisms.exponential import exponential_probabilities
from repro.partition.gibbs import log_partition_table
from repro.partition.partition import Partition
from repro.partition.sae import sae_matrix


def _partition_log_probs(counts, k, alpha):
    """Exact log-probability of every k-partition under the Gibbs EM."""
    matrix = sae_matrix(counts)
    n = len(counts)
    table = log_partition_table(matrix, k, alpha)
    log_z = table[k][n]
    out = {}
    for boundaries in itertools.combinations(range(1, n), k - 1):
        p = Partition(n=n, boundaries=boundaries)
        cost = sum(matrix[s, e] for s, e in p.buckets())
        out[boundaries] = -alpha * cost - log_z
    return out


class TestGibbsSamplerDp:
    """StructureFirst's structure step satisfies eps_s-DP exactly."""

    @pytest.mark.parametrize("eps_s", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("k", [2, 3])
    def test_ratio_bounded_unbounded_neighbours(self, eps_s, k):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=7).astype(float)
        alpha = eps_s / 2.0  # sensitivity of the SAE utility is 1
        base = _partition_log_probs(counts, k, alpha)
        for t in range(7):
            neighbour = counts.copy()
            neighbour[t] += 1.0  # add one record to bin t
            other = _partition_log_probs(neighbour, k, alpha)
            worst = max(abs(base[p] - other[p]) for p in base)
            assert worst <= eps_s + 1e-9

    def test_distribution_actually_responds_to_data(self):
        """Not vacuous: a neighbouring dataset measurably shifts the
        partition distribution (the mechanism is using the data)."""
        counts = np.array([0.0, 10.0, 100.0, 0.0, 0.0])
        eps_s = 2.0
        alpha = eps_s / 2.0
        base = _partition_log_probs(counts, 2, alpha)
        neighbour = counts.copy()
        neighbour[1] += 1.0
        other = _partition_log_probs(neighbour, 2, alpha)
        worst = max(abs(base[p] - other[p]) for p in base)
        assert worst > 1e-3


class TestExponentialMechanismDp:
    @given(
        st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                 min_size=2, max_size=8),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=100)
    def test_ratio_bounded_for_unit_sensitive_scores(self, scores, seed,
                                                     eps):
        """Perturb one score by <= 1 (sensitivity 1): every outcome's
        probability moves by at most exp(eps)."""
        rng = np.random.default_rng(seed)
        idx = int(rng.integers(0, len(scores)))
        delta = float(rng.uniform(-1, 1))
        perturbed = list(scores)
        perturbed[idx] += delta
        p = exponential_probabilities(scores, eps, 1.0)
        q = exponential_probabilities(perturbed, eps, 1.0)
        ratios = np.log(p) - np.log(q)
        assert np.max(np.abs(ratios)) <= eps + 1e-6


class TestLaplaceMechanismDp:
    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_density_ratio_bounded(self, eps):
        """Laplace density ratio between neighbours is bounded by
        exp(eps) pointwise (checked on a dense grid)."""
        scale = 1.0 / eps

        def density(x):
            return np.exp(-np.abs(x) / scale) / (2 * scale)

        xs = np.linspace(-20, 20, 10_001)
        ratio = density(xs) / density(xs - 1.0)  # inputs differing by 1
        assert np.max(ratio) <= np.exp(eps) + 1e-9
        # ...and the bound is achieved (tightness).
        assert np.max(ratio) >= np.exp(eps) - 1e-6
