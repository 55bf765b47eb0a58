"""Distributional checks of the noise mechanisms themselves.

Every sampler in :mod:`repro.mechanisms` is tested against its exact
target distribution with a goodness-of-fit test.  All streams are named
and seeded (see :class:`~repro.verify.streams.StreamAllocator`), so a
failure here reproduces bit-for-bit; the per-test significance level is
Bonferroni-corrected so the whole module's false-alarm rate stays below
``FAMILY_ALPHA`` even as tests are added.
"""

import numpy as np
import pytest

from repro.mechanisms.exponential import (
    exponential_mechanism,
    exponential_probabilities,
    gumbel_argmax,
)
from repro.mechanisms.laplace import laplace_noise, laplace_scale
from repro.verify.stats import (
    bonferroni_alpha,
    chi_square_test,
    ks_test,
    laplace_cdf,
)
from repro.verify.streams import StreamAllocator

pytestmark = pytest.mark.statistical

STREAMS = StreamAllocator(20240131, namespace="tests.verify.mechanisms")

#: Family-wise false-alarm budget for this module, split over the tests.
FAMILY_ALPHA = 1e-3
N_GOF_TESTS = 6
ALPHA = bonferroni_alpha(FAMILY_ALPHA, N_GOF_TESTS)

N_SAMPLES = 4000


class TestLaplaceMechanism:
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 5.0])
    def test_noise_matches_laplace_cdf(self, epsilon):
        gen = STREAMS.generator(f"laplace/eps={epsilon}")
        samples = laplace_noise(epsilon, size=N_SAMPLES, rng=gen)
        scale = laplace_scale(epsilon)
        result = ks_test(samples, lambda x: laplace_cdf(x, scale=scale))
        assert result.passes(ALPHA), STREAMS.describe(f"laplace/eps={epsilon}")

    def test_sensitivity_scales_the_noise(self):
        gen = STREAMS.generator("laplace/sens=3")
        samples = laplace_noise(0.5, size=N_SAMPLES, sensitivity=3.0, rng=gen)
        scale = laplace_scale(0.5, sensitivity=3.0)
        assert scale == pytest.approx(6.0)
        result = ks_test(samples, lambda x: laplace_cdf(x, scale=scale))
        assert result.passes(ALPHA), STREAMS.describe("laplace/sens=3")

    def test_wrong_scale_would_be_caught(self):
        # Power check: a 25% mis-calibration must be flagged at this
        # sample size, or the passing tests above prove nothing.
        gen = STREAMS.generator("laplace/power")
        samples = laplace_noise(1.0, size=N_SAMPLES, rng=gen)
        result = ks_test(samples, lambda x: laplace_cdf(x, scale=1.25))
        assert not result.passes(ALPHA)


class TestExponentialMechanism:
    SCORES = np.array([0.0, 1.0, 3.0, 3.5, -2.0])

    def _frequencies(self, draw, stream_name, n_draws=3000):
        gen = STREAMS.generator(stream_name)
        counts = np.zeros(len(self.SCORES))
        for _ in range(n_draws):
            counts[draw(self.SCORES, 1.5, 1.0, rng=gen)] += 1
        return counts

    def test_softmax_sampler_matches_exact_probabilities(self):
        observed = self._frequencies(exponential_mechanism, "em/softmax")
        expected = exponential_probabilities(self.SCORES, 1.5, 1.0)
        result = chi_square_test(observed, expected * observed.sum())
        assert result.passes(ALPHA), STREAMS.describe("em/softmax")

    def test_gumbel_trick_matches_exact_probabilities(self):
        observed = self._frequencies(gumbel_argmax, "em/gumbel")
        expected = exponential_probabilities(self.SCORES, 1.5, 1.0)
        result = chi_square_test(observed, expected * observed.sum())
        assert result.passes(ALPHA), STREAMS.describe("em/gumbel")

    def test_uniform_hypothesis_would_be_rejected(self):
        # Power check: the selection is far from uniform at eps=1.5.
        observed = self._frequencies(exponential_mechanism, "em/power")
        uniform = np.full(len(self.SCORES), observed.sum() / len(self.SCORES))
        result = chi_square_test(observed, uniform)
        assert not result.passes(ALPHA)
