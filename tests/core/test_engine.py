"""Tests for the RangeEngine (answers + error bars)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.boost import Boost
from repro.baselines.dwork import DworkIdentity
from repro.core import NoiseFirst, RangeEngine, StructureFirst
from repro.hist.histogram import Histogram
from repro.verify.oracles import oracle_from_result


@pytest.fixture
def flat_hist():
    return Histogram.from_counts(np.full(64, 100.0))


class TestBasics:
    def test_estimate_matches_histogram(self, flat_hist):
        result = DworkIdentity().publish(flat_hist, budget=1.0, rng=0)
        engine = RangeEngine(result)
        answer = engine.range(3, 10)
        assert answer.estimate == pytest.approx(
            result.histogram.range_sum(3, 10)
        )

    def test_total(self, flat_hist):
        result = DworkIdentity().publish(flat_hist, budget=1.0, rng=0)
        engine = RangeEngine(result)
        assert engine.total().estimate == pytest.approx(
            result.histogram.total
        )

    def test_rejects_non_result(self):
        with pytest.raises(TypeError):
            RangeEngine("not a result")

    def test_out_of_range_query(self, flat_hist):
        result = DworkIdentity().publish(flat_hist, budget=1.0, rng=0)
        with pytest.raises(ValueError):
            RangeEngine(result).range(0, 64)

    def test_interval_and_str(self, flat_hist):
        result = DworkIdentity().publish(flat_hist, budget=1.0, rng=0)
        answer = RangeEngine(result).range(0, 7)
        lo, hi = answer.interval()
        assert lo < answer.estimate < hi
        assert "±" in str(answer)


class TestErrorBars:
    def test_dwork_std_formula(self, flat_hist):
        eps = 0.5
        result = DworkIdentity().publish(flat_hist, budget=eps, rng=0)
        answer = RangeEngine(result).range(0, 9)  # length 10
        assert answer.std == pytest.approx(np.sqrt(10 * 2 / eps**2))

    def test_structurefirst_full_bucket_cheaper_than_dwork(self, flat_hist):
        eps = 0.5
        sf = StructureFirst(k=8, structure_mode="uniform").publish(
            flat_hist, budget=eps, rng=0
        )
        dw = DworkIdentity().publish(flat_hist, budget=eps, rng=0)
        # Full domain: SF has 8 noise terms, Dwork has 64.
        sf_std = RangeEngine(sf).total().std
        dw_std = RangeEngine(dw).total().std
        assert sf_std < dw_std

    def test_noisefirst_identity_case(self, flat_hist):
        """When NF publishes raw noisy counts (k = n), the error bar is
        the identity law."""
        eps = 100.0  # forces k* = n on flat-ish data? use fixed max_k trick
        result = NoiseFirst(max_k=2).publish(flat_hist, budget=eps, rng=0)
        if result.meta["partition"] is None:
            answer = RangeEngine(result).range(0, 3)
            assert answer.std == pytest.approx(np.sqrt(4 * 2 / eps**2))

    def test_unknown_publisher_has_no_model(self, flat_hist):
        result = Boost().publish(flat_hist, budget=1.0, rng=0)
        engine = RangeEngine(result)
        assert not engine.has_error_model
        assert engine.range(0, 3).std is None
        assert engine.range(0, 3).interval() is None


class TestCalibration:
    """The advertised std must match the actual noise distribution."""

    @pytest.mark.parametrize("factory,kwargs", [
        (DworkIdentity, {}),
        (NoiseFirst, {"k": 8}),
        (StructureFirst, {"k": 8, "structure_mode": "uniform"}),
    ])
    def test_std_is_calibrated(self, flat_hist, factory, kwargs):
        eps = 1.0
        lo, hi = 5, 40
        truth = flat_hist.range_sum(lo, hi)
        errors, stds = [], []
        for seed in range(800):
            result = factory(**kwargs).publish(flat_hist, budget=eps, rng=seed)
            answer = RangeEngine(result).range(lo, hi)
            errors.append(answer.estimate - truth)
            stds.append(answer.std)
        # NoiseFirst's adaptive structure varies per seed; compare the
        # empirical spread to the mean advertised std.
        empirical = float(np.std(errors))
        advertised = float(np.mean(stds))
        assert empirical == pytest.approx(advertised, rel=0.15)

    def test_interval_coverage(self, flat_hist):
        """~95% of 1.96-sigma intervals contain the true range sum (the
        noise is Laplace-ish, so coverage is near but not exactly the
        Gaussian number; accept a generous band)."""
        eps = 1.0
        lo, hi = 0, 31
        truth = flat_hist.range_sum(lo, hi)
        covered = 0
        n_runs = 600
        for seed in range(n_runs):
            result = DworkIdentity().publish(flat_hist, budget=eps, rng=seed)
            low, high = RangeEngine(result).range(lo, hi).interval()
            covered += int(low <= truth <= high)
        assert 0.90 <= covered / n_runs <= 0.995


#: (oracle name, publisher factory taking a bucket count and a
#: neighbouring-dataset convention).
_WITH_ERROR_MODEL = [
    ("noisefirst", lambda k, nb: NoiseFirst(neighbours=nb)),
    ("noisefirst", lambda k, nb: NoiseFirst(k=k, neighbours=nb)),
    ("structurefirst", lambda k, nb: StructureFirst(k=k)),
    ("dwork", lambda k, nb: DworkIdentity(neighbours=nb)),
]


@st.composite
def _range_on_a_publish(draw):
    counts = draw(st.lists(st.integers(0, 60), min_size=1, max_size=16))
    n = len(counts)
    name, factory = draw(st.sampled_from(_WITH_ERROR_MODEL))
    k = draw(st.integers(1, n))
    neighbours = draw(st.sampled_from(["unbounded", "bounded"]))
    epsilon = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    seed = draw(st.integers(0, 2**16))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    hist = Histogram.from_counts(np.asarray(counts, dtype=float))
    return name, factory(k, neighbours), hist, epsilon, seed, lo, hi


class TestAgreesWithOracle:
    """The engine's per-bucket range law is the oracle's covariance sum."""

    @settings(max_examples=150, deadline=None)
    @given(_range_on_a_publish())
    def test_std_squared_is_the_oracle_range_variance(self, case):
        name, publisher, hist, epsilon, seed, lo, hi = case
        result = publisher.publish(hist, budget=epsilon, rng=seed)
        engine = RangeEngine(result).range(lo, hi).std ** 2
        oracle = oracle_from_result(name, hist, epsilon, result)
        assert math.isclose(engine, oracle.range_variance(lo, hi),
                            rel_tol=1e-12)


class TestBoundedNeighbours:
    """Bounded neighbours double the Laplace sensitivity, so the noise
    variance is 4x the unbounded one; error bars and oracles must say so.

    Four well-separated steps pin NoiseFirst's k=4 partition to the
    steps, so the 4-bin range [0, 3] is one whole bucket for every seed.
    """

    @pytest.mark.parametrize("name,publisher", [
        ("noisefirst", NoiseFirst(k=4, neighbours="bounded")),
        ("dwork", DworkIdentity(neighbours="bounded")),
    ])
    def test_range_variance_matches_measured(self, name, publisher):
        hist = Histogram.from_counts(np.repeat([0.0, 1e3, 2e3, 3e3], 4))
        eps = 1.0
        sums = [
            publisher.publish(hist, budget=eps, rng=seed).histogram
            .range_sum(0, 3)
            for seed in range(2000)
        ]
        measured = float(np.var(sums))
        assert measured == pytest.approx(32.0, rel=0.1)  # 4 bins * 8/eps^2
        result = publisher.publish(hist, budget=eps, rng=0)
        engine = RangeEngine(result).range(0, 3).std ** 2
        oracle = oracle_from_result(name, hist, eps, result)
        assert engine == pytest.approx(measured, rel=0.1)
        assert oracle.range_variance(0, 3) == pytest.approx(measured,
                                                            rel=0.1)
