"""Process-pool execution of ``supervise``: determinism and plumbing.

The contract under test: a parallel run is *bit-identical* to a serial
run in every statistical field (only wall-clock may differ), because
each seed owns an independent child RNG constructed from the integer
seed alone.
"""

import os
import warnings

import numpy as np
import pytest

from repro.baselines.dwork import DworkIdentity
from repro.core import NoiseFirst, StructureFirst
from repro.datasets.generators import step_histogram
from repro.experiments.runner import (
    records_equal,
    resolve_n_jobs,
    run_once,
    strip_timing,
)
from repro.experiments.spec import ExperimentSpec
from repro.robust.executor import supervise
from repro.workloads.builders import unit_queries


@pytest.fixture(scope="module")
def step_hist():
    return step_histogram(32, 4, total=20_000, rng=7)


def _spec(hist, factory=DworkIdentity, seeds=(0, 1, 2, 3), n_jobs=1):
    return ExperimentSpec(
        name="par",
        histogram=hist,
        publisher_factory=factory,
        epsilon=0.5,
        workloads=(unit_queries(hist.size),),
        seeds=seeds,
        n_jobs=n_jobs,
    )


class TestResolveNJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_minus_one_uses_all_cpus(self):
        assert resolve_n_jobs(-1) == max(os.cpu_count() or 1, 1)

    def test_positive_passthrough(self):
        assert resolve_n_jobs(3) == 3

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            resolve_n_jobs(bad)

    @pytest.mark.parametrize("bad", [2.5, "4", True])
    def test_rejects_non_integer(self, bad):
        with pytest.raises(TypeError):
            resolve_n_jobs(bad)

    def test_accepts_numpy_integer(self):
        assert resolve_n_jobs(np.int64(3)) == 3

    def test_oversubscription_is_allowed(self):
        # More workers than CPUs is wasteful but legal.
        assert resolve_n_jobs(4096) == 4096


class TestSpecNJobs:
    def test_default_is_serial(self, step_hist):
        assert _spec(step_hist).n_jobs == 1

    def test_minus_one_allowed(self, step_hist):
        assert _spec(step_hist, n_jobs=-1).n_jobs == -1

    def test_rejects_zero(self, step_hist):
        with pytest.raises(ValueError):
            _spec(step_hist, n_jobs=0)

    def test_rejects_bool(self, step_hist):
        with pytest.raises(TypeError):
            _spec(step_hist, n_jobs=True)


class TestParallelBitIdentical:
    @pytest.mark.parametrize("factory", [DworkIdentity, NoiseFirst,
                                         StructureFirst])
    def test_parallel_matches_serial(self, step_hist, factory):
        spec = _spec(step_hist, factory=factory)
        serial = supervise([spec], n_jobs=1)[0]
        parallel = supervise([spec], n_jobs=4)[0]
        assert len(serial) == len(parallel) == len(spec.seeds)
        for a, b in zip(serial, parallel):
            assert records_equal(a, b), (a.seed, b.seed)

    def test_spec_n_jobs_is_the_default(self, step_hist):
        spec = _spec(step_hist, n_jobs=2)
        parallel = supervise([spec])[0]  # no override: uses spec.n_jobs=2
        serial = supervise([spec], n_jobs=1)[0]
        for a, b in zip(serial, parallel):
            assert records_equal(a, b)

    def test_seed_order_preserved(self, step_hist):
        spec = _spec(step_hist, seeds=(5, 3, 11, 2))
        records = supervise([spec], n_jobs=4)[0]
        assert [r.seed for r in records] == [5, 3, 11, 2]

    def test_unpicklable_spec_falls_back_to_serial(self, step_hist):
        spec = _spec(step_hist, factory=lambda: DworkIdentity())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = supervise([spec], n_jobs=4)[0]
        assert len(records) == len(spec.seeds)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        # Fallback still produces the same numbers as an explicit serial run.
        serial = supervise([spec], n_jobs=1)[0]
        for a, b in zip(serial, records):
            assert records_equal(a, b)

    def test_single_seed_stays_serial(self, step_hist):
        # No pool spin-up for one seed; result identical either way.
        spec = _spec(step_hist, seeds=(9,))
        a = supervise([spec], n_jobs=4)[0]
        b = supervise([spec], n_jobs=1)[0]
        assert records_equal(a[0], b[0])


class TestRecordMetadata:
    def test_run_once_times_publish_and_eval_separately(self, step_hist):
        record = run_once(
            step_hist, DworkIdentity(), 0.5,
            [unit_queries(step_hist.size)], seed=0,
        )
        assert record.seconds >= 0.0
        assert record.meta["t_eval_seconds"] >= 0.0

    def test_run_matrix_injects_spec_epsilon(self, step_hist):
        records = supervise([_spec(step_hist)])[0]
        for record in records:
            assert record.meta["spec_epsilon"] == 0.5
            assert record.epsilon == 0.5

    def test_strip_timing_removes_wallclock_only(self, step_hist):
        record = supervise([_spec(step_hist, seeds=(0,))])[0][0]
        stripped = strip_timing(record)
        assert stripped.seconds == 0.0
        # Reserved timing keys are *removed*, not zeroed, so records with
        # different reserved subsets (traced vs. untraced) compare equal.
        assert "t_eval_seconds" not in stripped.meta
        assert "trace" not in stripped.meta
        assert stripped.kl == record.kl
        assert stripped.workload_errors == record.workload_errors

    def test_records_equal_ignores_timing_by_default(self, step_hist):
        spec = _spec(step_hist, seeds=(0,))
        a = supervise([spec])[0][0]
        b = supervise([spec])[0][0]
        assert a.seconds != 0.0 or b.seconds != 0.0 or True
        assert records_equal(a, b)
        assert not records_equal(
            a, b, ignore_timing=False
        ) or a.seconds == b.seconds

    def test_records_equal_detects_statistical_differences(self, step_hist):
        spec_a = _spec(step_hist, seeds=(0,))
        spec_b = _spec(step_hist, seeds=(1,))
        a = supervise([spec_a])[0][0]
        b = supervise([spec_b])[0][0]
        assert not records_equal(a, b)


class TestNumpyArrayMeta:
    def test_records_equal_handles_array_meta(self, step_hist):
        # NoiseFirst stores numpy arrays in meta; plain == would raise.
        spec = _spec(step_hist, factory=NoiseFirst, seeds=(0,))
        a = supervise([spec])[0][0]
        b = supervise([spec])[0][0]
        assert isinstance(
            a.meta.get("noisy_sse_by_k"), (np.ndarray, type(None))
        )
        assert records_equal(a, b)


class TestNaNAwareEquality:
    """Regression: ``records_equal`` used plain ``==`` on metric floats,
    so any record with a NaN metric compared unequal *to itself*."""

    def _record(self, step_hist):
        return supervise([_spec(step_hist, seeds=(0,))])[0][0]

    def test_record_with_nan_metric_equals_itself(self, step_hist):
        import dataclasses

        nanned = dataclasses.replace(
            self._record(step_hist), kl=float("nan"), ks=float("nan")
        )
        assert records_equal(nanned, nanned)
        assert records_equal(nanned, dataclasses.replace(nanned))

    def test_nan_does_not_equal_a_number(self, step_hist):
        import dataclasses

        record = self._record(step_hist)
        nanned = dataclasses.replace(record, kl=float("nan"))
        assert not records_equal(record, nanned)
        assert not records_equal(nanned, record)

    def test_nan_inside_array_meta_compares_equal(self, step_hist):
        import dataclasses

        record = self._record(step_hist)
        arr = np.array([1.0, np.nan, 3.0])
        a = dataclasses.replace(record, meta={**record.meta, "arr": arr})
        b = dataclasses.replace(
            record, meta={**record.meta, "arr": arr.copy()}
        )
        assert records_equal(a, b)

    def test_array_dtype_mismatch_detected(self, step_hist):
        import dataclasses

        record = self._record(step_hist)
        a = dataclasses.replace(
            record,
            meta={**record.meta, "arr": np.array([1.0, 2.0])},
        )
        b = dataclasses.replace(
            record,
            meta={**record.meta, "arr": np.array([1, 2])},
        )
        assert not records_equal(a, b)


class _CountingFactory:
    """Publisher factory that counts how often it is pickled.

    The counter lives on the class in the *parent* process; workers
    unpickle (``__setstate__``) so their side never increments it.
    """

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return {}

    def __setstate__(self, state):
        pass

    def __call__(self):
        return DworkIdentity()


class TestSpecShippedOncePerPool:
    """Regression for the old ``pool.map(_run_seed, [spec] * n, seeds)``
    dispatch, which re-pickled the whole spec (histogram included) for
    every seed.  The supervised executor ships it exactly once, through
    the pool initializer."""

    def test_spec_pickled_once_for_many_seeds(self, step_hist):
        spec = _spec(
            step_hist, factory=_CountingFactory(),
            seeds=tuple(range(8)),
        )
        serial = supervise([spec], n_jobs=1)[0]

        _CountingFactory.pickles = 0
        parallel = supervise([spec], n_jobs=2)[0]
        assert _CountingFactory.pickles == 1  # probe == payload
        # Shipping once changes nothing statistically.
        for a, b in zip(serial, parallel):
            assert records_equal(a, b)

    def test_serial_run_never_pickles(self, step_hist):
        spec = _spec(step_hist, factory=_CountingFactory(), seeds=(0, 1))
        _CountingFactory.pickles = 0
        supervise([spec], n_jobs=1)
        assert _CountingFactory.pickles == 0


class TestSerialFallbackUnderSupervision:
    def test_unpicklable_spec_with_journal_still_journals(
        self, step_hist, tmp_path
    ):
        """The serial fallback is a full citizen of the supervised path:
        retries, journaling and resume all still work."""
        from repro.robust.journal import CheckpointJournal, spec_fingerprint

        spec = _spec(step_hist, factory=lambda: DworkIdentity())
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = supervise([spec], n_jobs=4, journal=journal, retries=1)[0]
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "not picklable" in str(w.message)
            for w in caught
        )
        done = journal.seeds_done(spec_fingerprint(spec))
        assert sorted(done) == sorted(spec.seeds)
        resumed = supervise([spec], n_jobs=1, journal=journal, resume=True)[0]
        for a, b in zip(records, resumed):
            assert records_equal(a, b)

    def test_timeout_in_serial_mode_warns_unenforced(self, step_hist):
        spec = _spec(step_hist, seeds=(0, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            supervise([spec], n_jobs=1, timeout=5.0)
        assert any(
            "not enforced in serial" in str(w.message) for w in caught
        )
