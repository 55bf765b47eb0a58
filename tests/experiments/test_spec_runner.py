"""Tests for ExperimentSpec and the runner."""

import pytest

from repro.baselines.dwork import DworkIdentity
from repro.experiments.runner import (
    RunRecord,
    run_cells,
    run_once,
    seed_mean,
    workload_mses,
)
from repro.experiments.spec import ExperimentSpec
from repro.robust.executor import supervise
from repro.robust.records import FailedRecord
from repro.workloads.builders import fixed_length_ranges, unit_queries


class TestSpec:
    def test_valid_spec(self, small_hist):
        spec = ExperimentSpec(
            name="t",
            histogram=small_hist,
            publisher_factory=DworkIdentity,
            epsilon=0.5,
            workloads=(unit_queries(small_hist.size),),
        )
        assert spec.seeds == (0, 1, 2)

    def test_rejects_workload_size_mismatch(self, small_hist):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="t",
                histogram=small_hist,
                publisher_factory=DworkIdentity,
                epsilon=0.5,
                workloads=(unit_queries(small_hist.size + 1),),
            )

    def test_rejects_bad_epsilon(self, small_hist):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="t",
                histogram=small_hist,
                publisher_factory=DworkIdentity,
                epsilon=0.0,
            )

    def test_rejects_empty_seeds(self, small_hist):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="t",
                histogram=small_hist,
                publisher_factory=DworkIdentity,
                epsilon=0.5,
                seeds=(),
            )

    def test_rejects_non_callable_factory(self, small_hist):
        with pytest.raises(TypeError):
            ExperimentSpec(
                name="t",
                histogram=small_hist,
                publisher_factory="dwork",
                epsilon=0.5,
            )


class TestRunOnce:
    def test_record_fields(self, small_hist):
        w = unit_queries(small_hist.size)
        record = run_once(small_hist, DworkIdentity(), 0.5, [w], seed=0)
        assert record.publisher == "dwork"
        assert record.epsilon == 0.5
        assert record.seconds >= 0
        assert record.kl >= 0
        assert 0 <= record.ks <= 1
        assert record.metric("unit", "mse") > 0

    def test_metric_unknown_workload_raises(self, small_hist):
        record = run_once(small_hist, DworkIdentity(), 0.5, [], seed=0)
        with pytest.raises(KeyError):
            record.metric("unit", "mse")


class TestRunMatrix:
    def test_one_record_per_seed(self, small_hist):
        spec = ExperimentSpec(
            name="t",
            histogram=small_hist,
            publisher_factory=DworkIdentity,
            epsilon=0.5,
            seeds=(0, 1, 2, 3),
        )
        records = supervise([spec])[0]
        assert [r.seed for r in records] == [0, 1, 2, 3]

    def test_deterministic_across_runs(self, small_hist):
        spec = ExperimentSpec(
            name="t",
            histogram=small_hist,
            publisher_factory=DworkIdentity,
            epsilon=0.5,
            workloads=(unit_queries(small_hist.size),),
        )
        a = supervise([spec])[0]
        b = supervise([spec])[0]
        for ra, rb in zip(a, b):
            assert ra.metric("unit", "mse") == rb.metric("unit", "mse")


class TestSeedMean:
    """The one reader of a cell's records: the mean over its successful
    seeds; quarantined seeds are skipped, and a cell without any has no
    mean."""

    @staticmethod
    def _record(seed, kl):
        return RunRecord(spec_name="t", publisher="p", seed=seed,
                         epsilon=0.1, seconds=0.0, kl=kl, ks=0.0)

    @staticmethod
    def _failed(seed):
        return FailedRecord(spec_name="t", publisher="p", seed=seed,
                            epsilon=0.1, error="TrialQuarantinedError")

    def test_mean_skips_failed_records(self):
        records = [self._record(0, 1.0), self._failed(1),
                   self._record(2, 4.0)]
        assert seed_mean(records, lambda r: r.kl) == 2.5

    @pytest.mark.parametrize("seeds", [(), (0, 1)])
    def test_no_successful_record_has_no_mean(self, seeds):
        with pytest.raises(ValueError):
            seed_mean([self._failed(s) for s in seeds], lambda r: r.kl)


class TestRunCells:
    """An experiment's keyed cells run in one supervise call and come
    back under their keys, each in seed order."""

    def test_records_keyed_like_the_cells(self, small_hist):
        n = small_hist.size
        workloads = (unit_queries(n), fixed_length_ranges(n, n // 2))
        cells = {
            (name, eps): ExperimentSpec(
                name=f"cell/{name}/{eps:g}", histogram=small_hist,
                publisher_factory=DworkIdentity, epsilon=eps,
                workloads=workloads, seeds=(2, 0, 1),
            )
            for name in ("a", "b") for eps in (0.5, 1.0)
        }
        records = run_cells(cells)
        assert list(records) == list(cells)
        for key, spec in cells.items():
            assert [r.seed for r in records[key]] == [2, 0, 1]
            assert {r.epsilon for r in records[key]} == {spec.epsilon}
        cell = records["a", 0.5]
        assert workload_mses(cell, workloads) == [
            seed_mean(cell, lambda r: r.metric("unit", "mse")),
            seed_mean(cell, lambda r: r.metric(f"len-{n // 2}", "mse")),
        ]
