"""One supervisor and one process pool for every cell of a sweep.

``run_sweep`` drives each (spec, seed) cell through one supervised pool:
the specs are shipped once, waves of at most ``n_jobs`` cells span
specs, and retries, crash probes, timeouts and quarantine stay per cell.
"""

import pytest

from repro.experiments.runner import records_equal
from repro.robust import executor
from repro.robust.journal import CheckpointJournal
from repro.robust.records import is_failed
from repro.robust.sweep import run_sweep


@pytest.fixture
def specs(make_spec):
    """Three specs of two seeds each: six cells."""
    return [
        make_spec(seeds=(0, 1), name=f"cell-{i}", epsilon=eps)
        for i, eps in enumerate((0.25, 0.5, 1.0))
    ]


@pytest.fixture
def pool_starts(monkeypatch):
    """Count the pools the executor constructs, by the name it uses."""
    starts = []

    class CountingPool(executor.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor, "ProcessPoolExecutor", CountingPool)
    return starts


def _assert_equal_sweeps(expected, actual):
    assert list(expected) == list(actual)
    for name, records in expected.items():
        assert len(records) == len(actual[name])
        for a, b in zip(records, actual[name]):
            assert records_equal(a, b), (name, a.seed)


class TestOnePool:
    def test_pooled_records_equal_serial(self, specs, no_sleep):
        serial = run_sweep(specs, n_jobs=1, sleep=no_sleep)
        pooled = run_sweep(specs, n_jobs=2, sleep=no_sleep)
        _assert_equal_sweeps(serial, pooled)

    def test_one_pool_per_sweep_and_none_for_a_finished_resume(
        self, specs, pool_starts, tmp_path, no_sleep
    ):
        journal = tmp_path / "j.jsonl"
        first = run_sweep(specs, n_jobs=2, journal=str(journal),
                          sleep=no_sleep)
        assert pool_starts == [2]
        resumed = run_sweep(specs, n_jobs=2, journal=str(journal),
                            resume=True, sleep=no_sleep)
        assert pool_starts == [2]
        _assert_equal_sweeps(first, resumed)

    def test_fault_free_journal_in_spec_then_seed_order(
        self, specs, tmp_path, no_sleep
    ):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        run_sweep(specs, n_jobs=2, journal=journal, sleep=no_sleep)
        keys = [(e["key"]["spec_name"], e["key"]["seed"])
                for e in journal.entries()]
        assert keys == [(s.name, seed) for s in specs for seed in s.seeds]

    def test_one_run_start_and_end_per_spec(self, specs, no_sleep):
        events = []

        class Recorder:
            def on_run_start(self, spec_name, total_seeds, resumed):
                events.append(("start", spec_name))

            def on_dispatch(self, spec_name, seeds):
                events.append(("dispatch", spec_name))

            def on_seed_done(self, spec_name, seed, record):
                events.append(("done", spec_name))

            def on_run_end(self, spec_name):
                events.append(("end", spec_name))

        run_sweep(specs, n_jobs=4, observer=Recorder(), sleep=no_sleep)
        for spec in specs:
            mine = [kind for kind, name in events if name == spec.name]
            assert mine.count("start") == mine.count("end") == 1
            assert mine[0] == "start" and mine[-1] == "end"
            assert mine.count("done") == len(spec.seeds)
        # A wave of four cells spans two specs: one dispatch each.
        assert events[:4] == [
            ("start", "cell-0"), ("dispatch", "cell-0"),
            ("start", "cell-1"), ("dispatch", "cell-1"),
        ]


@pytest.mark.chaos
class TestFaultsStayPerCell:
    def test_kill_in_a_middle_cell_quarantines_only_that_seed(
        self, specs, fault_env, no_sleep
    ):
        serial = run_sweep(specs, n_jobs=1, sleep=no_sleep)
        fault_env([{"action": "kill", "spec_name": "cell-1", "seed": 1}])
        pooled = run_sweep(specs, n_jobs=2, retries=1, sleep=no_sleep)
        failed = pooled["cell-1"][1]
        assert is_failed(failed)
        assert "WorkerCrashError" in failed.cause
        assert failed.attempts == 2
        for name, records in serial.items():
            for a, b in zip(records, pooled[name]):
                if (name, a.seed) != ("cell-1", 1):
                    assert records_equal(a, b), (name, a.seed)

    def test_hang_timeout_still_journals_its_wave_mates(
        self, make_spec, fault_env, no_sleep, tmp_path
    ):
        """Waves span specs: the one-seed spec ``a`` shares its wave with
        ``b``'s seed 0.  ``a`` hangs once and is killed by the timeout;
        ``b``'s finished record is journaled before ``a`` is retried."""
        specs = [make_spec(seeds=(0,), name="a"),
                 make_spec(seeds=(0, 1), name="b")]
        serial = run_sweep(specs, n_jobs=1, sleep=no_sleep)
        fault_env([{"action": "hang", "spec_name": "a", "seed": 0,
                    "times": 1, "hang_seconds": 60}])
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        pooled = run_sweep(specs, n_jobs=2, timeout=2.0, retries=1,
                           journal=journal, sleep=no_sleep)
        _assert_equal_sweeps(serial, pooled)
        keys = [(e["key"]["spec_name"], e["key"]["seed"])
                for e in journal.entries()]
        assert sorted(keys) == [("a", 0), ("b", 0), ("b", 1)]
        assert keys.index(("b", 0)) < keys.index(("a", 0))
