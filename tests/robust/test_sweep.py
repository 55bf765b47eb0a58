"""Sweep building blocks behind ``python -m repro run``."""

import pytest

from repro.robust.journal import spec_fingerprint
from repro.robust.records import FailedRecord
from repro.robust.sweep import (
    build_sweep_specs,
    run_sweep,
    sweep_publishers,
    sweep_table,
)

QUICK = dict(
    dataset="age", n_bins=16, total=5_000, publishers=["dwork"],
    epsilons=(0.5,), n_seeds=2,
)


class TestBuildSweepSpecs:
    def test_expands_roster_times_epsilons(self):
        specs = build_sweep_specs(
            dataset="age", n_bins=16, total=5_000,
            publishers=["dwork", "boost"], epsilons=(0.1, 0.5), n_seeds=2,
        )
        assert [s.name for s in specs] == [
            "sweep/age/dwork/eps=0.1",
            "sweep/age/dwork/eps=0.5",
            "sweep/age/boost/eps=0.1",
            "sweep/age/boost/eps=0.5",
        ]
        assert all(s.seeds == (0, 1) for s in specs)

    def test_default_roster_is_the_figures_roster(self):
        specs = build_sweep_specs(
            dataset="age", n_bins=16, total=5_000, epsilons=(0.1,),
        )
        assert len(specs) == len(sweep_publishers())

    def test_same_args_same_fingerprints(self):
        """The --resume contract: rebuilt specs hit the same journal keys."""
        first = build_sweep_specs(**QUICK)
        second = build_sweep_specs(**QUICK)
        assert [spec_fingerprint(s) for s in first] == [
            spec_fingerprint(s) for s in second
        ]

    def test_n_jobs_does_not_change_fingerprints(self):
        a = build_sweep_specs(**QUICK, n_jobs=1)
        b = build_sweep_specs(**QUICK, n_jobs=4)
        assert spec_fingerprint(a[0]) == spec_fingerprint(b[0])

    def test_unknown_publisher_rejected(self):
        with pytest.raises(ValueError, match="unknown publisher"):
            build_sweep_specs(publishers=["nope"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep dataset"):
            build_sweep_specs(dataset="census2090")

    def test_nonpositive_seeds_rejected(self):
        with pytest.raises(ValueError, match="n_seeds"):
            build_sweep_specs(n_seeds=0)


class TestRunSweepAndTable:
    def test_clean_sweep_renders_without_failures(self, no_sleep, tmp_path):
        specs = build_sweep_specs(**QUICK)
        results = run_sweep(
            specs, n_jobs=1, journal=str(tmp_path / "j.jsonl"),
            sleep=no_sleep,
        )
        table, failures = sweep_table(results)
        assert failures == []
        (row,) = table.rows
        assert row[0] == "sweep/age/dwork/eps=0.5"
        assert row[1] == 2 and row[2] == 0
        assert row[3] != "n/a"

    def test_failed_cells_are_reported_not_fatal(
        self, fault_env, no_sleep
    ):
        specs = build_sweep_specs(**QUICK)
        clean = run_sweep(specs, n_jobs=1)[specs[0].name][0]  # seed 0
        fault_env([{"action": "raise", "seed": 1}])
        results = run_sweep(specs, n_jobs=1, retries=0, sleep=no_sleep)
        table, failures = sweep_table(results)
        assert len(failures) == 1
        assert isinstance(failures[0], FailedRecord)
        (row,) = table.rows
        assert row[1] == 1 and row[2] == 1  # one ok, one quarantined
        # The means are those of the surviving seed alone.
        assert row[3] == f"{clean.kl:.4g}"
        assert row[4] == f"{clean.metric('unit', 'mse'):.4g}"

    def test_all_failed_cell_renders_na(self, fault_env, no_sleep):
        specs = build_sweep_specs(**QUICK)
        fault_env([{"action": "raise"}])  # every seed poisoned
        results = run_sweep(specs, n_jobs=1, retries=0, sleep=no_sleep)
        table, failures = sweep_table(results)
        assert len(failures) == 2
        (row,) = table.rows
        assert row[1] == 0 and row[3] == "n/a" and row[4] == "n/a"


class TestResumeReadsTheJournalOnce:
    @pytest.mark.parametrize("cells_done", [4, 2])
    def test_each_journal_line_is_parsed_once(self, tmp_path, monkeypatch,
                                              cells_done):
        """A finished journal (4 of 4 cells) resumes without dispatching;
        a half-finished one runs only its missing cells.  Either way each
        journal line is parsed once per resume."""
        import collections
        import json

        from repro.experiments.runner import records_equal
        from repro.obs.monitor import ExecutorObserver

        class Dispatches(ExecutorObserver):
            seeds = 0

            def on_dispatch(self, spec_name, seeds):
                self.seeds += len(seeds)

        specs = build_sweep_specs(**dict(
            QUICK, publishers=["dwork", "boost"], epsilons=(0.1, 0.5),
        ))
        journal = tmp_path / "j.jsonl"
        original = run_sweep(specs, n_jobs=1)
        first_run = Dispatches()
        run_sweep(specs[:cells_done], n_jobs=1, journal=str(journal),
                  observer=first_run)
        assert first_run.seeds == 2 * cells_done

        parsed = collections.Counter()
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed[text] += 1
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        resume = Dispatches()
        resumed = run_sweep(specs, n_jobs=1, journal=str(journal),
                            resume=True, observer=resume)
        monkeypatch.undo()

        lines = journal.read_text().splitlines()
        assert len(lines) == 2 * len(specs) == 8
        assert parsed == collections.Counter(lines)  # each line once
        assert resume.seeds == 2 * (len(specs) - cells_done)
        assert list(resumed) == list(original)
        for name, records in original.items():
            assert len(resumed[name]) == len(records)
            for before, after in zip(records, resumed[name]):
                assert records_equal(before, after)
