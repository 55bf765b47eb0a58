"""Chaos suite: every recovery path of the supervised executor, proven
with deterministic fault injection.

The invariant under test throughout: supervision never changes *what* is
computed.  A matrix that survives kills, hangs and retries produces
records bit-identical (``records_equal``) to an undisturbed serial run,
because every trial's RNG is derived from its integer seed alone.
"""

import pytest

from repro.exceptions import (
    TrialTimeoutError,
    WorkerCrashError,
)
from repro.experiments.runner import records_equal
from repro.robust.executor import supervise
from repro.robust.faults import InjectedFault
from repro.robust.journal import CheckpointJournal, spec_fingerprint
from repro.robust.records import FailedRecord, is_failed

pytestmark = pytest.mark.chaos


def _assert_matches_serial(serial, supervised):
    assert len(serial) == len(supervised)
    for a, b in zip(serial, supervised):
        assert records_equal(a, b), (a.seed, getattr(b, "seed", None))


class TestKilledWorker:
    def test_kill_recovers_and_stays_bit_identical(
        self, make_spec, fault_env, no_sleep, tmp_path
    ):
        """A worker killed mid-matrix: pool respawns, only missing seeds
        re-dispatch, results match the serial run exactly."""
        spec = make_spec(seeds=(0, 1, 2, 3, 4, 5))
        serial = supervise([spec], n_jobs=1)[0]
        fault_env([{"action": "kill", "seed": 2, "times": 2}])
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        supervised = supervise(
            [spec], n_jobs=3, retries=3, journal=journal, strict=False,
            sleep=no_sleep,
        )[0]
        _assert_matches_serial(serial, supervised)
        # Zero completed records lost: every seed journaled exactly once.
        keys = [e["key"]["seed"] for e in journal.entries()]
        assert sorted(keys) == [0, 1, 2, 3, 4, 5]

    def test_poison_kill_is_quarantined_not_fatal(
        self, make_spec, fault_env, no_sleep
    ):
        """A seed that kills its worker on every attempt ends as a
        FailedRecord; the rest of the matrix completes untouched."""
        spec = make_spec(seeds=(0, 1, 2, 3))
        serial = supervise([spec], n_jobs=1)[0]
        fault_env([{"action": "kill", "seed": 1}])  # times=None: always
        records = supervise(
            [spec], n_jobs=2, retries=2, strict=False, sleep=no_sleep
        )[0]
        assert is_failed(records[1])
        assert records[1].error == "TrialQuarantinedError"
        assert "WorkerCrashError" in records[1].cause
        assert records[1].attempts == 3  # 1 + retries
        for i in (0, 2, 3):
            assert records_equal(serial[i], records[i])

    def test_poison_kill_strict_raises_worker_crash(
        self, make_spec, fault_env, no_sleep
    ):
        fault_env([{"action": "kill", "seed": 1}])
        with pytest.raises(WorkerCrashError):
            supervise(
                [make_spec(seeds=(0, 1, 2, 3))], n_jobs=2, retries=0,
                strict=True, sleep=no_sleep,
            )


class TestHungWorker:
    def test_hang_times_out_then_retry_succeeds(
        self, make_spec, fault_env, no_sleep
    ):
        """A hung trial is detected by the timeout, its worker killed,
        and the retried seed reproduces the serial record exactly."""
        spec = make_spec(seeds=(0, 1, 2, 3))
        serial = supervise([spec], n_jobs=1)[0]
        fault_env([
            {"action": "hang", "seed": 3, "times": 1, "hang_seconds": 60},
        ])
        supervised = supervise(
            [spec], n_jobs=2, timeout=2.0, retries=2, strict=False,
            sleep=no_sleep,
        )[0]
        _assert_matches_serial(serial, supervised)

    def test_perma_hang_quarantines_with_timeout_cause(
        self, make_spec, fault_env, no_sleep
    ):
        fault_env([{"action": "hang", "seed": 0, "hang_seconds": 60}])
        records = supervise(
            [make_spec(seeds=(0, 1))], n_jobs=2, timeout=1.0, retries=1,
            strict=False, sleep=no_sleep,
        )[0]
        assert is_failed(records[0])
        assert "timeout" in records[0].cause.lower()
        assert not is_failed(records[1])

    def test_perma_hang_strict_raises_trial_timeout(
        self, make_spec, fault_env, no_sleep
    ):
        """Strict mode must raise *promptly*: the hung worker is killed
        during pool teardown, not joined.  A cooperative shutdown would
        block for the full 60 s hang (and forever for a true hang)."""
        import time as _time

        fault_env([{"action": "hang", "seed": 0, "hang_seconds": 60}])
        start = _time.monotonic()
        with pytest.raises(TrialTimeoutError):
            supervise(
                [make_spec(seeds=(0, 1))], n_jobs=2, timeout=1.0, retries=0,
                strict=True, sleep=no_sleep,
            )
        elapsed = _time.monotonic() - start
        assert elapsed < 30, (
            f"strict timeout took {elapsed:.1f}s — the teardown joined "
            "the hung worker instead of killing it"
        )


class TestPoisonRaise:
    def test_transient_raise_is_retried_bit_identically(
        self, make_spec, fault_env, no_sleep
    ):
        """Retries re-run the same seed RNG: a flaky trial that fails
        twice then succeeds yields the exact serial record."""
        spec = make_spec(seeds=(0, 1, 2, 3))
        serial = supervise([spec], n_jobs=1)[0]
        fault_env([{"action": "raise", "seed": 2, "times": 2}])
        supervised = supervise(
            [spec], n_jobs=2, retries=2, strict=False, sleep=no_sleep
        )[0]
        _assert_matches_serial(serial, supervised)
        # Exponential backoff between the retries of the struck seed.
        assert no_sleep.delays == [0.5, 1.0]

    def test_poison_raise_quarantined_with_failed_record(
        self, make_spec, fault_env, no_sleep
    ):
        spec = make_spec(seeds=(0, 1, 2, 3))
        serial = supervise([spec], n_jobs=1)[0]
        fault_env([{"action": "raise", "seed": 1}])
        records = supervise(
            [spec], n_jobs=2, retries=2, strict=False, sleep=no_sleep
        )[0]
        failed = records[1]
        assert isinstance(failed, FailedRecord)
        assert failed.error == "TrialQuarantinedError"
        assert "InjectedFault" in failed.cause
        assert failed.seed == 1 and failed.epsilon == spec.epsilon
        for i in (0, 2, 3):
            assert records_equal(serial[i], records[i])

    def test_poison_raise_strict_reraises_original(
        self, make_spec, fault_env, no_sleep
    ):
        fault_env([{"action": "raise", "seed": 0}])
        with pytest.raises(InjectedFault):
            supervise(
                [make_spec(seeds=(0, 1))], n_jobs=2, retries=1, strict=True,
                sleep=no_sleep,
            )

    def test_backoff_is_deferred_until_the_wave_is_harvested(
        self, make_spec, fault_env, tmp_path
    ):
        """A strike's backoff must not sleep inside the collection loop:
        by the time the (deferred) sleep fires, the healthy sibling of
        the struck seed has already been collected *and journaled* —
        backoff can neither eat the wave's shared timeout budget nor
        delay the durability of finished results."""
        spec = make_spec(seeds=(0, 1))
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        fault_env([{"action": "raise", "seed": 0, "times": 1}])
        observed = []

        def recording_sleep(seconds):
            journaled = sorted(e["key"]["seed"] for e in journal.entries())
            observed.append((seconds, journaled))

        records = supervise(
            [spec], n_jobs=2, retries=1, journal=journal, strict=False,
            sleep=recording_sleep,
        )[0]
        # One backoff (seed 0's single retry), served only after the
        # sibling seed 1 was banked in the journal.
        assert observed == [(0.5, [1])]
        assert not any(is_failed(r) for r in records)

    def test_serial_path_retries_and_quarantines_too(
        self, make_spec, fault_env, no_sleep
    ):
        spec = make_spec(seeds=(0, 1, 2))
        fault_env([{"action": "raise", "seed": 1, "times": 1}])
        records = supervise(
            [spec], n_jobs=1, retries=1, strict=False, sleep=no_sleep
        )[0]
        assert not any(is_failed(r) for r in records)
        fault_env([{"action": "raise", "seed": 1}])
        records = supervise(
            [spec], n_jobs=1, retries=1, strict=False, sleep=no_sleep
        )[0]
        assert is_failed(records[1])


class TestNaNCorruption:
    def test_nan_output_flows_through_pipeline(
        self, make_spec, fault_env, no_sleep, tmp_path
    ):
        """NaN-corrupted output must not crash journaling, resume, or
        comparison — and two identically-corrupted runs compare equal."""
        import math

        spec = make_spec(seeds=(0, 1, 2))
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        fault_env([{"action": "nan", "seed": 1}])
        first = supervise([spec], n_jobs=2, journal=journal, sleep=no_sleep)[0]
        assert math.isnan(first[1].kl)
        fault_env([{"action": "nan", "seed": 1}])  # reset hit ledger
        second = supervise([spec], n_jobs=1, sleep=no_sleep)[0]
        _assert_matches_serial(first, second)
        # Resume from the journal reproduces the NaN record bit-for-bit.
        resumed = supervise(
            [spec], n_jobs=1, journal=journal, resume=True, sleep=no_sleep
        )[0]
        _assert_matches_serial(first, resumed)
        assert math.isnan(resumed[1].kl)


class TestJournalResume:
    def test_crash_then_resume_loses_nothing_and_reruns_nothing(
        self, make_spec, fault_env, no_sleep, tmp_path
    ):
        """Strict run dies on a poison seed; resuming without the fault
        completes the matrix; every seed is journaled exactly once
        across both runs (completed work was neither lost nor redone)."""
        spec = make_spec(seeds=(0, 1, 2, 3, 4, 5))
        serial = supervise([spec], n_jobs=1)[0]
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        fault_env([{"action": "raise", "seed": 4}])
        with pytest.raises(InjectedFault):
            supervise(
                [spec], n_jobs=2, retries=0, strict=True, journal=journal,
                sleep=no_sleep,
            )
        done_before = set(
            journal.seeds_done(spec_fingerprint(spec))
        )
        assert done_before  # some seeds finished before the failure
        assert 4 not in done_before
        fault_env([])  # clear the fault
        resumed = supervise(
            [spec], n_jobs=2, journal=journal, resume=True, sleep=no_sleep
        )[0]
        _assert_matches_serial(serial, resumed)
        keys = [e["key"]["seed"] for e in journal.entries()]
        assert sorted(keys) == [0, 1, 2, 3, 4, 5]  # exactly once each

    def test_resume_with_complete_journal_runs_nothing(
        self, make_spec, tmp_path, no_sleep
    ):
        spec = make_spec(seeds=(0, 1, 2))
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        first = supervise([spec], n_jobs=2, journal=journal, sleep=no_sleep)[0]
        size_before = journal.path.stat().st_size
        again = supervise(
            [spec], n_jobs=2, journal=journal, resume=True, sleep=no_sleep
        )[0]
        _assert_matches_serial(first, again)
        assert journal.path.stat().st_size == size_before  # no re-runs

    def test_without_resume_flag_journal_is_append_only(
        self, make_spec, tmp_path, no_sleep
    ):
        spec = make_spec(seeds=(0, 1))
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        supervise([spec], journal=journal, sleep=no_sleep)
        supervise([spec], journal=journal, sleep=no_sleep)
        keys = [e["key"]["seed"] for e in journal.entries()]
        assert sorted(keys) == [0, 0, 1, 1]  # both runs journaled
        # Later entries win on load; they're identical anyway.
        assert sorted(journal.seeds_done(spec.fingerprint())) == [0, 1]

    def test_resume_keeps_quarantines_unless_retry_failed(
        self, make_spec, fault_env, no_sleep, tmp_path
    ):
        """Journaled FailedRecords are honored on --resume by default;
        --retry-failed gives them fresh attempts (the transient-failure
        recovery path: fix the environment, then retry the quarantine)."""
        spec = make_spec(seeds=(0, 1, 2))
        serial = supervise([spec], n_jobs=1)[0]
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        fault_env([{"action": "raise", "seed": 1}])
        first = supervise(
            [spec], n_jobs=2, retries=0, strict=False, journal=journal,
            sleep=no_sleep,
        )[0]
        assert is_failed(first[1])
        fault_env([])  # the "transient" failure is fixed
        # Default resume: the quarantine is carried forward, not re-run.
        kept = supervise(
            [spec], n_jobs=2, journal=journal, resume=True, strict=False,
            sleep=no_sleep,
        )[0]
        assert is_failed(kept[1])
        # --retry-failed: the quarantined seed gets a fresh attempt and
        # now reproduces the serial record bit-identically.
        retried = supervise(
            [spec], n_jobs=2, journal=journal, resume=True,
            retry_failed=True, strict=False, sleep=no_sleep,
        )[0]
        _assert_matches_serial(serial, retried)
        # The success is journaled after the quarantine; later-entry-wins
        # means subsequent plain resumes see the healed cell.
        healed = supervise(
            [spec], n_jobs=2, journal=journal, resume=True, strict=False,
            sleep=no_sleep,
        )[0]
        _assert_matches_serial(serial, healed)

    def test_retry_failed_requires_resume(self, make_spec):
        with pytest.raises(ValueError, match="retry_failed"):
            supervise([make_spec(seeds=(0,))], retry_failed=True)

    def test_stale_fingerprint_entries_are_ignored(
        self, make_spec, tmp_path, no_sleep
    ):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        other = make_spec(seeds=(0, 1), epsilon=0.25, name="other")
        supervise([other], journal=journal, sleep=no_sleep)
        spec = make_spec(seeds=(0, 1))
        records = supervise(
            [spec], journal=journal, resume=True, sleep=no_sleep
        )[0]
        assert all(r.epsilon == 0.5 for r in records)
        serial = supervise([spec], n_jobs=1)[0]
        _assert_matches_serial(serial, records)
