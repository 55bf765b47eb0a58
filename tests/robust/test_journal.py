"""Checkpoint journal: round-trip fidelity, fingerprints, crash tolerance."""

import json
import math

import numpy as np
import pytest

from repro.core import NoiseFirst
from repro.exceptions import JournalError
from repro.experiments.runner import records_equal
from repro.robust.executor import supervise
from repro.robust.journal import (
    CheckpointJournal,
    record_from_payload,
    record_to_payload,
    spec_fingerprint,
)
from repro.robust.records import FailedRecord


class TestRoundTrip:
    def test_run_record_round_trips_bit_identically(self, make_spec):
        record = supervise([make_spec(seeds=(3,))])[0][0]
        clone = record_from_payload(record_to_payload(record))
        assert records_equal(record, clone, ignore_timing=False)

    def test_numpy_array_meta_round_trips(self, make_spec):
        # NoiseFirst stores numpy arrays in meta.
        record = supervise([make_spec(seeds=(0,), factory=NoiseFirst)])[0][0]
        clone = record_from_payload(record_to_payload(record))
        arr = record.meta["noisy_sse_by_k"]
        back = clone.meta["noisy_sse_by_k"]
        assert isinstance(back, np.ndarray)
        assert back.dtype == arr.dtype
        assert np.array_equal(arr, back, equal_nan=True)
        assert records_equal(record, clone, ignore_timing=False)

    def test_nan_metrics_survive_and_compare_equal(self, make_spec):
        import dataclasses

        record = supervise([make_spec(seeds=(0,))])[0][0]
        nanned = dataclasses.replace(record, kl=float("nan"))
        clone = record_from_payload(record_to_payload(nanned))
        assert math.isnan(clone.kl)
        assert records_equal(nanned, clone, ignore_timing=False)

    def test_failed_record_round_trips(self):
        failed = FailedRecord(
            spec_name="s", publisher="p", seed=7, epsilon=0.1,
            error="TrialQuarantinedError", cause="WorkerCrashError: died",
            attempts=3,
        )
        clone = record_from_payload(record_to_payload(failed))
        assert clone == failed

    def test_unknown_kind_raises(self):
        with pytest.raises(JournalError):
            record_from_payload({"kind": "mystery"})


class TestMetaCodec:
    """Tagged encoding of non-JSON meta values (Partition, opaque)."""

    def _clone(self, record):
        # Force a real JSON round-trip, exactly as the journal file does.
        payload = json.loads(json.dumps(record_to_payload(record)))
        return record_from_payload(payload)

    def test_partition_meta_round_trips_to_equal_partition(self, make_spec):
        import dataclasses

        from repro.partition.partition import Partition

        record = supervise([make_spec(seeds=(0,))])[0][0]
        partition = Partition(n=8, boundaries=(3, 5))
        record = dataclasses.replace(
            record, meta={**record.meta, "partition": partition}
        )
        clone = self._clone(record)
        assert isinstance(clone.meta["partition"], Partition)
        assert clone.meta["partition"] == partition
        assert records_equal(record, clone, ignore_timing=False)

    def test_publisher_partition_meta_is_journal_safe(self, make_spec):
        """Regression: structure publishers put a Partition into meta;
        journaling such a record used to crash json.dumps."""
        record = supervise([make_spec(seeds=(0,), factory=NoiseFirst)])[0][0]
        assert "partition" in record.meta
        clone = self._clone(record)
        assert clone.meta["partition"] == record.meta["partition"]

    def test_unknown_meta_value_degrades_to_tagged_repr(self, make_spec):
        import dataclasses

        class Exotic:
            def __repr__(self):
                return "Exotic()"

        record = supervise([make_spec(seeds=(0,))])[0][0]
        record = dataclasses.replace(
            record, meta={**record.meta, "exotic": Exotic()}
        )
        clone = self._clone(record)  # must not crash the append path
        assert clone.meta["exotic"] == {
            "__opaque__": "Exotic()", "type": "Exotic",
        }

    def test_trace_tree_meta_round_trips(self, make_spec):
        import dataclasses

        record = supervise([make_spec(seeds=(0,))])[0][0]
        tree = {"name": "trial", "seconds": 0.5,
                "children": [{"name": "publish", "seconds": 0.4}]}
        record = dataclasses.replace(
            record, meta={**record.meta, "trace": tree}
        )
        assert self._clone(record).meta["trace"] == tree


class TestFingerprint:
    def test_stable_across_calls(self, make_spec):
        assert spec_fingerprint(make_spec()) == spec_fingerprint(make_spec())

    def test_spec_method_delegates(self, make_spec):
        spec = make_spec()
        assert spec.fingerprint() == spec_fingerprint(spec)

    def test_sensitive_to_epsilon_and_seeds(self, make_spec):
        base = spec_fingerprint(make_spec())
        assert spec_fingerprint(make_spec(epsilon=0.25)) != base
        assert spec_fingerprint(make_spec(seeds=(0, 1))) != base

    def test_sensitive_to_dataset_bytes(self, make_spec, step_hist):
        import dataclasses

        from repro.hist.histogram import Histogram

        counts = step_hist.counts.copy()
        counts[0] += 1.0
        other = Histogram(domain=step_hist.domain, counts=counts)
        spec = make_spec()
        tweaked = dataclasses.replace(spec, histogram=other)
        assert spec_fingerprint(tweaked) != spec_fingerprint(spec)

    def test_insensitive_to_n_jobs(self, make_spec):
        assert (
            spec_fingerprint(make_spec(n_jobs=1))
            == spec_fingerprint(make_spec(n_jobs=4))
        )


class TestJournalFile:
    def test_append_and_completed(self, tmp_path, make_spec):
        spec = make_spec(seeds=(0, 1))
        records = supervise([spec])[0]
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        fp = spec_fingerprint(spec)
        for record in records:
            journal.append(record, fp)
        done = journal.seeds_done(fp)
        assert sorted(done) == [0, 1]
        for record in records:
            assert records_equal(record, done[record.seed],
                                 ignore_timing=False)

    def test_fingerprint_filters_stale_entries(self, tmp_path, make_spec):
        spec_a = make_spec(seeds=(0,))
        spec_b = make_spec(seeds=(0,), epsilon=0.25)
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.append(supervise([spec_a])[0][0], spec_fingerprint(spec_a))
        journal.append(supervise([spec_b])[0][0], spec_fingerprint(spec_b))
        assert list(journal.seeds_done(spec_fingerprint(spec_a))) == [0]
        a = journal.seeds_done(spec_fingerprint(spec_a))[0]
        assert a.epsilon == 0.5

    def test_torn_trailing_line_is_skipped(self, tmp_path, make_spec):
        spec = make_spec(seeds=(0, 1))
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        fp = spec_fingerprint(spec)
        for record in supervise([spec])[0]:
            journal.append(record, fp)
        # Simulate SIGKILL mid-append: chop the final line in half.
        text = journal.path.read_text()
        journal.path.write_text(text[: len(text) - 40])
        done = journal.seeds_done(fp)
        assert list(done) == [0]  # seed 1's entry is torn -> re-runnable

    def test_truncation_every_offset_then_append(self, tmp_path,
                                                 make_spec):
        """A tear at any offset keeps every entry the reader counted,
        and the record appended after the tear is found too."""
        spec = make_spec(seeds=(0, 1, 2))
        records = supervise([spec])[0]
        fp = spec_fingerprint(spec)
        path = tmp_path / "j.jsonl"
        for record in records[:2]:
            CheckpointJournal(path).append(record, fp)
        data = path.read_bytes()
        for offset in range(len(data) + 1):
            path.write_bytes(data[:offset])
            before = CheckpointJournal(path).entries()
            CheckpointJournal(path).append(records[2], fp)
            after = CheckpointJournal(path).entries()
            assert after[:-1] == before, offset
            assert records_equal(
                record_from_payload(after[-1]["payload"]), records[2],
                ignore_timing=False,
            )

    def test_later_entries_win(self, tmp_path, make_spec):
        spec = make_spec(seeds=(0,))
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        fp = spec_fingerprint(spec)
        record = supervise([spec])[0][0]
        failed = FailedRecord(
            spec_name=record.spec_name, publisher=record.publisher,
            seed=0, epsilon=record.epsilon, error="TrialQuarantinedError",
        )
        journal.append(failed, fp)
        journal.append(record, fp)
        assert records_equal(journal.seeds_done(fp)[0], record)

    def test_latest_is_the_last_entry_per_cell(self, tmp_path, make_spec):
        spec_a = make_spec(seeds=(0, 1))
        spec_b = make_spec(seeds=(0,), epsilon=0.25)
        fp_a, fp_b = spec_fingerprint(spec_a), spec_fingerprint(spec_b)
        records = supervise([spec_a])[0]
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.append(FailedRecord(
            spec_name=records[0].spec_name, publisher=records[0].publisher,
            seed=0, epsilon=records[0].epsilon, error="TrialTimeoutError",
        ), fp_a)
        journal.append(records[1], fp_a)
        journal.append(records[0], fp_a)
        journal.append(supervise([spec_b])[0][0], fp_b)
        latest = journal.latest()
        assert [(e["fingerprint"], e["key"]["seed"], e["payload"]["kind"])
                for e in latest] == [
            (fp_a, 0, "record"), (fp_a, 1, "record"), (fp_b, 0, "record"),
        ]
        assert latest[0] == journal.entries()[2]

    def test_entries_follow_every_change_to_the_file(self, tmp_path,
                                                     make_spec):
        spec = make_spec(seeds=(0, 1, 2))
        records = supervise([spec])[0]
        fp = spec_fingerprint(spec)
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.append(records[0], fp)
        assert list(journal.seeds_done(fp)) == [0]
        journal.append(records[1], fp)  # kept current by this object
        assert list(journal.seeds_done(fp)) == [0, 1]
        CheckpointJournal(journal.path).append(records[2], fp)  # elsewhere
        assert list(journal.seeds_done(fp)) == [0, 1, 2]
        text = journal.path.read_text()
        journal.path.write_text(text[: len(text) - 40])  # torn tail
        assert list(journal.seeds_done(fp)) == [0, 1]
        journal.append(records[2], fp)
        fresh = CheckpointJournal(journal.path)
        assert journal.entries() == fresh.entries()
        journal.path.write_text("")
        assert journal.entries() == []
        journal.path.unlink()
        assert journal.entries() == []

    def test_missing_file_is_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "nope.jsonl").entries() == []

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"schema": 99, "payload": {}}) + "\n")
        with pytest.raises(JournalError):
            CheckpointJournal(path).entries()
