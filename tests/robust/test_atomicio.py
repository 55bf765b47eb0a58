"""Crash-safe write primitives, plus the bench-file atomicity regression."""

import json
import os

import pytest

from repro.robust.atomicio import RecordLog, atomic_write_text


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_no_temp_litter_on_success(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_replace_preserves_old_contents(self, tmp_path,
                                                   monkeypatch):
        """A crash at the rename step must leave the old file intact."""
        target = tmp_path / "out.txt"
        target.write_text("precious")

        def boom(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "torn half-writ")
        assert target.read_text() == "precious"
        # The temp sibling is cleaned up, not leaked.
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestRecordLog:
    def test_appends_in_order(self, tmp_path):
        log = RecordLog(tmp_path / "j.jsonl", schema=1)
        log.append({"n": 1})
        log.append({"n": 2})
        assert log.path.read_text() == (
            '{"schema": 1, "n": 1}\n{"schema": 1, "n": 2}\n'
        )
        assert log.read() == ([{"schema": 1, "n": 1},
                               {"schema": 1, "n": 2}], 0)

    def test_embedded_newlines_stay_on_one_line(self, tmp_path):
        log = RecordLog(tmp_path / "j.jsonl", schema=1)
        line = log.append({"text": "bad\nline"})
        assert "\n" not in line
        assert log.read() == ([{"schema": 1, "text": "bad\nline"}], 0)

    def test_creates_file_and_parents(self, tmp_path):
        log = RecordLog(tmp_path / "deep" / "j.jsonl", schema=1)
        assert log.read() == ([], 0)
        log.append({})
        assert log.path.read_text() == '{"schema": 1}\n'

    def test_append_ends_a_torn_line_first(self, tmp_path):
        log = RecordLog(tmp_path / "j.jsonl", schema=1)
        log.append({"n": 1})
        with log.path.open("a") as handle:
            handle.write('{"schema": 1, "n"')  # a SIGKILL mid-append
        assert log.read() == ([{"schema": 1, "n": 1}], 1)
        log.append({"n": 3})
        assert log.read() == ([{"schema": 1, "n": 1},
                               {"schema": 1, "n": 3}], 1)


class TestBenchWritesAreAtomic:
    """Regression for the bare ``write_text`` in perf/bench.py."""

    def test_write_results_round_trips(self, tmp_path):
        from repro.perf.bench import load_results, write_results

        path = tmp_path / "BENCH_test.json"
        write_results(path, {"k/n=1": 0.25}, calibration=0.5,
                      profile="quick")
        payload = load_results(path)
        assert payload["entries"]["k/n=1"]["seconds"] == 0.25
        assert payload["entries"]["k/n=1"]["normalized"] == 0.5
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_test.json"]

    def test_crash_mid_write_keeps_old_baseline(self, tmp_path,
                                                monkeypatch):
        from repro.perf.bench import load_results, write_results

        path = tmp_path / "BENCH_test.json"
        write_results(path, {"k/n=1": 0.25}, calibration=0.5,
                      profile="quick")
        before = json.loads(path.read_text())

        def boom(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_results(path, {"k/n=1": 99.0}, calibration=0.5,
                          profile="quick")
        assert json.loads(path.read_text()) == before
        assert load_results(path) == before
