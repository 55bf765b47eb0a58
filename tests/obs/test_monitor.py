"""Executor observers: RunStats, MetricsObserver, ProgressMonitor."""

import io
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    ExecutorObserver,
    MetricsObserver,
    MultiObserver,
    ProgressMonitor,
    RunStats,
)


class _Clock:
    """Injectable monotonic clock for deterministic ETA/straggler math."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _drive(observer, ok_record, failed_record):
    """A canonical little event stream: 1 ok, 1 quarantined after retries."""
    observer.on_run_start("spec", 4, 0)
    observer.on_dispatch("spec", [0, 1, 2, 3])
    observer.on_strike("spec", 1, "timeout", 1, True)
    observer.on_strike("spec", 1, "crash", 2, True)
    observer.on_strike("spec", 1, "crash", 3, False)
    observer.on_seed_done("spec", 0, ok_record)
    observer.on_seed_done("spec", 1, failed_record)
    observer.on_pool_respawn("spec")
    observer.on_journal_append("spec")
    observer.on_run_end("spec")


class TestRunStats:
    def test_counts_the_event_stream(self, make_record, make_failed):
        stats = RunStats()
        _drive(stats, make_record(), make_failed())
        assert stats.ok == 1
        assert stats.failed == 1
        assert stats.quarantined == 1
        assert stats.retries == {"timeout": 1, "crash": 1}
        assert stats.retries_total == 2
        assert stats.respawns == 1
        assert stats.journal_appends == 1
        assert stats.specs == 1

    def test_summary_line(self, make_record, make_failed):
        stats = RunStats()
        _drive(stats, make_record(), make_failed())
        assert stats.summary_line() == (
            "summary: 1 ok | 1 failed | retries: 2 (crash=1, timeout=1) | "
            "quarantined: 1 | pool respawns: 1 | journal appends: 1"
        )
        assert stats.summary_line(fault_hits=2).endswith("| fault hits: 2")

    def test_summary_line_quiet_run(self):
        assert RunStats().summary_line() == (
            "summary: 0 ok | 0 failed | retries: 0 | quarantined: 0"
        )


class TestMetricsObserver:
    def test_event_stream_lands_in_registry(self, make_record, make_failed,
                                            trace_tree):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        ok = make_record(meta={
            "trace": trace_tree,
            "t_eval_seconds": 0.15,
            "t_peak_bytes": 4096,
        })
        _drive(observer, ok, make_failed())

        trials = registry.get("repro_trials_total")
        assert trials.labels(outcome="ok").value == 1.0
        assert trials.labels(outcome="failed").value == 1.0
        retries = registry.get("repro_retries_total")
        assert retries.labels(kind="timeout").value == 1.0
        assert retries.labels(kind="crash").value == 1.0
        assert registry.get("repro_quarantines_total").value == 1.0
        assert registry.get("repro_pool_respawns_total").value == 1.0
        assert registry.get("repro_journal_appends_total").value == 1.0
        assert registry.get("repro_specs_total").value == 1.0

        trial_seconds = registry.get("repro_trial_seconds")
        assert trial_seconds.labels(publisher="noisefirst").count == 1
        eval_seconds = registry.get("repro_eval_seconds")
        assert eval_seconds.labels(publisher="noisefirst").sum == 0.15
        peak = registry.get("repro_trial_peak_bytes_max")
        assert peak.labels(publisher="noisefirst").value == 4096.0

        stages = registry.get("repro_stage_seconds")
        publish = stages.labels(publisher="noisefirst", stage="trial/publish")
        assert publish.count == 1
        assert publish.sum == pytest.approx(0.8)

    def test_legacy_eval_seconds_fallback(self, make_record):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        observer.on_seed_done("spec", 0,
                              make_record(meta={"eval_seconds": 0.3}))
        fam = registry.get("repro_eval_seconds")
        assert fam.labels(publisher="noisefirst").sum == 0.3

    def test_failed_record_skips_latency_histograms(self, make_failed):
        registry = MetricsRegistry()
        MetricsObserver(registry).on_seed_done("spec", 0, make_failed())
        assert not list(registry.get("repro_trial_seconds").children())

    def test_exposition_covers_the_acceptance_metrics(self, make_record,
                                                      make_failed,
                                                      trace_tree):
        registry = MetricsRegistry()
        observer = MetricsObserver(registry)
        _drive(observer, make_record(meta={"trace": trace_tree}),
               make_failed())
        text = registry.render_prometheus()
        assert 'repro_retries_total{kind="timeout"} 1' in text
        assert "repro_quarantines_total 1" in text
        assert ('repro_stage_seconds_bucket{publisher="noisefirst",'
                'stage="trial/publish/partition.dp"') in text


class TestMultiObserver:
    def test_fans_out_in_order(self, make_record, make_failed):
        a, b = RunStats(), RunStats()
        _drive(MultiObserver([a, b]), make_record(), make_failed())
        assert a.ok == b.ok == 1
        assert a.retries == b.retries == {"timeout": 1, "crash": 1}

    def test_base_observer_is_a_noop(self, make_record, make_failed):
        _drive(ExecutorObserver(), make_record(), make_failed())  # no raise


class TestProgressMonitorJsonl:
    def _monitor(self, clock, **kwargs):
        buf = io.StringIO()
        monitor = ProgressMonitor(
            mode="jsonl", stream=buf, total_trials=4, clock=clock,
            straggler_after=5.0, **kwargs,
        )
        return monitor, buf

    def test_events_are_self_contained_json(self, make_record):
        clock = _Clock()
        monitor, buf = self._monitor(clock)
        monitor.on_run_start("spec", 4, 1)
        clock.t = 1.0
        monitor.on_dispatch("spec", [0, 1])
        clock.t = 10.0
        monitor.on_seed_done("spec", 0, make_record())
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [l["event"] for l in lines] == [
            "run_start", "dispatch", "seed_done",
        ]
        assert lines[0]["resumed"] == 1
        assert lines[1]["seeds"] == [0, 1]
        done = lines[2]
        assert done["seed"] == 0 and done["ok"] is True
        assert done["done"] == 1 and done["total"] == 4

    def test_eta_from_completed_rate(self, make_record):
        clock = _Clock()
        monitor, buf = self._monitor(clock)
        monitor.on_run_start("spec", 4, 0)
        clock.t = 10.0
        monitor.on_seed_done("spec", 0, make_record())
        # 1 trial in 10s, 3 remaining -> 30s.
        assert monitor.eta_seconds() == pytest.approx(30.0)
        last = json.loads(buf.getvalue().splitlines()[-1])
        assert last["eta_seconds"] == pytest.approx(30.0)

    def test_stragglers_listed_after_threshold(self, make_record):
        clock = _Clock()
        monitor, _ = self._monitor(clock)
        monitor.on_run_start("spec", 4, 0)
        clock.t = 1.0
        monitor.on_dispatch("spec", [0, 7])
        clock.t = 10.0
        monitor.on_seed_done("spec", 0, make_record())
        assert monitor.stragglers() == [{"seed": 7, "age_seconds": 9.0}]

    def test_same_seed_of_two_specs_tracked_apart(self, make_record):
        """A sweep's waves span specs, so in-flight cells are keyed by
        (spec, seed): finishing one spec's seed 0 leaves the other's, and
        each event names its own spec."""
        clock = _Clock()
        monitor, buf = self._monitor(clock)
        monitor.on_run_start("a", 2, 0)
        monitor.on_dispatch("a", [0])
        monitor.on_run_start("b", 2, 0)
        monitor.on_dispatch("b", [0])
        clock.t = 10.0
        monitor.on_seed_done("a", 0, make_record())
        assert monitor.stragglers() == [{"seed": 0, "age_seconds": 10.0}]
        assert [(a["spec"], a["seed"]) for a in monitor.alerts] == [
            ("b", 0)]
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [(l["event"], l["spec"]) for l in lines] == [
            ("run_start", "a"), ("dispatch", "a"),
            ("run_start", "b"), ("dispatch", "b"), ("seed_done", "a"),
        ]

    def test_strike_pops_in_flight_and_counts_retry(self):
        clock = _Clock()
        monitor, buf = self._monitor(clock)
        monitor.on_dispatch("spec", [3])
        monitor.on_strike("spec", 3, "crash", 1, True)
        assert monitor.retries == 1
        assert monitor.stragglers() == []
        last = json.loads(buf.getvalue().splitlines()[-1])
        assert last["kind"] == "crash" and last["will_retry"] is True

    def test_failed_record_counts_as_failed(self, make_failed):
        clock = _Clock()
        monitor, buf = self._monitor(clock)
        monitor.on_seed_done("spec", 2, make_failed())
        assert monitor.failed == 1
        assert json.loads(buf.getvalue().splitlines()[-1])["ok"] is False


class TestStragglerThreshold:
    def _monitor(self, clock, **kwargs):
        return ProgressMonitor(
            mode="jsonl", stream=io.StringIO(), total_trials=8,
            clock=clock, straggler_after=5.0, **kwargs,
        )

    def test_fixed_threshold_without_factor(self):
        monitor = self._monitor(_Clock())
        assert monitor.straggler_threshold() == 5.0

    def test_factor_needs_completed_trials(self, make_record):
        clock = _Clock()
        monitor = self._monitor(clock, straggler_factor=3.0)
        # No completions yet: the fixed floor applies.
        assert monitor.straggler_threshold() == 5.0
        monitor.on_dispatch("spec", [0])
        clock.t = 4.0
        monitor.on_seed_done("spec", 0, make_record())
        # Mean duration 4s x factor 3 = 12s.
        assert monitor.straggler_threshold() == pytest.approx(12.0)

    def test_factor_never_drops_below_the_floor(self, make_record):
        clock = _Clock()
        monitor = self._monitor(clock, straggler_factor=2.0)
        monitor.on_dispatch("spec", [0])
        clock.t = 0.1
        monitor.on_seed_done("spec", 0, make_record())
        # 0.1s mean x 2 = 0.2s, floored at straggler_after=5.
        assert monitor.straggler_threshold() == 5.0

    def test_adaptive_threshold_gates_stragglers(self, make_record):
        clock = _Clock()
        monitor = self._monitor(clock, straggler_factor=3.0)
        monitor.on_dispatch("spec", [0, 1])
        clock.t = 4.0
        monitor.on_seed_done("spec", 0, make_record())
        clock.t = 10.0  # seed 1 is 10s old: past the 5s floor but
        assert monitor.stragglers() == []  # inside 3 x 4s = 12s
        clock.t = 16.1
        assert monitor.stragglers() == [
            {"seed": 1, "age_seconds": 16.1}
        ]

    def test_env_var_fallback(self, monkeypatch, make_record):
        from repro.obs.monitor import ENV_STRAGGLER_FACTOR

        monkeypatch.setenv(ENV_STRAGGLER_FACTOR, "3.0")
        monitor = self._monitor(_Clock())
        assert monitor.straggler_factor == 3.0

    def test_explicit_factor_beats_env(self, monkeypatch):
        from repro.obs.monitor import ENV_STRAGGLER_FACTOR

        monkeypatch.setenv(ENV_STRAGGLER_FACTOR, "9.0")
        monitor = self._monitor(_Clock(), straggler_factor=2.0)
        assert monitor.straggler_factor == 2.0

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError, match="straggler_factor"):
            self._monitor(_Clock(), straggler_factor=0.0)

    def test_invalid_env_factor_ignored(self, monkeypatch):
        from repro.obs.monitor import ENV_STRAGGLER_FACTOR

        monkeypatch.setenv(ENV_STRAGGLER_FACTOR, "not-a-number")
        assert self._monitor(_Clock()).straggler_factor is None


class TestStragglerAlerts:
    def _monitor(self, clock):
        return ProgressMonitor(
            mode="jsonl", stream=io.StringIO(), total_trials=4,
            clock=clock, straggler_after=5.0,
        )

    def test_alert_recorded_once_with_worst_age(self, make_record):
        clock = _Clock()
        monitor = self._monitor(clock)
        monitor.on_run_start("spec", 4, 0)
        monitor.on_dispatch("spec", [0, 7])
        clock.t = 6.0
        monitor.on_seed_done("spec", 0, make_record())  # snapshot fires
        clock.t = 9.0
        monitor.on_pool_respawn("spec")  # seed 7 still stuck: age grows
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert alert["kind"] == "straggler"
        assert alert["spec"] == "spec"
        assert alert["seed"] == 7
        assert alert["age_seconds"] == pytest.approx(9.0)
        assert alert["threshold"] == pytest.approx(5.0)

    def test_no_alerts_under_threshold(self, make_record):
        clock = _Clock()
        monitor = self._monitor(clock)
        monitor.on_run_start("spec", 4, 0)
        monitor.on_dispatch("spec", [0])
        clock.t = 1.0
        monitor.on_seed_done("spec", 0, make_record())
        assert monitor.alerts == []


class TestProgressMonitorTty:
    def test_rewrites_one_line_and_closes(self, make_record):
        buf = io.StringIO()
        monitor = ProgressMonitor(mode="tty", stream=buf, total_trials=4,
                                  clock=_Clock())
        monitor.on_run_start("spec", 4, 0)
        monitor.on_seed_done("spec", 0, make_record())
        out = buf.getvalue()
        assert out.startswith("\r")
        assert "1/4 done" in out
        assert "\n" not in out
        monitor.close()
        assert buf.getvalue().endswith("\n")
        monitor.close()  # idempotent
        assert buf.getvalue().count("\n") == 1

    def test_line_truncated_to_width(self, make_record):
        buf = io.StringIO()
        monitor = ProgressMonitor(mode="tty", stream=buf, total_trials=4,
                                  clock=_Clock(), width=20)
        monitor.on_run_start("a-very-long-spec-name", 4, 0)
        line = buf.getvalue().splitlines()[-1].lstrip("\r")
        assert len(line) <= 20
        assert line.rstrip().endswith("…")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ProgressMonitor(mode="csv")
