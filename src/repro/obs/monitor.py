"""Live sweep monitoring: executor observers, progress, run stats.

The supervised executor (:mod:`repro.robust.executor`) emits *events* —
wave dispatched, seed completed, strike, pool respawn, journal append —
to an observer object.  This module defines the observer protocol and
three implementations:

:class:`RunStats`
    Plain counters for the end-of-run summary line (retries by kind,
    quarantines, respawns, journal appends, fault-free trial count).

:class:`MetricsObserver`
    Bridges events and completed records into a
    :class:`repro.obs.metrics.MetricsRegistry` — executor counters plus
    per-stage latency histograms harvested from each record's
    ``meta["trace"]`` span tree.

:class:`ProgressMonitor`
    The human/machine progress reporter behind ``--progress``:

    * ``tty`` — one continuously rewritten status line
      (``\\r``-terminated) with completed/failed/retried counts, an ETA
      extrapolated from the completed-trial rate, and the current
      stragglers (in-flight seeds older than ``straggler_after``);
    * ``jsonl`` — one self-contained JSON object per event on the
      stream, for dashboards and tests.

    Progress goes to *stderr* by default so result tables on stdout
    stay machine-parseable.

Observers must never break a run: the executor wraps every callback and
downgrades observer exceptions to ``RuntimeWarning``.  This module
deliberately imports nothing from the rest of ``repro`` (records are
duck-typed via their ``failed`` attribute), so ``repro.robust`` can
depend on it without cycles.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import stage_totals

__all__ = [
    "ENV_STRAGGLER_FACTOR",
    "ExecutorObserver",
    "MetricsObserver",
    "MultiObserver",
    "ProgressMonitor",
    "RunStats",
]

#: Environment default for :class:`ProgressMonitor`'s adaptive
#: straggler factor (the ``--straggler-factor`` CLI flag wins).
ENV_STRAGGLER_FACTOR = "REPRO_STRAGGLER_FACTOR"


def _env_straggler_factor() -> Optional[float]:
    raw = os.environ.get(ENV_STRAGGLER_FACTOR)
    if not raw:
        return None
    try:
        factor = float(raw)
    except ValueError:
        return None
    return factor if factor > 0 else None


def _is_failed(record: Any) -> bool:
    """Duck-typed FailedRecord check (avoids importing repro.robust)."""
    return bool(getattr(record, "failed", False))


class ExecutorObserver:
    """Executor event sink; subclass and override what you need.

    Every hook receives the spec name so one observer can follow a
    multi-spec sweep.  The base class is a full no-op (and doubles as
    the protocol documentation).
    """

    def on_run_start(self, spec_name: str, total_seeds: int,
                     resumed: int) -> None:
        """A spec's supervised run begins; ``resumed`` seeds came from
        the journal and will not be re-dispatched."""

    def on_dispatch(self, spec_name: str, seeds: Sequence[int]) -> None:
        """A wave of seeds was submitted to the pool (or, serially, one
        seed is about to run)."""

    def on_seed_done(self, spec_name: str, seed: int, record: Any) -> None:
        """A seed reached a terminal state: a ``RunRecord`` on success
        or a ``FailedRecord`` quarantine."""

    def on_strike(self, spec_name: str, seed: int, kind: str,
                  attempt: int, will_retry: bool) -> None:
        """One failed attempt (``kind`` in timeout/crash/raise)."""

    def on_pool_respawn(self, spec_name: str) -> None:
        """The process pool broke (or hung) and was recycled."""

    def on_journal_append(self, spec_name: str) -> None:
        """A completed trial was durably journaled."""

    def on_run_end(self, spec_name: str) -> None:
        """The spec's run finished (however it went)."""


class MultiObserver(ExecutorObserver):
    """Fan one event stream out to several observers, in order."""

    def __init__(self, observers: Sequence[ExecutorObserver]) -> None:
        self.observers = list(observers)

    def on_run_start(self, spec_name, total_seeds, resumed):
        for obs in self.observers:
            obs.on_run_start(spec_name, total_seeds, resumed)

    def on_dispatch(self, spec_name, seeds):
        for obs in self.observers:
            obs.on_dispatch(spec_name, seeds)

    def on_seed_done(self, spec_name, seed, record):
        for obs in self.observers:
            obs.on_seed_done(spec_name, seed, record)

    def on_strike(self, spec_name, seed, kind, attempt, will_retry):
        for obs in self.observers:
            obs.on_strike(spec_name, seed, kind, attempt, will_retry)

    def on_pool_respawn(self, spec_name):
        for obs in self.observers:
            obs.on_pool_respawn(spec_name)

    def on_journal_append(self, spec_name):
        for obs in self.observers:
            obs.on_journal_append(spec_name)

    def on_run_end(self, spec_name):
        for obs in self.observers:
            obs.on_run_end(spec_name)


# ---------------------------------------------------------------------------
# RunStats: the summary-line counters
# ---------------------------------------------------------------------------

class RunStats(ExecutorObserver):
    """Totals for the end-of-run summary line."""

    def __init__(self) -> None:
        self.ok = 0
        self.failed = 0
        self.retries: Dict[str, int] = {}
        self.quarantined = 0
        self.respawns = 0
        self.journal_appends = 0
        self.specs = 0

    @property
    def retries_total(self) -> int:
        return sum(self.retries.values())

    def on_run_start(self, spec_name, total_seeds, resumed):
        self.specs += 1

    def on_seed_done(self, spec_name, seed, record):
        if _is_failed(record):
            self.failed += 1
            self.quarantined += 1
        else:
            self.ok += 1

    def on_strike(self, spec_name, seed, kind, attempt, will_retry):
        if will_retry:
            self.retries[kind] = self.retries.get(kind, 0) + 1

    def on_pool_respawn(self, spec_name):
        self.respawns += 1

    def on_journal_append(self, spec_name):
        self.journal_appends += 1

    def summary_line(self, fault_hits: Optional[int] = None) -> str:
        """One line: trials, retries, quarantines, respawns, faults."""
        parts = [f"{self.ok} ok", f"{self.failed} failed"]
        if self.retries_total:
            by_kind = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.retries.items())
            )
            parts.append(f"retries: {self.retries_total} ({by_kind})")
        else:
            parts.append("retries: 0")
        parts.append(f"quarantined: {self.quarantined}")
        if self.respawns:
            parts.append(f"pool respawns: {self.respawns}")
        if self.journal_appends:
            parts.append(f"journal appends: {self.journal_appends}")
        if fault_hits is not None:
            parts.append(f"fault hits: {fault_hits}")
        return "summary: " + " | ".join(parts)


# ---------------------------------------------------------------------------
# MetricsObserver: events + record traces -> registry
# ---------------------------------------------------------------------------

class MetricsObserver(ExecutorObserver):
    """Feed executor events and per-record traces into a registry.

    Metric names and label schemas are part of the documented catalog
    (``docs/observability.md``); change them there first.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        r = self.registry
        self._trials = r.counter(
            "repro_trials_total", "Terminal trial outcomes.", ("outcome",)
        )
        self._retries = r.counter(
            "repro_retries_total",
            "Failed attempts that earned a retry, by failure kind.",
            ("kind",),
        )
        self._quarantines = r.counter(
            "repro_quarantines_total",
            "Seeds given up and quarantined into FailedRecords.",
        )
        self._respawns = r.counter(
            "repro_pool_respawns_total",
            "Process-pool recycles after crashes or hangs.",
        )
        self._appends = r.counter(
            "repro_journal_appends_total",
            "Durable checkpoint-journal appends.",
        )
        self._specs = r.counter(
            "repro_specs_total", "Supervised spec runs started."
        )
        self._trial_seconds = r.histogram(
            "repro_trial_seconds",
            "Publish wall-clock per trial (RunRecord.seconds).",
            ("publisher",),
        )
        self._eval_seconds = r.histogram(
            "repro_eval_seconds",
            "Workload-evaluation wall-clock per trial.",
            ("publisher",),
        )
        self._stage_seconds = r.histogram(
            "repro_stage_seconds",
            "Per-stage latency from trace span trees (slash-joined "
            "span paths).",
            ("publisher", "stage"),
        )
        self._peak_bytes = r.gauge(
            "repro_trial_peak_bytes_max",
            "Largest tracemalloc peak observed across trials.",
            ("publisher",),
        )

    def on_run_start(self, spec_name, total_seeds, resumed):
        self._specs.inc()

    def on_seed_done(self, spec_name, seed, record):
        if _is_failed(record):
            self._trials.labels(outcome="failed").inc()
            return
        self._trials.labels(outcome="ok").inc()
        publisher = getattr(record, "publisher", "?")
        seconds = getattr(record, "seconds", None)
        if seconds is not None:
            self._trial_seconds.labels(publisher=publisher).observe(seconds)
        meta = getattr(record, "meta", {}) or {}
        eval_seconds = meta.get("t_eval_seconds", meta.get("eval_seconds"))
        if eval_seconds is not None:
            self._eval_seconds.labels(publisher=publisher).observe(
                eval_seconds
            )
        peak = meta.get("t_peak_bytes")
        if peak is not None:
            self._peak_bytes.labels(publisher=publisher).set_max(peak)
        tree = meta.get("trace")
        if isinstance(tree, dict):
            for path, (_calls, total) in stage_totals(tree).items():
                self._stage_seconds.labels(
                    publisher=publisher, stage=path
                ).observe(total)

    def on_strike(self, spec_name, seed, kind, attempt, will_retry):
        if will_retry:
            self._retries.labels(kind=kind).inc()
        else:
            self._quarantines.inc()

    def on_pool_respawn(self, spec_name):
        self._respawns.inc()

    def on_journal_append(self, spec_name):
        self._appends.inc()


# ---------------------------------------------------------------------------
# ProgressMonitor: the --progress reporter
# ---------------------------------------------------------------------------

class ProgressMonitor(ExecutorObserver):
    """TTY single-line / JSONL machine-mode progress reporter.

    Straggler detection is threshold-based: a seed in flight longer
    than :meth:`straggler_threshold` seconds is reported.  The
    threshold is ``straggler_after`` (a fixed floor) until trials
    complete; with ``straggler_factor`` set (``--straggler-factor`` /
    ``REPRO_STRAGGLER_FACTOR``) it becomes *adaptive* — ``factor ×``
    the mean completed-trial duration, never below the floor — so slow
    publishers don't spam alerts and fast sweeps still catch hangs.
    Every alert that fires is recorded in :attr:`alerts` (one entry per
    ``(spec, seed)``, age updated to the worst observation) so
    ``run --history`` can persist them into the history store.
    """

    MODES = ("tty", "jsonl")

    def __init__(
        self,
        mode: str = "tty",
        stream: Optional[TextIO] = None,
        total_trials: Optional[int] = None,
        straggler_after: float = 10.0,
        straggler_factor: Optional[float] = None,
        clock=time.monotonic,
        width: int = 100,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        if straggler_factor is None:
            straggler_factor = _env_straggler_factor()
        if straggler_factor is not None and straggler_factor <= 0:
            raise ValueError(
                f"straggler_factor must be > 0, got {straggler_factor}"
            )
        self.mode = mode
        self.stream = stream if stream is not None else sys.stderr
        self.total = total_trials
        self.straggler_after = straggler_after
        self.straggler_factor = straggler_factor
        self.clock = clock
        self.width = width
        self.done = 0
        self.failed = 0
        self.retries = 0
        self.spec_name = ""
        self.alerts: List[Dict[str, Any]] = []
        self._alerted: set = set()
        self._durations_sum = 0.0
        self._durations_n = 0
        self._start: Optional[float] = None
        #: (spec, seed) -> dispatch time: a sweep's waves may span specs.
        self._in_flight: Dict[Tuple[str, int], float] = {}
        self._line_open = False

    # -- derived state -------------------------------------------------
    def eta_seconds(self) -> Optional[float]:
        """Remaining-work estimate from the completed-trial rate."""
        if self.total is None or self._start is None or self.done == 0:
            return None
        remaining = max(self.total - self.done, 0)
        rate = (self.clock() - self._start) / self.done
        return remaining * rate

    def straggler_threshold(self) -> float:
        """Current straggler age threshold in seconds (see class docs)."""
        if self.straggler_factor is None or self._durations_n == 0:
            return self.straggler_after
        mean = self._durations_sum / self._durations_n
        return max(self.straggler_after, self.straggler_factor * mean)

    def _overdue(self) -> List[Tuple[str, int, float]]:
        """``(spec, seed, age)`` of each in-flight cell older than
        :meth:`straggler_threshold`."""
        now = self.clock()
        threshold = self.straggler_threshold()
        return [
            (spec, seed, round(now - t0, 3))
            for (spec, seed), t0 in sorted(self._in_flight.items())
            if now - t0 >= threshold
        ]

    def stragglers(self) -> List[Dict[str, Any]]:
        """In-flight seeds older than :meth:`straggler_threshold`."""
        return [{"seed": seed, "age_seconds": age}
                for _spec, seed, age in self._overdue()]

    def _note_stragglers(
        self, overdue: Sequence[Tuple[str, int, float]]
    ) -> None:
        """Record fired straggler alerts (once per spec/seed, worst age)."""
        threshold = self.straggler_threshold()
        for spec, seed, age in overdue:
            key = (spec, seed)
            if key in self._alerted:
                for alert in self.alerts:
                    if (alert["spec"], alert["seed"]) == key:
                        alert["age_seconds"] = max(
                            alert["age_seconds"], age
                        )
                continue
            self._alerted.add(key)
            self.alerts.append({
                "kind": "straggler",
                "spec": spec,
                "seed": seed,
                "age_seconds": age,
                "threshold": round(threshold, 3),
            })

    # -- events --------------------------------------------------------
    def on_run_start(self, spec_name, total_seeds, resumed):
        if self._start is None:
            self._start = self.clock()
        self._emit("run_start", spec_name, total_seeds=total_seeds,
                   resumed=resumed)

    def on_dispatch(self, spec_name, seeds):
        now = self.clock()
        for seed in seeds:
            self._in_flight[(spec_name, int(seed))] = now
        self._emit("dispatch", spec_name, seeds=[int(s) for s in seeds])

    def on_seed_done(self, spec_name, seed, record):
        started = self._in_flight.pop((spec_name, int(seed)), None)
        if started is not None:
            self._durations_sum += max(self.clock() - started, 0.0)
            self._durations_n += 1
        self.done += 1
        if _is_failed(record):
            self.failed += 1
        self._emit("seed_done", spec_name, seed=int(seed),
                   ok=not _is_failed(record))

    def on_strike(self, spec_name, seed, kind, attempt, will_retry):
        self._in_flight.pop((spec_name, int(seed)), None)
        if will_retry:
            self.retries += 1
        self._emit("strike", spec_name, seed=int(seed), kind=kind,
                   attempt=attempt, will_retry=will_retry)

    def on_pool_respawn(self, spec_name):
        self._emit("pool_respawn", spec_name)

    def on_run_end(self, spec_name):
        self._emit("run_end", spec_name)

    def close(self) -> None:
        """Finish the TTY line (call once after the sweep)."""
        if self.mode == "tty" and self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    # -- rendering -----------------------------------------------------
    def _snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "spec": self.spec_name,
            "done": self.done,
            "failed": self.failed,
            "retries": self.retries,
        }
        if self.total is not None:
            snap["total"] = self.total
        eta = self.eta_seconds()
        if eta is not None:
            snap["eta_seconds"] = round(eta, 3)
        overdue = self._overdue()
        if overdue:
            snap["stragglers"] = [{"seed": seed, "age_seconds": age}
                                  for _spec, seed, age in overdue]
            self._note_stragglers(overdue)
        return snap

    def _emit(self, event: str, spec_name: str, **fields: Any) -> None:
        # The snapshot names the spec of this event: a sweep's waves span
        # specs, so events of several specs interleave.
        self.spec_name = spec_name
        if self.mode == "jsonl":
            payload = {"event": event, **fields, **self._snapshot()}
            self.stream.write(json.dumps(payload) + "\n")
            self.stream.flush()
            return
        self._render_tty()

    def _render_tty(self) -> None:
        total = "?" if self.total is None else str(self.total)
        parts = [
            f"[{self.spec_name}]" if self.spec_name else "[sweep]",
            f"{self.done}/{total} done",
            f"{self.failed} failed",
            f"{self.retries} retried",
        ]
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        overdue = self._overdue()
        if overdue:
            self._note_stragglers(overdue)
            _spec, seed, age = overdue[-1]
            parts.append(f"straggler seed {seed} ({age:.0f}s)")
        line = " | ".join(parts)
        if len(line) > self.width:
            line = line[: self.width - 1] + "…"
        self.stream.write("\r" + line.ljust(self.width))
        self.stream.flush()
        self._line_open = True
