"""Serving-path telemetry: request IDs, stage timing, access logs, SLOs.

The serving wing's observability substrate (docs/observability.md,
"Serving telemetry").  Four concerns live here, all strictly off the
deterministic response path — nothing in this module may change a
success body, which is what the replay transcript bit-identity
guarantee is stated against:

* **Correlation IDs.**  Every request carries an ``X-Request-Id``: the
  client's, or one minted here.  The ID is echoed as a response header
  on every reply and threaded into error bodies, shed bodies, access
  log lines, and slow-request traces, so a client-side failure record
  is joinable against the server's logs.
* **Stage attribution.**  Each request is timed by one
  :mod:`repro.obs.trace` span tree.  :meth:`ServeTelemetry.begin_request`
  opens a ``serve.request`` root that records whether tracing is on or
  off, and the serving code wraps each region of the documented
  :data:`STAGES` vocabulary in ``trace.span``.
  :meth:`ServeTelemetry.end_request` reads every number off the closed
  root: ``duration_seconds``, the access-log ``stages`` map (per name,
  the sum of the root's direct children), the
  ``repro_serve_stage_seconds{endpoint,stage}`` and
  ``repro_serve_request_seconds{endpoint}`` observations,
  ``repro_serve_requests_total`` and the SLO window.  With
  ``REPRO_TRACE`` on, the tree is also kept for ``/v1/debug``, which
  shows the slowest recent ones.
* **Structured access log.**  One sorted-key JSON line per request
  (schema: :data:`ACCESS_LOG_SCHEMA`), size-rotated, write failures
  swallowed and counted — the log must never take down the serving
  path.
* **SLO burn rates.**  :class:`SLOMonitor` evaluates latency / error /
  shed objectives over a sliding window and exports
  ``repro_serve_slo_*`` gauges; ``burn = bad_fraction / (1 - target)``,
  so burn 1.0 means "exactly spending the error budget" and anything
  above it is overspend (the dashboard flags > ``6.0`` as drift).

Overhead contract: a stage on the query hot path is one live span under
the request root (a thread-local lookup, a ``Span`` and two clock
reads); ``tests/serve/test_telemetry.py`` guards the cost of all seven
below 5% of a served cache-hit query.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "AccessLog",
    "SERVE_BUCKETS",
    "STAGES",
    "SLOConfig",
    "SLOMonitor",
    "ServeTelemetry",
    "validate_access_log_line",
]

#: Latency buckets tuned to serving (sub-millisecond hits through
#: seconds-scale cold publishes).
SERVE_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)

#: The documented stage vocabulary (docs/observability.md).  Stages are
#: non-overlapping spans directly under one request's root, read off the
#: same clock, so per request ``sum(stages) <= duration_seconds`` up to
#: float-sum rounding.
STAGES = (
    "serve.admission_wait",   # queued for an admission slot
    "serve.cache_lookup",     # artifact cache probe + store rehydrate
    "serve.publish",          # cold publish (or single-flight wait)
    "serve.ledger_charge",    # atomic in-memory epsilon spend
    "serve.journal_fsync",    # durable WAL append (fsync included)
    "serve.answer",           # range/point answers off the prefix sums
    "serve.serialize",        # JSON render + socket write
)


# ---------------------------------------------------------------------------
# Access log
# ---------------------------------------------------------------------------

#: JSON-Schema (draft-07 style) for one access-log line.  ``stages``
#: maps stage names to seconds; ``shed`` is the shed reason or null;
#: ``ts`` is wall-clock epoch seconds (timings never feed transcripts).
ACCESS_LOG_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro serve access log line",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "code", "degraded", "duration_seconds", "endpoint", "method",
        "path", "replayed", "request_id", "shed", "stages", "tenant",
        "ts",
    ],
    "properties": {
        "code": {"type": "integer", "minimum": 0, "maximum": 599},
        "degraded": {"type": "boolean"},
        "duration_seconds": {"type": "number", "minimum": 0},
        "endpoint": {"type": "string", "minLength": 1},
        "method": {"type": "string", "enum": ["GET", "POST"]},
        "path": {"type": "string", "minLength": 1},
        "replayed": {"type": "boolean"},
        "request_id": {"type": "string", "minLength": 1},
        "shed": {"type": ["string", "null"]},
        "stages": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "tenant": {"type": ["string", "null"]},
        "ts": {"type": "number", "minimum": 0},
    },
}

_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "null": lambda v: v is None,
}


def validate_access_log_line(line: Union[str, Dict[str, Any]]) -> List[str]:
    """Problems with one access-log line against :data:`ACCESS_LOG_SCHEMA`.

    Returns an empty list for a valid line.  Hand-rolled (stdlib-only —
    no ``jsonschema`` dependency) but covers what the schema states:
    required fields, field types, value bounds, no extra fields, and
    numeric non-negative stage timings.
    """
    if isinstance(line, str):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    else:
        payload = line
    if not isinstance(payload, dict):
        return [f"line must be an object, got {type(payload).__name__}"]
    problems: List[str] = []
    props = ACCESS_LOG_SCHEMA["properties"]
    for field in ACCESS_LOG_SCHEMA["required"]:
        if field not in payload:
            problems.append(f"missing field: {field}")
    for field in sorted(set(payload) - set(props)):
        problems.append(f"unexpected field: {field}")
    for field, value in payload.items():
        spec = props.get(field)
        if spec is None:
            continue
        types = spec.get("type", "string")
        if spec.get("enum") is not None and value not in spec["enum"]:
            problems.append(f"{field}: {value!r} not in {spec['enum']}")
            continue
        if isinstance(types, str):
            types = [types]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            problems.append(
                f"{field}: expected {'/'.join(types)}, got "
                f"{type(value).__name__}"
            )
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            low = spec.get("minimum")
            high = spec.get("maximum")
            if low is not None and value < low:
                problems.append(f"{field}: {value} < minimum {low}")
            if high is not None and value > high:
                problems.append(f"{field}: {value} > maximum {high}")
        if isinstance(value, str) and spec.get("minLength") and not value:
            problems.append(f"{field}: must be non-empty")
        if field == "stages" and isinstance(value, dict):
            for stage, seconds in value.items():
                ok = _TYPE_CHECKS["number"](seconds) and seconds >= 0
                if not ok:
                    problems.append(
                        f"stages.{stage}: expected non-negative number, "
                        f"got {seconds!r}"
                    )
    return problems


class AccessLog:
    """Size-rotated JSONL access log; failures never reach the caller.

    One ``json.dumps(record, sort_keys=True)`` line per request.  When
    the file exceeds ``max_bytes`` it rotates to ``<name>.1`` …
    ``<name>.<backups>`` (oldest dropped).  Write errors are swallowed
    and counted in :attr:`errors` — losing a log line is strictly
    better than failing a request over it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 2,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self.lines = 0
        self.rotations = 0
        self.errors = 0
        self._lock = threading.Lock()

    def _rotate_locked(self) -> None:
        if self.backups == 0:
            self.path.unlink(missing_ok=True)
        else:
            oldest = self.path.with_name(
                f"{self.path.name}.{self.backups}"
            )
            oldest.unlink(missing_ok=True)
            for i in range(self.backups - 1, 0, -1):
                src = self.path.with_name(f"{self.path.name}.{i}")
                if src.exists():
                    src.rename(
                        self.path.with_name(f"{self.path.name}.{i + 1}")
                    )
            if self.path.exists():
                self.path.rename(
                    self.path.with_name(f"{self.path.name}.1")
                )
        self.rotations += 1

    def write(self, record: Dict[str, Any]) -> None:
        """Append one line (sorted keys); never raises."""
        try:
            line = json.dumps(record, sort_keys=True) + "\n"
        except (TypeError, ValueError):
            with self._lock:
                self.errors += 1
            return
        with self._lock:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                try:
                    size = self.path.stat().st_size
                except OSError:
                    size = 0
                if size + len(line) > self.max_bytes and size > 0:
                    self._rotate_locked()
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line)
                self.lines += 1
            except OSError:
                self.errors += 1

    def info(self) -> Dict[str, Any]:
        """Introspection snapshot for ``/v1/debug``."""
        with self._lock:
            return {
                "path": str(self.path),
                "lines": self.lines,
                "rotations": self.rotations,
                "errors": self.errors,
            }


# ---------------------------------------------------------------------------
# SLO burn-rate monitors
# ---------------------------------------------------------------------------

class SLOConfig:
    """Serving objectives evaluated over a sliding window.

    ``latency``: a request is *bad* when it takes longer than
    ``latency_threshold`` seconds; the target is the good fraction.
    ``error``: bad = 5xx (client errors are the client's problem).
    ``shed``: bad = refused by admission/overload (503 shed).
    """

    __slots__ = (
        "window_seconds", "latency_threshold", "latency_target",
        "error_target", "shed_target",
    )

    def __init__(
        self,
        window_seconds: float = 60.0,
        latency_threshold: float = 0.25,
        latency_target: float = 0.99,
        error_target: float = 0.999,
        shed_target: float = 0.99,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be > 0, got {window_seconds}"
            )
        if latency_threshold <= 0:
            raise ValueError(
                f"latency_threshold must be > 0, got {latency_threshold}"
            )
        for name, target in (
            ("latency_target", latency_target),
            ("error_target", error_target),
            ("shed_target", shed_target),
        ):
            if not 0.0 < float(target) < 1.0:
                raise ValueError(
                    f"{name} must be in (0, 1), got {target}"
                )
        self.window_seconds = float(window_seconds)
        self.latency_threshold = float(latency_threshold)
        self.latency_target = float(latency_target)
        self.error_target = float(error_target)
        self.shed_target = float(shed_target)

    def to_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


class SLOMonitor:
    """Sliding-window burn rates for the three serving objectives.

    ``burn_rate = bad_fraction / (1 - target)`` — the SRE convention:
    1.0 consumes the error budget exactly as fast as allowed; the
    dashboard badges ``<= 1`` ok, ``<= 6`` watch, ``> 6`` drift.  The
    clock is injectable so tests drive the window deterministically.
    """

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else SLOConfig()
        self._clock = clock
        self._lock = threading.Lock()
        #: (ts, slow, error, shed) per observed request.
        self._window: Deque[Tuple[float, bool, bool, bool]] = deque()

    def record(
        self, duration_seconds: float, code: int, shed: bool
    ) -> None:
        now = self._clock()
        slow = duration_seconds > self.config.latency_threshold
        error = code >= 500 and not shed
        with self._lock:
            self._window.append((now, slow, error, shed))
            self._prune_locked(now)

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    def snapshot(self) -> Dict[str, Any]:
        """Per-objective window counts, bad fractions, and burn rates."""
        with self._lock:
            self._prune_locked(self._clock())
            total = len(self._window)
            slow = sum(1 for _, s, _, _ in self._window if s)
            errors = sum(1 for _, _, e, _ in self._window if e)
            sheds = sum(1 for _, _, _, d in self._window if d)
        cfg = self.config
        objectives: Dict[str, Dict[str, float]] = {}
        for name, bad, target in (
            ("latency", slow, cfg.latency_target),
            ("error", errors, cfg.error_target),
            ("shed", sheds, cfg.shed_target),
        ):
            bad_fraction = (bad / total) if total else 0.0
            objectives[name] = {
                "bad": float(bad),
                "bad_fraction": bad_fraction,
                "target": target,
                "burn_rate": bad_fraction / (1.0 - target),
            }
        return {
            "window_seconds": cfg.window_seconds,
            "window_requests": total,
            "latency_threshold": cfg.latency_threshold,
            "objectives": objectives,
        }


# ---------------------------------------------------------------------------
# Per-request telemetry
# ---------------------------------------------------------------------------

class _RequestContext:
    """One request's annotations and its open ``serve.request`` root."""

    __slots__ = (
        "request_id", "method", "path", "tenant", "shed", "degraded",
        "replayed", "root_cm", "root",
    )

    def __init__(self, request_id: str, method: str, path: str) -> None:
        self.request_id = request_id
        self.method = method
        self.path = path
        self.tenant: Optional[str] = None
        self.shed: Optional[str] = None
        self.degraded = False
        self.replayed = False
        self.root_cm = trace.root(
            "serve.request", request_id=request_id, method=method, path=path
        )
        self.root = self.root_cm.__enter__()


class ServeTelemetry:
    """Per-request correlation, stage attribution, logging, and SLOs.

    One instance per :class:`~repro.serve.service.QueryService`.  The
    transport opens a request with :meth:`begin_request` and closes it
    with :meth:`end_request` (in a ``finally``); the serving code wraps
    its stage regions in ``trace.span`` and annotates request-scoped
    facts with :meth:`annotate`.  All state is thread-local per request,
    so concurrent handler threads never share a context.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        slo: Optional[SLOConfig] = None,
        access_log: Optional[Union[str, Path, AccessLog]] = None,
        slow_traces: int = 8,
        recent_traces: int = 32,
    ) -> None:
        if slow_traces < 0:
            raise ValueError(
                f"slow_traces must be >= 0, got {slow_traces}"
            )
        self.registry = registry
        self.slo = SLOMonitor(slo)
        if isinstance(access_log, AccessLog) or access_log is None:
            self.access_log = access_log
        else:
            self.access_log = AccessLog(access_log)
        self.slow_traces = int(slow_traces)
        self._local = threading.local()
        self._ring_lock = threading.Lock()
        self._recent: Deque[Dict[str, Any]] = deque(
            maxlen=max(1, int(recent_traces))
        )
        self._requests = registry.counter(
            "repro_serve_requests_total",
            "HTTP requests handled by the query service",
            labelnames=("endpoint", "code"),
        )
        self._request_seconds = registry.histogram(
            "repro_serve_request_seconds",
            "request handling latency by endpoint",
            labelnames=("endpoint",),
            buckets=SERVE_BUCKETS,
        )
        self._stage_seconds = registry.histogram(
            "repro_serve_stage_seconds",
            "per-stage request latency attribution "
            "(docs/observability.md stage vocabulary)",
            labelnames=("endpoint", "stage"),
            buckets=SERVE_BUCKETS,
        )
        self._slo_burn = registry.gauge(
            "repro_serve_slo_burn_rate",
            "SLO burn rate per objective over the sliding window "
            "(1.0 = spending error budget exactly at the allowed rate)",
            labelnames=("objective",),
        )
        self._slo_bad = registry.gauge(
            "repro_serve_slo_bad_fraction",
            "fraction of windowed requests violating each objective",
            labelnames=("objective",),
        )
        self._slo_target = registry.gauge(
            "repro_serve_slo_target",
            "configured good-fraction target per objective",
            labelnames=("objective",),
        )
        self._slo_window = registry.gauge(
            "repro_serve_slo_window_requests",
            "requests currently inside the SLO sliding window",
        )

    # -- request lifecycle ---------------------------------------------
    def begin_request(
        self,
        method: str,
        path: str,
        request_id: Optional[str] = None,
    ) -> str:
        """Open the per-thread request context; returns the request id.

        A falsy/absent client ``X-Request-Id`` gets a minted UUID hex.
        The context's ``serve.request`` root is this request's clock.
        """
        rid = request_id.strip() if isinstance(request_id, str) else ""
        if not rid:
            rid = uuid.uuid4().hex
        self._local.ctx = _RequestContext(rid, method, path)
        return rid

    def current_request_id(self) -> Optional[str]:
        ctx = getattr(self._local, "ctx", None)
        return ctx.request_id if ctx is not None else None

    def annotate(
        self,
        tenant: Optional[str] = None,
        shed: Optional[str] = None,
        degraded: Optional[bool] = None,
        replayed: Optional[bool] = None,
    ) -> None:
        """Attach request-scoped facts for the access-log line."""
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            return
        if tenant is not None:
            ctx.tenant = str(tenant)
        if shed is not None:
            ctx.shed = str(shed)
        if degraded is not None:
            ctx.degraded = bool(degraded)
        if replayed is not None:
            ctx.replayed = bool(replayed)

    def end_request(self, endpoint: str, code: int) -> None:
        """Close the request's root and read every number off it.

        ``code`` 0 means no reply was written (the client left): such a
        request is logged and enters the SLO window, but stays out of
        ``repro_serve_requests_total`` and the request histogram.
        """
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            return
        self._local.ctx = None
        ctx.root_cm.__exit__(None, None, None)
        root = ctx.root
        duration = root.seconds
        # The request is observed before its stages, so a scrape in
        # between still sees stage seconds <= request seconds.
        if code:
            self._requests.labels(endpoint=endpoint, code=str(code)).inc()
            self._request_seconds.labels(endpoint=endpoint).observe(duration)
        stages: Dict[str, float] = {}
        for child in root.children:
            stages[child.name] = stages.get(child.name, 0.0) + child.seconds
        for stage, seconds in stages.items():
            self._stage_seconds.labels(
                endpoint=endpoint, stage=stage
            ).observe(seconds)
        self.slo.record(duration, int(code), ctx.shed is not None)
        if self.access_log is not None:
            self.access_log.write({
                "code": int(code),
                "degraded": ctx.degraded,
                "duration_seconds": duration,
                "endpoint": endpoint,
                "method": ctx.method,
                "path": ctx.path,
                "replayed": ctx.replayed,
                "request_id": ctx.request_id,
                "shed": ctx.shed,
                "stages": stages,
                "tenant": ctx.tenant,
                "ts": time.time(),
            })
        if trace.enabled():
            tree = root.to_dict()
            entry = {
                "request_id": ctx.request_id,
                "endpoint": endpoint,
                "code": int(code),
                "seconds": duration,
                "unattributed_seconds": trace.self_seconds(tree),
                "trace": tree,
            }
            with self._ring_lock:
                self._recent.append(entry)

    # -- introspection -------------------------------------------------
    def slowest(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The slowest-N recent traced requests (``Span.to_dict`` form).

        Empty unless tracing was enabled for some requests — the ring
        only keeps trees of requests that ended while it was on.
        """
        limit = self.slow_traces if n is None else int(n)
        with self._ring_lock:
            entries = list(self._recent)
        entries.sort(key=lambda e: e["seconds"], reverse=True)
        return entries[:max(0, limit)]

    def refresh_gauges(self) -> Dict[str, Any]:
        """Re-export the SLO window as gauges (called at scrape time)."""
        snap = self.slo.snapshot()
        for objective, values in snap["objectives"].items():
            self._slo_burn.labels(objective=objective).set(
                values["burn_rate"]
            )
            self._slo_bad.labels(objective=objective).set(
                values["bad_fraction"]
            )
            self._slo_target.labels(objective=objective).set(
                values["target"]
            )
        self._slo_window.set(snap["window_requests"])
        return snap
