"""Deterministic workload-trace replay against the query service.

A *manifest* (JSON, BRAD ``run_experiment``/trace-manifest shape)
declares one serving scenario: the spec to publish, the tenants and
their ε budgets, seeded arrival-gap and query-mix distributions, and a
bounded number of *issue slots*.  :func:`run_replay` expands it into a
fully deterministic query schedule, drives it through per-tenant client
workers, and returns a :class:`ReplayResult` whose **transcript** —
the ordered ``(index, tenant, query, status, answer)`` stream — is
bit-identical across replays of the same manifest against a fresh
server (docs/serving.md states the exact guarantee).

Determinism under concurrency
-----------------------------
The schedule (tenants, query kinds, bounds, gaps) is generated up front
from ``np.random.default_rng(manifest.seed)``.  Each tenant's queries
are issued *serially in schedule order by a dedicated worker*, so every
per-tenant ledger debit sequence — and therefore every ok/exhausted
status — is reproducible even though tenants run concurrently (budgets
are per-tenant, so cross-tenant interleaving cannot change outcomes).
Issue slots bound how many workers are in flight at once, BRAD-style;
they shape latency, never answers.  Latency measurements are the one
intentionally non-deterministic output.

Supervision
-----------
Workers are supervised the way the robust executor supervises trials:
per-request transport retries with deterministic backoff, and a worker
that still cannot reach the server quarantines the remainder of its
trace into a :class:`~repro.robust.records.FailedRecord` instead of
crashing the replay.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Stopwatch
from repro.robust.records import FailedRecord
from repro.serve.client import ServeClient
from repro.serve.spec import ServeSpec

__all__ = [
    "ReplayManifest",
    "ReplayPhase",
    "ReplayResult",
    "ReplayTenant",
    "ScheduledQuery",
    "build_schedule",
    "load_manifest",
    "record_replay_metrics",
    "run_replay",
]

#: Wire-latency buckets for the replay histogram (seconds).
REPLAY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 5.0
)


# ---------------------------------------------------------------------------
# Manifest model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplayTenant:
    """One simulated client population sharing an ε budget."""

    name: str
    budget: Optional[float] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("tenant name must be a non-empty string")
        if self.budget is not None and float(self.budget) <= 0:
            raise ValueError(
                f"tenant {self.name!r}: budget must be > 0"
            )
        if float(self.weight) <= 0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be > 0"
            )


@dataclass(frozen=True)
class ReplayPhase:
    """A contiguous slice of the trace with one query mix."""

    name: str
    queries: int
    point_fraction: float = 0.5
    mean_gap_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("phase name must be a non-empty string")
        if int(self.queries) < 1:
            raise ValueError(
                f"phase {self.name!r}: queries must be >= 1"
            )
        if not 0.0 <= float(self.point_fraction) <= 1.0:
            raise ValueError(
                f"phase {self.name!r}: point_fraction must be in [0, 1]"
            )
        if self.mean_gap_ms is not None and float(self.mean_gap_ms) < 0:
            raise ValueError(
                f"phase {self.name!r}: mean_gap_ms must be >= 0"
            )


@dataclass(frozen=True)
class ReplayManifest:
    """One serving scenario, fully specified and seedable."""

    name: str
    seed: int
    spec: ServeSpec
    tenants: Tuple[ReplayTenant, ...]
    phases: Tuple[ReplayPhase, ...]
    issue_slots: int = 4
    mean_gap_ms: float = 1.0
    gap_distribution: str = "exponential"
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("manifest name must be a non-empty string")
        if int(self.seed) < 0:
            raise ValueError("manifest seed must be >= 0")
        if not self.tenants:
            raise ValueError("manifest needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if not self.phases:
            raise ValueError("manifest needs at least one phase")
        if int(self.issue_slots) < 1:
            raise ValueError("issue_slots must be >= 1")
        if float(self.mean_gap_ms) < 0:
            raise ValueError("mean_gap_ms must be >= 0")
        if self.gap_distribution not in ("exponential", "fixed"):
            raise ValueError(
                "gap_distribution must be 'exponential' or 'fixed', "
                f"got {self.gap_distribution!r}"
            )
        if float(self.time_scale) < 0:
            raise ValueError("time_scale must be >= 0")

    @property
    def total_queries(self) -> int:
        return sum(p.queries for p in self.phases)


def load_manifest(path: Union[str, Path]) -> ReplayManifest:
    """Parse and validate a manifest file (see docs/serving.md)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"manifest {path} must be a JSON object")
    known = {
        "name", "seed", "spec", "tenants", "phases", "issue_slots",
        "arrival", "time_scale",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"manifest {path}: unknown field(s): {', '.join(unknown)}"
        )
    missing = [f for f in ("name", "spec", "phases") if f not in payload]
    if missing:
        raise ValueError(
            f"manifest {path}: missing field(s): {', '.join(missing)}"
        )
    spec = ServeSpec.from_payload(payload["spec"])
    tenants_payload = payload.get("tenants") or [{"name": "default"}]
    tenants = tuple(
        ReplayTenant(
            name=t.get("name", f"tenant-{i}"),
            budget=t.get("budget"),
            weight=float(t.get("weight", 1.0)),
        )
        for i, t in enumerate(tenants_payload)
    )
    phases = tuple(
        ReplayPhase(
            name=p.get("name", f"phase-{i}"),
            queries=int(p["queries"]),
            point_fraction=float(p.get("point_fraction", 0.5)),
            mean_gap_ms=(
                float(p["mean_gap_ms"]) if "mean_gap_ms" in p else None
            ),
        )
        for i, p in enumerate(payload["phases"])
    )
    arrival = payload.get("arrival", {})
    if not isinstance(arrival, dict):
        raise ValueError(f"manifest {path}: arrival must be an object")
    return ReplayManifest(
        name=str(payload["name"]),
        seed=int(payload.get("seed", 0)),
        spec=spec,
        tenants=tenants,
        phases=phases,
        issue_slots=int(payload.get("issue_slots", 4)),
        mean_gap_ms=float(arrival.get("mean_gap_ms", 1.0)),
        gap_distribution=str(
            arrival.get("distribution", "exponential")
        ),
        time_scale=float(payload.get("time_scale", 1.0)),
    )


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduledQuery:
    """One trace entry: who asks what, and when (milliseconds)."""

    index: int
    tenant: str
    phase: str
    kind: str  # "point" | "range"
    lo: int
    hi: int  # half-open; point queries have hi == lo + 1
    at_ms: float

    def wire_query(self) -> Dict[str, int]:
        if self.kind == "point":
            return {"bin": self.lo}
        return {"lo": self.lo, "hi": self.hi}


def build_schedule(manifest: ReplayManifest) -> List[ScheduledQuery]:
    """Expand a manifest into its full, deterministic query trace.

    Every random draw comes from one generator seeded with
    ``manifest.seed``, consumed in a fixed order (tenant, kind, bounds,
    gap per query), so the same manifest always yields the same trace.
    """
    rng = np.random.default_rng(manifest.seed)
    n = manifest.spec.n_bins
    weights = np.asarray(
        [t.weight for t in manifest.tenants], dtype=np.float64
    )
    weights = weights / weights.sum()
    tenant_names = [t.name for t in manifest.tenants]
    schedule: List[ScheduledQuery] = []
    clock_ms = 0.0
    index = 0
    for phase in manifest.phases:
        mean_gap = (
            phase.mean_gap_ms
            if phase.mean_gap_ms is not None
            else manifest.mean_gap_ms
        )
        for _ in range(phase.queries):
            tenant = tenant_names[int(rng.choice(len(tenant_names),
                                                 p=weights))]
            is_point = bool(rng.random() < phase.point_fraction)
            if is_point:
                lo = int(rng.integers(0, n))
                hi = lo + 1
                kind = "point"
            else:
                lo = int(rng.integers(0, n + 1))
                hi = int(rng.integers(lo, n + 1))
                kind = "range"
            if manifest.gap_distribution == "exponential":
                gap = float(rng.exponential(mean_gap)) if mean_gap > 0 \
                    else 0.0
            else:
                gap = float(mean_gap)
            clock_ms += gap
            schedule.append(ScheduledQuery(
                index=index, tenant=tenant, phase=phase.name, kind=kind,
                lo=lo, hi=hi, at_ms=clock_ms,
            ))
            index += 1
    return schedule


# ---------------------------------------------------------------------------
# Replay result
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Everything one replay produced.

    ``records`` is index-ordered; its deterministic fields (everything
    except latency) form the transcript whose SHA-256 the determinism
    tests compare.
    """

    manifest: ReplayManifest
    fingerprint: str
    records: List[Dict[str, Any]]
    latencies: np.ndarray
    elapsed_seconds: float
    publish: Dict[str, Any] = field(default_factory=dict)
    failures: List[FailedRecord] = field(default_factory=list)
    #: Final ``/v1/stats`` snapshot from the server (best-effort; empty
    #: when the scrape failed).  Carries the resilience counters the
    #: history store and the chaos drill consume.
    server_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_queries(self) -> int:
        return len(self.records)

    def status_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.records:
            status = record["status"]
            out[status] = out.get(status, 0) + 1
        return out

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (NaN when nothing measured)."""
        if self.latencies.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies, q))

    @property
    def p50_seconds(self) -> float:
        return self.percentile(50.0)

    @property
    def p99_seconds(self) -> float:
        return self.percentile(99.0)

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_queries / self.elapsed_seconds

    def transcript(self) -> Dict[str, Any]:
        """The deterministic view of this replay (no timings)."""
        return {
            "manifest": self.manifest.name,
            "seed": self.manifest.seed,
            "fingerprint": self.fingerprint,
            "records": [
                {
                    "index": r["index"],
                    "tenant": r["tenant"],
                    "phase": r["phase"],
                    "kind": r["kind"],
                    "lo": r["lo"],
                    "hi": r["hi"],
                    "status": r["status"],
                    "value": r.get("value"),
                    "code": r["code"],
                }
                for r in self.records
            ],
        }

    def transcript_sha(self) -> str:
        import hashlib

        text = json.dumps(self.transcript(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def had_server_errors(self) -> bool:
        """True when any response was 5xx or transport-failed."""
        return bool(self.failures) or any(
            r["code"] >= 500 or r["status"] == "error"
            for r in self.records
        )

    def summary_lines(self) -> List[str]:
        counts = self.status_counts()
        status_text = ", ".join(
            f"{counts[s]} {s}" for s in sorted(counts)
        ) or "no queries"
        lines = [
            f"replay {self.manifest.name}: {self.n_queries} queries in "
            f"{self.elapsed_seconds:.3f}s "
            f"({self.throughput_qps:.1f} q/s)",
            f"  status: {status_text}",
            f"  latency: p50={self.p50_seconds * 1e3:.2f}ms "
            f"p99={self.p99_seconds * 1e3:.2f}ms",
            f"  artifact: {self.fingerprint[:16]}… "
            f"(cached={self.publish.get('cached')})",
            f"  transcript sha256: {self.transcript_sha()}",
        ]
        for failed in self.failures:
            lines.append(f"  FAILED {failed.describe()}")
        return lines


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

#: Transport failures worth retrying: connection refused/reset (a
#: server restarting mid-chaos) and half-closed keep-alive streams
#: (``BadStatusLine`` is an ``HTTPException``, not an ``OSError``).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def _issue_one(
    client: ServeClient,
    fingerprint: str,
    item: ScheduledQuery,
    retries: int,
    backoff_seconds: float,
    idempotency_key: Optional[str] = None,
) -> Tuple[int, Dict[str, Any], float]:
    """Send one query with bounded transport retries.

    Returns ``(http_code, payload, latency_seconds)``; raises the last
    transport error once the retry budget is exhausted.  The
    deterministic ``idempotency_key`` is re-sent on every retry, so a
    request whose answer was journaled just before a crash is replayed
    for free instead of double-charging the tenant.
    """
    attempt = 0
    while True:
        try:
            with Stopwatch() as sw:
                code, payload = client.query(
                    item.tenant, [item.wire_query()],
                    fingerprint=fingerprint,
                    idempotency_key=idempotency_key,
                )
            return code, payload, sw.seconds
        except _TRANSPORT_ERRORS:
            attempt += 1
            if attempt > retries:
                raise
            time.sleep(backoff_seconds * (2 ** (attempt - 1)))


def _tenant_worker(
    tenant: str,
    items: Sequence[ScheduledQuery],
    client: ServeClient,
    fingerprint: str,
    slots: threading.Semaphore,
    start_monotonic: float,
    time_scale: float,
    retries: int,
    backoff_seconds: float,
    key_prefix: str,
    out_records: Dict[int, Dict[str, Any]],
    out_latencies: Dict[int, float],
    failures: List[FailedRecord],
    lock: threading.Lock,
) -> None:
    """Issue one tenant's trace serially, in schedule order."""
    for position, item in enumerate(items):
        if time_scale > 0:
            target = start_monotonic + item.at_ms * time_scale / 1000.0
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        with slots:
            try:
                code, payload, latency = _issue_one(
                    client, fingerprint, item, retries, backoff_seconds,
                    idempotency_key=f"{key_prefix}:{item.index}",
                )
            except _TRANSPORT_ERRORS as exc:
                # Quarantine the rest of this tenant's trace: a dead
                # transport would fail every later query identically.
                with lock:
                    failures.append(FailedRecord(
                        spec_name=f"replay/{tenant}",
                        publisher=fingerprint[:12],
                        seed=item.index,
                        epsilon=0.0,
                        error=type(exc).__name__,
                        cause=str(exc),
                        attempts=retries + 1,
                        meta={
                            "remaining_queries": len(items) - position,
                            # The X-Request-Id of the attempt that died
                            # (attached by ServeClient), joinable
                            # against the server's access log.
                            "request_id": getattr(
                                exc, "request_id", None
                            ),
                        },
                    ))
                for rest in items[position:]:
                    with lock:
                        out_records[rest.index] = {
                            "index": rest.index,
                            "tenant": rest.tenant,
                            "phase": rest.phase,
                            "kind": rest.kind,
                            "lo": rest.lo,
                            "hi": rest.hi,
                            "status": "error",
                            "error": str(exc),
                            "code": 0,
                        }
                return
        results = payload.get("results") or [{}]
        result = results[0]
        record = {
            "index": item.index,
            "tenant": item.tenant,
            "phase": item.phase,
            "kind": item.kind,
            "lo": item.lo,
            "hi": item.hi,
            "status": result.get("status", "error"),
            "code": code,
        }
        if "value" in result:
            record["value"] = result["value"]
        if "error" in result:
            record["error"] = result["error"]
        with lock:
            out_records[item.index] = record
            out_latencies[item.index] = latency


def run_replay(
    manifest: ReplayManifest,
    base_url: Optional[str] = None,
    *,
    time_scale: Optional[float] = None,
    retries: int = 2,
    backoff_seconds: float = 0.05,
    cache_entries: int = 8,
    default_tenant_budget: float = 100.0,
    state_dir: Optional[Union[str, Path]] = None,
) -> ReplayResult:
    """Replay a manifest; self-hosts a fresh server when no URL given.

    ``time_scale`` overrides the manifest's (``0`` = ignore arrival
    gaps and go as fast as the issue slots allow).  The self-hosted
    mode guarantees a fresh server state, which is what the transcript
    determinism guarantee is stated against; pass ``state_dir`` to
    self-host with the durable ledger + artifact store enabled.
    """
    owned_server = None
    if base_url is None:
        from repro.serve.server import make_server
        from repro.serve.service import QueryService

        service = QueryService(
            cache_entries=cache_entries,
            default_tenant_budget=default_tenant_budget,
            state_dir=state_dir,
        )
        owned_server = make_server("127.0.0.1", 0, service)
        server_thread = threading.Thread(
            target=owned_server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        server_thread.start()
        base_url = owned_server.url
    scale = manifest.time_scale if time_scale is None else float(time_scale)
    client = ServeClient(base_url)
    def _setup_call(fn, *fn_args):
        """Setup RPCs retried like queries (registration and publish
        are idempotent, and a chaos kill can land mid-publish)."""
        attempt = 0
        while True:
            try:
                return fn(*fn_args)
            except _TRANSPORT_ERRORS:
                attempt += 1
                if attempt > retries:
                    raise
                time.sleep(backoff_seconds * (2 ** (attempt - 1)))
                client.wait_ready()

    try:
        client.wait_ready()
        # Tenants first (explicit budgets), then the artifact, so the
        # trace starts against fully-provisioned state.
        for tenant in manifest.tenants:
            code, payload = _setup_call(
                client.register_tenant, tenant.name, tenant.budget
            )
            if code != 200:
                raise RuntimeError(
                    f"tenant {tenant.name!r} registration failed "
                    f"({code}): {payload.get('error')}"
                )
        code, publish_payload = _setup_call(
            client.publish, manifest.spec.to_payload()
        )
        if code != 200:
            raise RuntimeError(
                f"publish failed ({code}): {publish_payload.get('error')}"
            )
        fingerprint = publish_payload["fingerprint"]
        schedule = build_schedule(manifest)
        by_tenant: Dict[str, List[ScheduledQuery]] = {
            t.name: [] for t in manifest.tenants
        }
        for item in schedule:
            by_tenant[item.tenant].append(item)
        # Deterministic per-query idempotency keys: the same manifest
        # always re-presents the same key for the same slot, so a
        # replay resumed across a server crash stays exactly-once.
        key_prefix = f"{manifest.name}:{manifest.seed}"
        slots = threading.Semaphore(manifest.issue_slots)
        records: Dict[int, Dict[str, Any]] = {}
        latencies: Dict[int, float] = {}
        failures: List[FailedRecord] = []
        lock = threading.Lock()
        started_monotonic = time.monotonic()
        workers = []
        for tenant_name, items in sorted(by_tenant.items()):
            worker = threading.Thread(
                target=_tenant_worker,
                args=(
                    tenant_name, items, client, fingerprint, slots,
                    started_monotonic, scale, retries, backoff_seconds,
                    key_prefix, records, latencies, failures, lock,
                ),
                name=f"replay-{manifest.name}-{tenant_name}",
                daemon=True,
            )
            workers.append(worker)
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.monotonic() - started_monotonic
        try:
            server_stats = client.stats()
        except _TRANSPORT_ERRORS:
            server_stats = {}
        ordered = [records[i] for i in sorted(records)]
        latency_array = np.asarray(
            [latencies[i] for i in sorted(latencies)], dtype=np.float64
        )
        return ReplayResult(
            manifest=manifest,
            fingerprint=fingerprint,
            records=ordered,
            latencies=latency_array,
            elapsed_seconds=elapsed,
            publish=publish_payload,
            failures=failures,
            server_stats=server_stats,
        )
    finally:
        if owned_server is not None:
            owned_server.shutdown()
            owned_server.server_close()


# ---------------------------------------------------------------------------
# Metrics / history ingestion
# ---------------------------------------------------------------------------

def record_replay_metrics(
    result: ReplayResult,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Land a replay's throughput/latency in a metrics registry.

    The gauge names (``repro_replay_latency_p50_seconds`` /
    ``…_p99_seconds`` / ``repro_replay_throughput_qps``) are what the
    run-history store ingests and the trend dashboard's serving section
    renders — serving perf becomes a radar-tracked trajectory exactly
    like bench timings.
    """
    if registry is None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
    label = result.manifest.name
    queries = registry.counter(
        "repro_replay_queries_total",
        "replayed queries by manifest and outcome",
        labelnames=("manifest", "status"),
    )
    for status, count in sorted(result.status_counts().items()):
        queries.labels(manifest=label, status=status).inc(count)
    latency = registry.histogram(
        "repro_replay_request_seconds",
        "client-observed per-query latency during replay",
        labelnames=("manifest",),
        buckets=REPLAY_BUCKETS,
    )
    child = latency.labels(manifest=label)
    for value in result.latencies:
        child.observe(float(value))
    for name, help_text, value in (
        ("repro_replay_latency_p50_seconds",
         "median replay latency", result.p50_seconds),
        ("repro_replay_latency_p99_seconds",
         "tail (p99) replay latency", result.p99_seconds),
        ("repro_replay_throughput_qps",
         "replay throughput in queries per second",
         result.throughput_qps),
        ("repro_replay_elapsed_seconds",
         "replay wall-clock runtime", result.elapsed_seconds),
    ):
        gauge = registry.gauge(name, help_text, labelnames=("manifest",))
        if not (isinstance(value, float) and np.isnan(value)):
            gauge.labels(manifest=label).set(float(value))
    # Serving resilience counters, scraped from the target server's
    # final /v1/stats: the run-history store ingests these gauges so
    # the trend dashboard's operations section can track sheds /
    # degraded answers / restart recoveries per replay run.
    resilience = result.server_stats.get("resilience") or {}
    for name, help_text, totals in (
        ("repro_serve_shed_total",
         "requests shed under overload or drain during this replay",
         resilience.get("shed")),
        ("repro_serve_degraded_total",
         "queries answered from a stale fallback artifact",
         resilience.get("degraded")),
        ("repro_serve_recovered_total",
         "state recovered from disk by the server at startup",
         resilience.get("recovered")),
    ):
        if not isinstance(totals, dict) or not totals:
            continue
        gauge = registry.gauge(
            name, help_text, labelnames=("manifest", "key")
        )
        for key, value in sorted(totals.items()):
            gauge.labels(manifest=label, key=str(key)).set(float(value))
    # SLO burn rates, scraped from the same final /v1/stats snapshot:
    # the history store ingests these and the dashboard's serving-SLO
    # section badges them with the drift-radar thresholds.
    slo = result.server_stats.get("slo") or {}
    objectives = slo.get("objectives")
    if isinstance(objectives, dict) and objectives:
        burn = registry.gauge(
            "repro_serve_slo_burn_rate",
            "SLO burn rate per objective at the end of this replay",
            labelnames=("manifest", "objective"),
        )
        bad = registry.gauge(
            "repro_serve_slo_bad_fraction",
            "fraction of windowed requests violating each objective",
            labelnames=("manifest", "objective"),
        )
        for objective, values in sorted(objectives.items()):
            if not isinstance(values, dict):
                continue
            burn.labels(manifest=label, objective=objective).set(
                float(values.get("burn_rate", 0.0))
            )
            bad.labels(manifest=label, objective=objective).set(
                float(values.get("bad_fraction", 0.0))
            )
    return registry
