"""The query service's application layer (transport-agnostic).

:class:`QueryService` owns the artifact cache, the tenant ledgers, and
the serve metric families; the HTTP layer (:mod:`repro.serve.server`)
is a thin adapter that decodes JSON, calls one method here, and encodes
the ``(status, payload)`` it gets back.  Keeping the logic off the
socket makes the unit/property tests fast (no ports) while the e2e
suite exercises the real wire path.

Budget semantics
----------------
Each *answered* query debits the querying tenant's ledger by the
artifact's publication ε — deliberately worst-case accounting (no
post-processing discount), which gives every tenant a hard quota of
``floor(budget / ε)`` answers per artifact class and makes exhaustion
deterministic and testable.  A refused query spends nothing.  See
docs/serving.md for the full semantics.

Crash-safety (``state_dir``)
----------------------------
With a ``state_dir`` the service becomes durable: every debit is
journaled to a write-ahead ε-ledger (:mod:`repro.serve.ledgerlog`)
*after* the atomic in-memory spend and *before* the answer is released,
and every cold publish is spilled to an on-disk artifact store
(:mod:`repro.serve.store`).  A restart replays the ledger to the exact
spent totals (idempotency keys — tenant-scoped and bound to a digest
of the request content — make client retries exactly-once) and
rehydrates artifacts byte-identically instead of drawing fresh noise.
The charge ordering gives the two invariants the chaos drill asserts:
the journal can never contain an overdraft (only debits that passed
the atomic budget check are written), and a crash between spend and
journal loses only a debit whose answer was never released.

Overload (``publish_slots``)
----------------------------
Cold publishes are the expensive path; ``publish_slots`` bounds how
many run at once.  A saturated publisher degrades instead of hanging:
queries are answered from a stale-but-compatible cached artifact
(flagged ``degraded`` in the response) when one exists, and shed with
:class:`ShedError` (503 + ``Retry-After``) otherwise — all counted in
the ``repro_serve_shed/degraded/recovered`` metric families.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.exceptions import BudgetExceededError
from repro.obs import trace
from repro.obs.metrics import MetricFamily, MetricsRegistry
from repro.robust import faults
from repro.serve.artifacts import PublishedArtifact
from repro.serve.cache import ArtifactCache
from repro.serve.ledgerlog import LedgerLog, scoped_key
from repro.serve.spec import ServeSpec
from repro.serve.store import ArtifactStore
from repro.serve.telemetry import (
    SERVE_BUCKETS,
    AccessLog,
    ServeTelemetry,
    SLOConfig,
)
from repro.serve.tenants import TenantLedgers

__all__ = ["QueryService", "RequestError", "ShedError"]


class RequestError(Exception):
    """A client error the HTTP layer should map to ``status`` (4xx)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)


class ShedError(RequestError):
    """Load shed: 503 + ``Retry-After`` — an invitation, not a failure."""

    def __init__(
        self,
        message: str,
        retry_after: float = 1.0,
        reason: str = "overloaded",
    ) -> None:
        super().__init__(503, message)
        self.retry_after = float(retry_after)
        self.reason = str(reason)


def _parse_query(
    item: Any, index: int, n_bins: int
) -> Tuple[str, int, int]:
    """Validate one wire query; returns ``(kind, lo, hi)`` half-open.

    Point queries normalize to the one-bin range ``[bin, bin + 1)``.
    """
    if not isinstance(item, dict):
        raise RequestError(
            400, f"query #{index}: must be an object, got "
                 f"{type(item).__name__}"
        )
    has_bin = "bin" in item
    has_range = "lo" in item or "hi" in item
    if has_bin == has_range:
        raise RequestError(
            400, f"query #{index}: give either 'bin' or 'lo'+'hi'"
        )
    def _as_int(value: Any, field: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise RequestError(
                400, f"query #{index}: {field} must be an integer"
            )
        return value
    if has_bin:
        bin_index = _as_int(item["bin"], "bin")
        if not 0 <= bin_index < n_bins:
            raise RequestError(
                400, f"query #{index}: bin {bin_index} outside domain "
                     f"of {n_bins} bins"
            )
        return "point", bin_index, bin_index + 1
    if "lo" not in item or "hi" not in item:
        raise RequestError(
            400, f"query #{index}: range needs both 'lo' and 'hi'"
        )
    lo = _as_int(item["lo"], "lo")
    hi = _as_int(item["hi"], "hi")
    if not 0 <= lo <= hi <= n_bins:
        raise RequestError(
            400, f"query #{index}: range [{lo}, {hi}) outside domain "
                 f"of {n_bins} bins"
        )
    return "range", lo, hi


class QueryService:
    """Publish-once, query-many DP histogram serving logic."""

    def __init__(
        self,
        cache_entries: int = 8,
        cache_bytes: Optional[int] = None,
        default_tenant_budget: float = 100.0,
        registry: Optional[MetricsRegistry] = None,
        state_dir: Optional[Union[str, Path]] = None,
        publish_slots: Optional[int] = None,
        retry_after: float = 1.0,
        slo: Optional[SLOConfig] = None,
        access_log: Optional[Union[str, Path, AccessLog]] = None,
        slow_traces: int = 8,
    ) -> None:
        self.cache = ArtifactCache(
            max_entries=cache_entries, max_bytes=cache_bytes
        )
        self.tenants = TenantLedgers(default_budget=default_tenant_budget)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started = time.time()
        self.retry_after = float(retry_after)
        self._known_specs: Dict[str, ServeSpec] = {}
        self._specs_lock = threading.Lock()
        #: Tenant-scoped idempotency key → ``{"digest", "value",
        #: "pending"}``.  ``pending`` marks a key reserved by an
        #: in-flight charge; racers wait on :attr:`_keys_cond` instead
        #: of charging the same key twice.
        self._seen_keys: Dict[str, Dict[str, Any]] = {}
        self._journaled_tenants: Set[str] = set()
        self._keys_lock = threading.Lock()
        self._keys_cond = threading.Condition(self._keys_lock)
        if publish_slots is not None and publish_slots < 0:
            raise ValueError(
                f"publish_slots must be >= 0, got {publish_slots}"
            )
        self._publish_gate = (
            threading.BoundedSemaphore(publish_slots)
            if publish_slots is not None and publish_slots > 0
            else None
        )
        self._publish_closed = publish_slots == 0
        reg = self.registry
        self._queries = reg.counter(
            "repro_serve_queries_total",
            "individual count queries, by outcome",
            labelnames=("status",),
        )
        self._cache_events = reg.counter(
            "repro_serve_cache_events_total",
            "artifact cache hits / misses / evictions / rehydrations",
            labelnames=("event",),
        )
        self._denials = reg.counter(
            "repro_serve_budget_denials_total",
            "queries refused because a tenant's ε budget was exhausted",
            labelnames=("tenant",),
        )
        self._sheds = reg.counter(
            "repro_serve_shed_total",
            "requests shed under overload or drain, by reason",
            labelnames=("reason",),
        )
        self._degraded = reg.counter(
            "repro_serve_degraded_total",
            "queries answered from a stale fallback artifact, by source",
            labelnames=("source",),
        )
        self._recovered = reg.counter(
            "repro_serve_recovered_total",
            "state recovered from disk at startup, by kind",
            labelnames=("kind",),
        )
        self._publish_seconds = reg.histogram(
            "repro_serve_publish_seconds",
            "cold publisher runtime per artifact",
            buckets=SERVE_BUCKETS,
        )
        self._cache_hit_ratio = reg.gauge(
            "repro_serve_cache_hit_ratio",
            "artifact cache hits / (hits + misses), refreshed at scrape",
        )
        self._admission_inflight = reg.gauge(
            "repro_serve_admission_inflight",
            "requests currently executing (admission snapshot)",
        )
        self._admission_queued = reg.gauge(
            "repro_serve_admission_queued",
            "requests currently waiting for an admission slot",
        )
        self._admission_draining = reg.gauge(
            "repro_serve_admission_draining",
            "1 while the server refuses new admissions (drain)",
        )
        self._admission: Optional["AdmissionController"] = None
        # -- request telemetry (docs/observability.md) -----------------
        self.telemetry = ServeTelemetry(
            registry=reg,
            slo=slo,
            access_log=access_log,
            slow_traces=slow_traces,
        )
        # -- durable state (the crash-safety wing) ---------------------
        self.state_dir: Optional[Path] = None
        self.ledger: Optional[LedgerLog] = None
        self.store: Optional[ArtifactStore] = None
        self.recovery: Dict[str, int] = {}
        if state_dir is not None:
            self.state_dir = Path(state_dir)
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self.ledger = LedgerLog(self.state_dir / "ledger.jsonl")
            self.store = ArtifactStore(self.state_dir / "artifacts")
            self._recover()

    # -- recovery ------------------------------------------------------
    def _note_recovered(self, kind: str, count: int = 1) -> None:
        if count <= 0:
            return
        self._recovered.labels(kind=kind).inc(count)

    def _recover(self) -> None:
        """Replay the ledger + scan the store into fresh in-memory state.

        Never overdrafts: a journaled debit that no longer fits (the
        journal was produced under a different default budget, say) is
        skipped and counted rather than forced through.
        """
        assert self.ledger is not None and self.store is not None
        report = {
            "tenants": 0, "debits": 0, "artifacts": 0,
            "torn_lines": 0, "duplicate_debits": 0,
            "overdraft_skipped": 0, "quarantined": 0,
        }
        replay = self.ledger.replay()
        report["torn_lines"] = replay.torn_lines
        report["duplicate_debits"] = replay.duplicate_debits
        for name, budget in replay.tenants.items():
            try:
                self.tenants.register(name, budget)
            except ValueError:
                continue
            self._journaled_tenants.add(name)
            report["tenants"] += 1
        for debit in replay.debits:
            accountant = self.tenants.register(debit.tenant)
            self._journaled_tenants.add(debit.tenant)
            try:
                accountant.spend(
                    debit.epsilon,
                    purpose=f"recovered/{debit.purpose or 'debit'}",
                )
            except BudgetExceededError:
                report["overdraft_skipped"] += 1
                continue
            report["debits"] += 1
        with self._keys_lock:
            for skey, debit in replay.keys.items():
                self._seen_keys[skey] = {
                    "digest": debit.digest,
                    "value": debit.value,
                    "pending": False,
                }
        for fingerprint, spec in self.store.specs().items():
            with self._specs_lock:
                self._known_specs.setdefault(fingerprint, spec)
            report["artifacts"] += 1
        report["quarantined"] = self.store.stats()["quarantined"]
        self._note_recovered("tenant", report["tenants"])
        self._note_recovered("debit", report["debits"])
        self._note_recovered("artifact", report["artifacts"])
        self.recovery = report

    # -- bookkeeping ---------------------------------------------------
    def attach_admission(self, admission: Any) -> None:
        """Let gauge refreshes read the live admission snapshot.

        Called by the transport layer; the snapshot's queue depth and
        inflight count become ``repro_serve_admission_*`` gauges so
        overload is visible on ``/metrics`` before the first 503.
        """
        self._admission = admission

    def refresh_gauges(self) -> None:
        """Re-derive scrape-time gauges (hit ratio, admission, SLOs)."""
        cache = self.cache.stats()
        probes = cache["hits"] + cache["misses"]
        self._cache_hit_ratio.set(
            cache["hits"] / probes if probes else 0.0
        )
        if self._admission is not None:
            snap = self._admission.snapshot()
            self._admission_inflight.set(snap["inflight"])
            self._admission_queued.set(snap["queued"])
            self._admission_draining.set(1.0 if snap["draining"] else 0.0)
        self.telemetry.refresh_gauges()

    def note_shed(self, reason: str) -> None:
        """Count one shed request (also called by the admission layer)."""
        self._sheds.labels(reason=reason).inc()

    def _note_degraded(self, source: str) -> None:
        self._degraded.labels(source=source).inc()

    def _journal_tenant(self, name: str) -> None:
        """Durably record a tenant's budget the first time it matters."""
        if self.ledger is None:
            return
        with self._keys_lock:
            if name in self._journaled_tenants:
                return
            self._journaled_tenants.add(name)
        accountant = self.tenants.accountant(name)
        budget = (
            accountant.total if accountant is not None
            else self.tenants.default_budget
        )
        self.ledger.append_tenant(name, budget)

    @staticmethod
    def _request_digest(
        tenant: str, fingerprint: str, kind: str, lo: int, hi: int
    ) -> str:
        """Content binding for an idempotency key: what was asked."""
        blob = json.dumps(
            [tenant, fingerprint, kind, lo, hi], separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _reserve_key(
        self, skey: str, digest: str
    ) -> Optional[Dict[str, Any]]:
        """Atomically claim a scoped idempotency key, or resolve it.

        Returns ``None`` when this caller now owns the key and must
        charge-and-journal (ending with :meth:`_finalize_key` on
        success or :meth:`_release_key` on failure), or the settled
        record when the key was already answered with a **matching**
        digest (replay the stored value for free).  A concurrent
        request holding the same key is waited out — the loser of the
        race replays the winner's answer instead of double-charging.
        A settled key whose digest disagrees with this request is a
        content mismatch (different tenant/artifact/bounds riding a
        paid key) and is rejected with 409, never answered.
        """
        with self._keys_cond:
            while True:
                record = self._seen_keys.get(skey)
                if record is None:
                    self._seen_keys[skey] = {
                        "digest": digest, "value": None, "pending": True,
                    }
                    return None
                if record.get("pending"):
                    self._keys_cond.wait(timeout=5.0)
                    continue
                if record.get("digest") != digest:
                    raise RequestError(
                        409,
                        "idempotency key was already used for a "
                        "different request (artifact, bounds, or kind "
                        "changed); retries must resend the original "
                        "request unchanged",
                    )
                return record

    def _finalize_key(self, skey: str, value: float) -> None:
        """Settle a reserved key with its released answer."""
        with self._keys_cond:
            record = self._seen_keys.get(skey)
            if record is not None:
                record["value"] = value
                record["pending"] = False
            self._keys_cond.notify_all()

    def _release_key(self, skey: str) -> None:
        """Drop a reservation whose charge never happened."""
        with self._keys_cond:
            self._seen_keys.pop(skey, None)
            self._keys_cond.notify_all()

    def _charge(
        self,
        tenant: str,
        epsilon: float,
        purpose: str,
        key: Optional[str],
        digest: Optional[str] = None,
        value: Optional[float] = None,
    ) -> float:
        """Atomic spend, then durable journal, then (caller) answer.

        The in-memory check-and-spend runs FIRST, so an overdraft can
        never reach the journal; the journal append runs BEFORE the
        answer is released, so a crash after the append is covered by
        the idempotency key (the retry is answered for free).  The
        caller holds the key's reservation (:meth:`_reserve_key`) and
        settles or releases it depending on how this returns.
        """
        with trace.span("serve.ledger_charge"):
            remaining = self.tenants.charge(
                tenant, epsilon, purpose=purpose
            )
        if self.ledger is not None:
            with trace.span("serve.journal_fsync"):
                self._journal_tenant(tenant)
                faults.maybe_inject_site(
                    "serve.before_journal", key or purpose
                )
                self.ledger.append_debit(tenant, epsilon, key=key,
                                         purpose=purpose, digest=digest,
                                         value=value)
                faults.maybe_inject_site(
                    "serve.after_journal", key or purpose
                )
        return remaining

    # -- artifact resolution -------------------------------------------
    def _rehydrate(self, fingerprint: str) -> Optional[PublishedArtifact]:
        """Warm-restart path: pull a spilled artifact back into cache."""
        if self.store is None or self.cache.inflight(fingerprint):
            return None
        artifact = self.store.load(fingerprint)
        if artifact is None:
            return None
        evicted = self.cache.put(artifact)
        if evicted:
            # Rehydration can push a resident artifact over the entry
            # or byte bound; those evictions count like any other.
            self._cache_events.labels(event="eviction").inc(evicted)
        self._cache_events.labels(event="rehydrate").inc()
        with self._specs_lock:
            self._known_specs.setdefault(fingerprint, artifact.spec)
        return artifact

    def _resolve_artifact(
        self, payload: Dict[str, Any]
    ) -> Tuple[PublishedArtifact, str]:
        """The artifact a request targets, via fingerprint or inline spec.

        Returns ``(artifact, source)`` with source one of ``hit`` /
        ``store`` / ``publish``.
        """
        fingerprint = payload.get("fingerprint")
        spec_payload = payload.get("spec")
        if fingerprint is None and spec_payload is None:
            raise RequestError(400, "give 'fingerprint' or 'spec'")
        if fingerprint is not None:
            if not isinstance(fingerprint, str):
                raise RequestError(400, "fingerprint must be a string")
            with trace.span("serve.cache_lookup"):
                artifact = self.cache.get(fingerprint)
                if artifact is None:
                    artifact = self._rehydrate(fingerprint)
                    source = "store"
                else:
                    self._cache_events.labels(event="hit").inc()
                    source = "hit"
            if artifact is not None:
                return artifact, source
            with self._specs_lock:
                spec = self._known_specs.get(fingerprint)
            if spec is None:
                self._cache_events.labels(event="miss").inc()
                raise RequestError(
                    404, f"unknown fingerprint {fingerprint[:16]}…; "
                         "publish its spec first"
                )
            # Known spec, evicted artifact: republish transparently.
            return self._publish_spec(spec, fingerprint)
        try:
            spec = ServeSpec.from_payload(spec_payload)
        except ValueError as exc:
            raise RequestError(400, f"bad spec: {exc}") from exc
        fp = spec.fingerprint()
        if fp not in self.cache and not self.cache.inflight(fp):
            with trace.span("serve.cache_lookup"):
                artifact = self._rehydrate(fp)
            if artifact is not None:
                return artifact, "store"
        return self._publish_spec(spec, None)

    def _acquire_publish_slot(self) -> Callable[[], None]:
        """Claim one cold-publish slot; returns its release callable.

        Invoked by the cache *after* this thread has won the per-key
        single-flight slot — i.e. exactly when a cold publish is about
        to run — so the saturation decision can never race an eviction
        or a failing in-flight publish (the gate cannot be bypassed,
        and ``publish_slots=0`` always sheds cold publishes).  Raises
        :class:`ShedError` when no slot is available; the error
        propagates to every request waiting on that publish.
        """
        if self._publish_closed:
            raise ShedError(
                "publisher saturated; retry later",
                retry_after=self.retry_after,
                reason="publish_saturated",
            )
        if self._publish_gate is None:
            return lambda: None
        if not self._publish_gate.acquire(blocking=False):
            raise ShedError(
                "publisher saturated; retry later",
                retry_after=self.retry_after,
                reason="publish_saturated",
            )
        return self._publish_gate.release

    def _publish_spec(
        self, spec: ServeSpec, fingerprint: Optional[str]
    ) -> Tuple[PublishedArtifact, str]:
        try:
            with trace.span("serve.publish"):
                artifact, hit, evicted = self.cache.get_or_publish(
                    spec, fingerprint,
                    before_publish=self._acquire_publish_slot,
                )
        except ShedError as exc:
            # Counted here, once per shed *request* — waiters sharing a
            # shed single-flight publish each pass through this path.
            self.note_shed(exc.reason)
            raise
        self._cache_events.labels(event="hit" if hit else "miss").inc()
        if evicted:
            self._cache_events.labels(event="eviction").inc(evicted)
        if not hit:
            self._publish_seconds.observe(artifact.publish_seconds)
            if self.store is not None:
                self.store.save(artifact)
        with self._specs_lock:
            self._known_specs.setdefault(artifact.fingerprint, spec)
        return artifact, ("hit" if hit else "publish")

    def _degraded_fallback(
        self, payload: Dict[str, Any]
    ) -> Optional[PublishedArtifact]:
        """A stale-but-valid resident artifact compatible with the ask.

        Compatible = same dataset, bin count, and total, so every range
        answer is still a valid DP release over the same domain — just
        possibly from a different (ε, publisher) release than requested.
        """
        spec_payload = payload.get("spec")
        fingerprint = payload.get("fingerprint")
        want: Optional[Tuple[str, int, int]] = None
        if isinstance(spec_payload, dict):
            try:
                spec = ServeSpec.from_payload(spec_payload)
                want = (spec.dataset, spec.n_bins, spec.total)
            except ValueError:
                return None
        elif isinstance(fingerprint, str):
            with self._specs_lock:
                spec = self._known_specs.get(fingerprint)
            if spec is not None:
                want = (spec.dataset, spec.n_bins, spec.total)
        if want is None:
            return None
        for artifact in reversed(self.cache.artifacts()):
            have = (
                artifact.spec.dataset, artifact.spec.n_bins,
                artifact.spec.total,
            )
            if have == want:
                return artifact
        return None

    def _request_fingerprint(
        self, payload: Dict[str, Any], artifact: PublishedArtifact
    ) -> str:
        """The fingerprint the request *asked for* (digest binding).

        Degraded answers may be served from a different artifact, so
        the idempotency digest binds to the requested target — the
        payload's fingerprint or its spec's — which stays stable
        across retries even when resolution degrades differently.
        """
        fingerprint = payload.get("fingerprint")
        if isinstance(fingerprint, str):
            return fingerprint
        spec_payload = payload.get("spec")
        if isinstance(spec_payload, dict):
            try:
                return ServeSpec.from_payload(spec_payload).fingerprint()
            except ValueError:  # pragma: no cover - resolution validated
                pass
        return artifact.fingerprint

    def _resolve_for_query(
        self, payload: Dict[str, Any]
    ) -> Tuple[PublishedArtifact, Optional[Dict[str, Any]]]:
        """Resolve, degrading to a stale artifact instead of shedding."""
        try:
            artifact, _source = self._resolve_artifact(payload)
            return artifact, None
        except ShedError as exc:
            fallback = self._degraded_fallback(payload)
            if fallback is None:
                raise
            self._note_degraded("stale_cache")
            return fallback, {
                "reason": exc.reason,
                "served_fingerprint": fallback.fingerprint,
            }

    # -- endpoints -----------------------------------------------------
    def publish(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/publish``: materialize (or re-touch) an artifact."""
        if not isinstance(payload, dict):
            raise RequestError(400, "body must be a JSON object")
        try:
            spec = ServeSpec.from_payload(payload.get("spec", payload))
        except ValueError as exc:
            raise RequestError(400, f"bad spec: {exc}") from exc
        fp = spec.fingerprint()
        artifact = None
        source = "store"
        if fp not in self.cache and not self.cache.inflight(fp):
            artifact = self._rehydrate(fp)
        if artifact is None:
            artifact, source = self._publish_spec(spec, None)
        return 200, {
            "fingerprint": artifact.fingerprint,
            "cached": source != "publish",
            "source": source,
            "n_bins": artifact.n_bins,
            "epsilon": spec.epsilon,
            "epsilon_spent": artifact.epsilon_spent,
            "publish_seconds": artifact.publish_seconds,
            "spec_name": spec.name,
        }

    def register_tenant(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/tenants``: pre-register a tenant with a budget."""
        if not isinstance(payload, dict):
            raise RequestError(400, "body must be a JSON object")
        name = payload.get("name")
        budget = payload.get("budget")
        if budget is not None and (
            not isinstance(budget, (int, float))
            or isinstance(budget, bool)
        ):
            raise RequestError(400, "budget must be a number")
        try:
            accountant = self.tenants.register(name, budget)
        except ValueError as exc:
            status = 409 if "already registered" in str(exc) else 400
            raise RequestError(status, str(exc)) from exc
        self._journal_tenant(name)
        return 200, {
            "tenant": name,
            "budget": accountant.total,
            "remaining": accountant.remaining,
        }

    def query(
        self,
        payload: Dict[str, Any],
        idempotency_key: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/query``: answer a batch of point/range queries.

        Queries are processed strictly in order; each successful answer
        debits the tenant's ledger exactly once — *across retries too*,
        when the request carries an idempotency key (header or payload
        field): per-query keys ``{key}#{index}``, scoped to the tenant,
        that were already journaled are answered for free with
        ``replayed: true`` and the **original** answer.  A key is bound
        to its request content (tenant, requested artifact, query kind
        and bounds): resending a paid key with anything changed is a
        409, never a free fresh answer, and two tenants presenting the
        same key string never collide.  Two concurrent requests racing
        one key charge once — the loser replays the winner's answer.
        The response carries one result per query; the HTTP status is
        200 when every query was answered and 429 when at least one was
        refused for budget.
        """
        if not isinstance(payload, dict):
            raise RequestError(400, "body must be a JSON object")
        tenant = payload.get("tenant")
        if not isinstance(tenant, str) or not tenant.strip():
            raise RequestError(400, "tenant must be a non-empty string")
        self.telemetry.annotate(tenant=tenant)
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise RequestError(400, "queries must be a non-empty list")
        base_key = idempotency_key
        if base_key is None:
            raw = payload.get("idempotency_key")
            if raw is not None and not isinstance(raw, str):
                raise RequestError(400, "idempotency_key must be a string")
            base_key = raw
        artifact, degraded = self._resolve_for_query(payload)
        epsilon = artifact.spec.epsilon
        requested_fp = self._request_fingerprint(payload, artifact)
        parsed = [
            _parse_query(item, i, artifact.n_bins)
            for i, item in enumerate(queries)
        ]
        results: List[Dict[str, Any]] = []
        refused = 0
        for index, (kind, lo, hi) in enumerate(parsed):
            key = f"{base_key}#{index}" if base_key else None
            with trace.span("serve.answer"):
                value = artifact.range(lo, hi)
            skey = digest = None
            if key is not None:
                skey = scoped_key(tenant, key)
                digest = self._request_digest(
                    tenant, requested_fp, kind, lo, hi
                )
                record = self._reserve_key(skey, digest)
                if record is not None:
                    # Journaled-and-answered (digest verified): the
                    # retry is free and gets the original answer.
                    stored = record.get("value")
                    self.telemetry.annotate(replayed=True)
                    self._queries.labels(status="replayed").inc()
                    results.append({
                        "index": index,
                        "status": "ok",
                        "kind": kind,
                        "value": value if stored is None else stored,
                        "replayed": True,
                    })
                    continue
            try:
                remaining = self._charge(
                    tenant, epsilon,
                    purpose=f"query/{artifact.fingerprint[:12]}",
                    key=key, digest=digest, value=value,
                )
            except BudgetExceededError:
                if skey is not None:
                    self._release_key(skey)
                refused += 1
                self._queries.labels(status="exhausted").inc()
                self._denials.labels(tenant=tenant).inc()
                results.append({
                    "index": index,
                    "status": "exhausted",
                    "error": "tenant budget exhausted",
                })
                continue
            except ValueError as exc:
                if skey is not None:
                    self._release_key(skey)
                raise RequestError(400, str(exc)) from exc
            except BaseException:
                # Journal I/O error or injected fault: the answer is
                # not released, so the key must not look settled.
                if skey is not None:
                    self._release_key(skey)
                raise
            if skey is not None:
                self._finalize_key(skey, value)
            self._queries.labels(status="ok").inc()
            results.append({
                "index": index,
                "status": "ok",
                "kind": kind,
                "value": value,
                "remaining": remaining,
            })
        status = 429 if refused else 200
        response: Dict[str, Any] = {
            "fingerprint": artifact.fingerprint,
            "tenant": tenant,
            "epsilon_per_query": epsilon,
            "answered": len(parsed) - refused,
            "refused": refused,
            "results": results,
        }
        if degraded is not None:
            self.telemetry.annotate(degraded=True)
            response["degraded"] = True
            response["degraded_reason"] = degraded["reason"]
            response["served_fingerprint"] = degraded["served_fingerprint"]
        return status, response

    def resilience(self) -> Dict[str, Any]:
        """Durability/overload counters for ``/v1/stats`` and drills.

        The shed, degraded and recovered counts are read off their
        ``/metrics`` counter families, keyed by the family's one label.
        """
        def counts(family: MetricFamily) -> Dict[str, int]:
            return {key: int(child.value)
                    for (key,), child in family.children()}

        with self._keys_lock:
            seen_keys = len(self._seen_keys)
        return {
            "state_dir": str(self.state_dir) if self.state_dir else None,
            "recovery": dict(self.recovery),
            "seen_keys": seen_keys,
            "ledger_appends": self.ledger.appends if self.ledger else 0,
            "store": self.store.stats() if self.store else {},
            "shed": counts(self._sheds),
            "degraded": counts(self._degraded),
            "recovered": counts(self._recovered),
        }

    def stats(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/stats``: cache occupancy, tenants, uptime, SLOs."""
        self.refresh_gauges()
        return 200, {
            "uptime_seconds": time.time() - self.started,
            "cache": self.cache.stats(),
            "cache_entries": self.cache.entries(),
            "tenants": self.tenants.snapshot(),
            "known_specs": len(self._known_specs),
            "resilience": self.resilience(),
            "slo": self.telemetry.slo.snapshot(),
        }

    def debug(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/debug``: deep introspection for incident triage.

        Admission snapshot, per-entry cache state with event tallies,
        idempotency-key count, the startup recovery report, the SLO
        window, and the slowest recent request traces (populated only
        while tracing is enabled — enable with ``--trace`` or the
        ``REPRO_TRACE`` environment variable).
        """
        with self._keys_lock:
            seen_keys = len(self._seen_keys)
        access_log = self.telemetry.access_log
        return 200, {
            "admission": (
                self._admission.snapshot()
                if self._admission is not None else None
            ),
            "cache": {
                "stats": self.cache.stats(),
                "entries": self.cache.entries(),
            },
            "seen_keys": seen_keys,
            "recovery": dict(self.recovery),
            "slo": self.telemetry.slo.snapshot(),
            "trace_enabled": trace.enabled(),
            "slowest_requests": self.telemetry.slowest(),
            "access_log": (
                access_log.info() if access_log is not None else None
            ),
        }

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /healthz``."""
        return 200, {"status": "ok"}

    def metrics_text(self) -> str:
        """``GET /metrics``: Prometheus exposition of the registry."""
        self.refresh_gauges()
        return self.registry.render_prometheus()
