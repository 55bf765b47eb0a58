"""In-memory span and count recorder, and the probes the traced run wraps
around the program's public entry points.

A span is ``(id, name, start, end, parent, request_id)``: the parent is
the span open on the same thread when it started.  Spans and counts stay
in memory and are written out once, when the traced process ends.  A
layer's self time is its span's duration minus the part of that
interval its child spans cover.

Probes replace module attributes at run time; nothing under ``src/`` is
edited.  They are installed only in traced processes: the untraced run
executes the program exactly as shipped.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[str]]


class Recorder:
    """Thread-safe span/count store for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             request_id: Optional[str] = None) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, request_id))

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def load_many(paths: Iterable) -> Tuple[List[Span], Dict[str, float]]:
    """Spans and summed counts from several dumps; span ids are offset
    per file so ids from different processes never collide."""
    spans: List[Span] = []
    counts: Dict[str, float] = defaultdict(float)
    for index, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        base = index << 40
        for sid, name, start, end, parent, rid in data["spans"]:
            spans.append((base + sid, name, start, end,
                          None if parent is None else base + parent, rid))
        for key, value in data["counts"].items():
            counts[key] += value
    return spans, dict(counts)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: Dict[int, float] = {}
    for sid, _name, start, end, _parent, _rid in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def totals(spans: Iterable[Span], name: str, self_time: Optional[Dict[int, float]] = None) -> Tuple[int, float]:
    """``(calls, seconds)`` over spans called ``name`` (self seconds when
    ``self_time`` is given)."""
    calls, seconds = 0, 0.0
    for span in spans:
        if span[1] == name:
            calls += 1
            seconds += self_time[span[0]] if self_time else span[3] - span[2]
    return calls, seconds


# -- probes ------------------------------------------------------------

def _spanned(rec: Recorder, name: str, fn: Callable,
             rid: Optional[Callable[..., Optional[str]]] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        request_id = rid(*args) if rid is not None else None
        return rec.call(name, fn, args, kwargs, request_id)
    return wrapper


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def _patch_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro.*`` module attribute that is ``original``
    (modules import these functions by name, so each binding needs it)."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install_publish_probes(rec: Recorder) -> None:
    """Publisher, partition and perf-kernel probes (server and sweep)."""
    import repro.baselines  # noqa: F401 - load every binding site
    import repro.core  # noqa: F401
    import repro.partition.coarsen  # noqa: F401
    from repro.core.publisher import Publisher
    from repro.partition import gibbs
    from repro.perf import costrows, kernels

    def publish(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            layer = "core" if type(self).__module__.startswith("repro.core") else "baselines"
            return rec.call(f"{layer}.publish", fn, (self,) + args, kwargs)
        return wrapper

    _patch_method(Publisher, "publish", publish)
    _patch_method(costrows.LazySAECost, "column",
                  lambda fn: _spanned(rec, "perf.sae_column", fn))
    for original, name in ((gibbs.sample_partition_em, "partition.gibbs"),
                           (kernels.dp_tables, "perf.dp_tables")):
        _patch_everywhere(original, _spanned(rec, name, original))


def install_server_probes(rec: Recorder) -> None:
    """Serving-path probes; run inside the server's own process."""
    from repro.accounting.ledger import Ledger
    from repro.serve.cache import ArtifactCache
    from repro.serve.ledgerlog import LedgerLog
    from repro.serve.service import QueryService
    from repro.serve.store import ArtifactStore
    from repro.serve.telemetry import AccessLog
    from repro.serve.tenants import TenantLedgers

    install_publish_probes(rec)

    def request_id(service, *_args):
        return service.telemetry.current_request_id()

    _patch_method(QueryService, "query",
                  lambda fn: _spanned(rec, "service.query", fn, request_id))
    _patch_method(QueryService, "__init__",
                  lambda fn: _spanned(rec, "service.init", fn))
    _patch_method(ArtifactStore, "load", lambda fn: _spanned(rec, "store.load", fn))
    _patch_method(ArtifactStore, "save", lambda fn: _spanned(rec, "store.save", fn))
    _patch_method(TenantLedgers, "charge",
                  lambda fn: _spanned(rec, "accounting.charge", fn))
    _patch_method(LedgerLog, "append_debit",
                  lambda fn: _spanned(rec, "ledgerlog.append", fn))
    _patch_method(LedgerLog, "append_tenant",
                  lambda fn: _spanned(rec, "ledgerlog.append", fn))
    _patch_method(LedgerLog, "replay", lambda fn: _spanned(rec, "ledgerlog.replay", fn))
    _patch_method(AccessLog, "write", lambda fn: _spanned(rec, "telemetry.access_log", fn))

    def cache_get(fn):
        @functools.wraps(fn)
        def wrapper(self, fingerprint):
            artifact = fn(self, fingerprint)
            rec.count("cache.lookups")
            if artifact is not None:
                rec.count("cache.hits")
            return artifact
        return wrapper

    def cache_put(fn):
        @functools.wraps(fn)
        def wrapper(self, artifact):
            evicted = fn(self, artifact)
            rec.count("cache.evictions", evicted)
            return evicted
        return wrapper

    def cache_get_or_publish(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            rec.count("cache.evictions", result[2])
            return result
        return wrapper

    def ledger_total(fn):
        @functools.wraps(fn)
        def wrapper(self):
            rec.count("accounting.records_summed", len(self.records))
            return fn(self)
        return wrapper

    _patch_method(ArtifactCache, "get", cache_get)
    _patch_method(ArtifactCache, "put", cache_put)
    _patch_method(ArtifactCache, "get_or_publish", cache_get_or_publish)
    _patch_method(Ledger, "total", ledger_total)


def install_pool_counter(rec: Recorder) -> None:
    """Count process pools the supervised executor starts."""
    from repro.robust import executor

    base = executor.ProcessPoolExecutor

    class CountingPool(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            rec.count("robust.pool_starts")
            super().__init__(*args, **kwargs)

    executor.ProcessPoolExecutor = CountingPool


def install_sweep_probes(rec: Recorder) -> None:
    """Experiment, metric, journal and history probes (sweep process)."""
    from repro.experiments import paper, runner
    from repro.metrics import evaluate
    from repro.obs.history import HistoryStore
    from repro.robust.journal import CheckpointJournal

    install_publish_probes(rec)
    install_pool_counter(rec)
    _patch_everywhere(runner.run_once,
                      _spanned(rec, "experiments.trial", runner.run_once))
    _patch_everywhere(evaluate.evaluate_workload_error,
                      _spanned(rec, "metrics.evaluate",
                               evaluate.evaluate_workload_error))
    _patch_everywhere(paper.generate_paper,
                      _spanned(rec, "paper.render", paper.generate_paper))
    _patch_method(CheckpointJournal, "append",
                  lambda fn: _spanned(rec, "robust.journal_append", fn))
    for attr in ("ingest_journal", "ingest_journal_utility"):
        _patch_method(HistoryStore, attr,
                      lambda fn: _spanned(rec, "history.ingest", fn))


# -- per-layer metrics --------------------------------------------------

#: (metric, unit) in the order they are printed.
PER_LAYER = (
    ("server.overhead_ms", "ms"),
    ("service.query_ms", "ms"),
    ("service.recover_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("accounting.charge_us", "us"),
    ("accounting.records_summed", "count"),
    ("ledgerlog.append_ms", "ms"),
    ("ledgerlog.appends", "count"),
    ("ledgerlog.replay_s", "s"),
    ("telemetry.access_log_us", "us"),
    ("core.publish_self_s", "s"),
    ("baselines.publish_self_s", "s"),
    ("partition.gibbs_s", "s"),
    ("perf.sae_columns", "count"),
    ("perf.sae_column_s", "s"),
    ("perf.dp_tables_s", "s"),
    ("experiments.trial_ms", "ms"),
    ("metrics.evaluate_ms", "ms"),
    ("robust.pool_starts", "count"),
    ("robust.journal_append_ms", "ms"),
    ("history.ingest_s", "s"),
    ("paper.render_s", "s"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
)


def _mean(calls: int, seconds: float, scale: float) -> float:
    return seconds / calls * scale if calls else 0.0


def layer_metrics(main: Sequence[Span], restart: Sequence[Span],
                  counts: Dict[str, float], rounds: int,
                  client: Sequence[Span] = ()) -> Dict[str, float]:
    """Per-layer numbers from one traced run.

    ``main`` spans come from the process under test, ``restart`` spans
    from the server restarted on the finished state dir (recovery) and
    ``client`` spans from the benchmark's own client; ``counts`` are
    summed over all of them.  Per-call values, and the two restart
    numbers, are means over all calls; other totals (``_s`` values and
    counts) are per round, so runs with different round counts compare.
    A layer the workload never reaches reads 0.
    """
    rounds = max(1, rounds)
    spans = list(main) + list(restart)
    st = self_times(spans)
    out: Dict[str, float] = {}

    # Round trip minus endpoint time, paired by request id and, since
    # every round reuses the same ids, by order of occurrence.
    server_q: Dict[str, List[float]] = defaultdict(list)
    for s in sorted(main):
        if s[1] == "service.query" and s[5]:
            server_q[s[5]].append(s[3] - s[2])
    client_q: Dict[str, List[float]] = defaultdict(list)
    for c in sorted(client):
        if c[1] == "client.query":
            client_q[c[5]].append(c[3] - c[2])
    gaps = [rt - endpoint for rid, trips in client_q.items()
            for rt, endpoint in zip(trips, server_q.get(rid, ()))]
    out["server.overhead_ms"] = sum(gaps) / len(gaps) * 1e3 if gaps else 0.0
    out["service.query_ms"] = _mean(*totals(spans, "service.query"), 1e3)
    out["service.recover_s"] = _mean(*totals(restart, "service.init"), 1.0)
    lookups = counts.get("cache.lookups", 0)
    out["cache.hit_ratio"] = counts.get("cache.hits", 0) / lookups if lookups else 0.0
    out["cache.evictions"] = counts.get("cache.evictions", 0) / rounds
    out["store.load_ms"] = _mean(*totals(spans, "store.load"), 1e3)
    out["store.save_ms"] = _mean(*totals(spans, "store.save"), 1e3)
    out["accounting.charge_us"] = _mean(*totals(spans, "accounting.charge"), 1e6)
    out["accounting.records_summed"] = counts.get("accounting.records_summed", 0) / rounds
    appends, append_s = totals(spans, "ledgerlog.append")
    out["ledgerlog.append_ms"] = _mean(appends, append_s, 1e3)
    out["ledgerlog.appends"] = appends / rounds
    out["ledgerlog.replay_s"] = _mean(*totals(restart, "ledgerlog.replay"), 1.0)
    out["telemetry.access_log_us"] = _mean(*totals(spans, "telemetry.access_log"), 1e6)
    out["core.publish_self_s"] = totals(spans, "core.publish", st)[1] / rounds
    out["baselines.publish_self_s"] = totals(spans, "baselines.publish", st)[1] / rounds
    out["partition.gibbs_s"] = totals(spans, "partition.gibbs", st)[1] / rounds
    columns, column_s = totals(spans, "perf.sae_column")
    out["perf.sae_columns"] = columns / rounds
    out["perf.sae_column_s"] = column_s / rounds
    out["perf.dp_tables_s"] = totals(spans, "perf.dp_tables")[1] / rounds
    out["experiments.trial_ms"] = _mean(*totals(spans, "experiments.trial"), 1e3)
    trials = totals(spans, "experiments.trial")[0]
    out["metrics.evaluate_ms"] = (
        totals(spans, "metrics.evaluate")[1] / trials * 1e3 if trials else 0.0)
    out["robust.pool_starts"] = counts.get("robust.pool_starts", 0) / rounds
    out["robust.journal_append_ms"] = _mean(*totals(spans, "robust.journal_append"), 1e3)
    out["history.ingest_s"] = totals(spans, "history.ingest")[1] / rounds
    out["paper.render_s"] = totals(spans, "paper.render")[1] / rounds
    return out
