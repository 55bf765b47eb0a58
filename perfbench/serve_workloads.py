"""The two workloads that drive a ``repro serve --state-dir`` process.

One closed-loop client (the program's own ``ServeClient``) sends every
request and waits for its reply.  Each round starts a fresh server on a
fresh state dir, runs the workload's seeded operation list, checks the
answers, restarts the server on the finished state dir twice, and stops
it.  Checking happens outside the timed operations, so it does not slow
them.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import schedule as sch
from perfbench import stats
from perfbench.common import CPU, Metric, RunResult, Server, Tally, dir_mb
from perfbench.tracing import Recorder
from repro.serve.client import ServeClient

#: The program's own tolerance for comparing budgets.
EPS_TOL = 1e-9

def _payload(queries: Sequence[Tuple[int, int]]) -> List[Dict[str, int]]:
    return [{"bin": lo} if hi == lo + 1 else {"lo": lo, "hi": hi}
            for lo, hi in queries]


_TRUTH: Dict[Tuple[str, int, int], List[float]] = {}


def truth_prefix(spec: Dict[str, object]) -> List[float]:
    """Prefix sums of the true histogram from ``repro.datasets.standard``."""
    key = (str(spec["dataset"]), int(spec["n_bins"]), int(spec["total"]))
    if key not in _TRUTH:
        from repro.datasets import standard

        counts = getattr(standard, key[0])(n_bins=key[1], total=key[2]).counts
        prefix = [0.0]
        for c in counts:
            prefix.append(prefix[-1] + float(c))
        _TRUTH[key] = prefix
    return _TRUTH[key]


@dataclass
class Acc:
    """Measurements accumulated over the untraced rounds of one run."""

    setup_s: List[float] = field(default_factory=list)
    #: Each round's request latencies, in seconds.
    latencies: List[List[float]] = field(default_factory=list)
    #: Requests per second of each round's timed phase.
    rates: List[float] = field(default_factory=list)
    restart_s: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    state_mb: List[float] = field(default_factory=list)
    traced_ops: int = 0
    traced_s: float = 0.0
    untraced_ops: int = 0
    untraced_s: float = 0.0


#: Restarts on the finished state dir per round.
RESTARTS = 2


class Round:
    """One round against one fresh server; subclasses fill the phases."""

    flags: Sequence[str] = ("--cache-entries", "4")

    def __init__(self, sched, rdir: Path, traced: bool, tally: Tally,
                 acc: Acc, client_rec: Optional[Recorder]) -> None:
        self.sched = sched
        self.rdir = rdir
        self.state = rdir / "state"
        self.traced = traced
        self.tally = tally
        self.acc = acc
        self.rec = client_rec if traced else None
        self.spans: List[Path] = []

    # -- plumbing ------------------------------------------------------
    def start(self, tag: str) -> Tuple[Server, object]:
        spans = self.rdir / f"spans-{tag}.json" if self.traced else None
        server = Server.start(self.state, self.flags,
                              self.rdir / "server.log", spans)
        if spans is not None:
            self.spans.append(spans)
        client = ServeClient(server.url, timeout=120.0, max_retries=0)
        return server, client

    def query(self, client, tenant: str, queries, fingerprint: str,
              key: str, span: str = "client.query"):
        if self.rec is None:
            return client.query(tenant, _payload(queries),
                                fingerprint=fingerprint, idempotency_key=key)
        return self.rec.call(
            span, client.query,
            (tenant, _payload(queries)),
            {"fingerprint": fingerprint, "idempotency_key": key}, key)

    def timed_queries(self, client, requests: Sequence[sch.Request],
                      fps: Sequence[str]) -> List[Tuple[int, dict]]:
        """The timed phase: send every request, record latencies."""
        out = []
        lat = []
        start = time.perf_counter()
        for req in requests:
            t0 = time.perf_counter()
            status, body = self.query(client, req.tenant, req.queries,
                                      fps[req.artifact], req.key)
            lat.append(time.perf_counter() - t0)
            out.append((status, body))
        elapsed = time.perf_counter() - start
        self.note_timed(len(requests), elapsed)
        if not self.traced:
            self.acc.latencies.append(lat)
        return out

    def note_timed(self, ops: int, seconds: float) -> None:
        acc = self.acc
        if self.traced:
            acc.traced_ops += ops
            acc.traced_s += seconds
        else:
            acc.untraced_ops += ops
            acc.untraced_s += seconds
            acc.rates.append(ops / seconds)

    def publish(self, client, spec) -> str:
        """A cold publish that must spend the spec's ε; returns the
        fingerprint."""
        status, body = client.publish(spec)
        spent = body.get("epsilon_spent")
        ok = (status == 200 and body.get("cached") is False
              and isinstance(spent, float)
              and abs(spent - float(spec["epsilon"])) <= EPS_TOL)
        self.tally.op(ok, f"publish {spec}: {status} {body}")
        return str(body.get("fingerprint", ""))

    def register(self, client, tenants) -> None:
        for name, budget in tenants:
            status, body = client.register_tenant(name, budget)
            self.tally.op(status == 200 and body.get("remaining") == budget,
                          f"register {name}: {status} {body}")

    def check_answers(self, requests, responses, artifacts,
                      budgets: Dict[str, float], quota: Optional[int],
                      errors: Dict[Tuple[int, int], float]) -> Dict[str, int]:
        """Per-request checks; returns answers per tenant.

        A request is one operation: it fails on an unexpected status, a
        missing or extra answer, a ``remaining`` that is not the budget
        minus ε × the answers so far, or a broken additivity triple.
        Refusals past a tenant's quota are expected, not failures.
        Normalized squared errors of ``dwork`` answers go to ``errors``,
        keyed by range: the first answer for a range, whichever artifact
        gave it.
        """
        answered: Dict[str, int] = defaultdict(int)
        for req, (status, body) in zip(requests, responses):
            spec = artifacts[req.artifact]
            eps = float(spec["epsilon"])
            results = body.get("results") or []
            ok = len(results) == len(req.queries)
            values: List[Optional[float]] = []
            for (lo, hi), res in zip(req.queries, results):
                if res.get("status") == "ok":
                    answered[req.tenant] += 1
                    expect = budgets[req.tenant] - eps * answered[req.tenant]
                    ok = ok and abs(res.get("remaining", -1.0) - expect) <= EPS_TOL
                    ok = ok and (quota is None or answered[req.tenant] <= quota)
                    values.append(res.get("value"))
                else:
                    ok = ok and res.get("status") == "exhausted" and (
                        quota is not None and answered[req.tenant] == quota)
                    values.append(None)
            refused = sum(v is None for v in values)
            ok = ok and status == (429 if refused else 200)
            for whole, left, right in sch.additive_triples(req.queries):
                a, b, c = values[whole], values[left], values[right]
                if a is not None and b is not None and c is not None:
                    ok = ok and abs(a - (b + c)) <= 1e-6 * (1.0 + abs(a))
            if spec["publisher"] == "dwork":
                prefix = truth_prefix(spec)
                for (lo, hi), value in zip(req.queries, values):
                    if value is None or (lo, hi) in errors:
                        continue
                    err = value - (prefix[hi] - prefix[lo])
                    errors[(lo, hi)] = err * err / stats.laplace_range_mse(hi - lo, eps)
            self.tally.op(ok, f"query {req.key}: {status} {body}")
        return answered

    def check_spent(self, client, expect: Dict[str, float], what: str) -> None:
        tenants = client.stats().get("tenants", {})
        ok = all(abs(tenants.get(name, {}).get("spent", -1.0) - spent) <= EPS_TOL
                 for name, spent in expect.items())
        self.tally.op(ok, f"{what}: spent {tenants} != {expect}")

    def check_errors(self, errors: Dict[Tuple[int, int], float]) -> None:
        """Laplace band on the mean over pairwise disjoint answered ranges.

        Disjoint on the bin axis whatever the artifact: the ``dwork``
        artifacts may share a noise stream (the server seeds every
        publish alike), so only ranges over different bins are surely
        independent, and the band is sized to their count.
        """
        chosen = stats.disjoint_ranges(errors)
        if len(chosen) < stats.LAPLACE_MIN_ANSWERS:
            self.tally.op(False, f"only {len(chosen)} disjoint dwork answers")
            return
        mean = statistics.fmean(errors[r] for r in chosen)
        band = stats.laplace_band(len(chosen))
        self.tally.op(band[0] <= mean <= band[1],
                      f"dwork error mean {mean:.3f} over {len(chosen)} "
                      f"disjoint ranges outside {band}")

    def finish_and_restart(self, server, client, probe: Callable) -> None:
        """Record memory and disk, stop, then :data:`RESTARTS` times:
        start a server on the same state dir, time launch → ``probe``'s
        first answer (``probe`` returns that moment and runs its checks),
        stop."""
        rss_mb = server.rss_mb()
        server.stop(client)
        state_mb = dir_mb(self.state)
        for i in range(RESTARTS):
            t0 = time.perf_counter()
            server2, client2 = self.start(f"restart-{i}")
            try:
                answered_at = probe(client2)
            except BaseException:
                server2.kill()
                raise
            server2.stop(client2)
            if not self.traced:
                self.acc.restart_s.append(answered_at - t0)
        if not self.traced:
            self.acc.rss_mb.append(rss_mb)
            self.acc.state_mb.append(state_mb)

    def setup_done(self, t_launch: float) -> None:
        """Record set-up time: launch to the first timed operation."""
        if not self.traced:
            self.acc.setup_s.append(time.perf_counter() - t_launch)


def _replay(round_: Round, client, req: sch.Request, fps, original: dict) -> float:
    """Resend a paid request under its original key: it must come back
    ``replayed`` with the original values and charge nothing.  Returns
    the moment the answer arrived."""
    status, body = round_.query(client, req.tenant, req.queries,
                                fps[req.artifact], req.key, "client.probe")
    answered_at = time.perf_counter()
    results = body.get("results") or []
    ok = status == 200 and len(results) == len(req.queries) and all(
        r.get("replayed") is True and r.get("value") == o.get("value")
        for r, o in zip(results, original.get("results") or []))
    round_.tally.op(ok, f"replay after restart: {status} {body}")
    return answered_at


# -- query-wide ---------------------------------------------------------

class WideRound(Round):

    def run(self) -> None:
        sched: sch.WideSchedule = self.sched
        t_launch = time.perf_counter()
        server, client = self.start("main")
        try:
            self.register(client, sched.tenants)
            fps = [self.publish(client, spec)
                   for spec in sched.artifacts + sched.setup_publishes]
            self.setup_done(t_launch)
            responses = self.timed_queries(client, sched.requests, fps)
            budgets = dict(sched.tenants)
            errors: Dict[Tuple[int, int], float] = {}
            answered = self.check_answers(sched.requests, responses,
                                          sched.artifacts, budgets, None,
                                          errors)
            self.check_spent(client, {t: answered[t] * sch.WIDE_EPSILON
                                      for t in budgets}, "query-wide stats")
            self.check_errors(errors)
        except BaseException:
            server.kill()
            raise
        first = sched.requests[0]
        self.finish_and_restart(server, client, lambda c: _replay(
            self, c, first, fps, responses[0][1]))


# -- query-deep ---------------------------------------------------------

class DeepRound(Round):

    def run(self) -> None:
        sched: sch.DeepSchedule = self.sched
        t_launch = time.perf_counter()
        server, client = self.start("main")
        try:
            self.register(client, sched.tenants)
            fps = [self.publish(client, spec)
                   for spec in sched.artifacts + sched.setup_publishes]
            self.setup_done(t_launch)
            responses = self.timed_queries(client, sched.requests, fps)
            budgets = dict(sched.tenants)
            errors: Dict[Tuple[int, int], float] = {}
            answered = self.check_answers(sched.requests, responses,
                                          sched.artifacts, budgets,
                                          sched.quota, errors)
            # Exactly budget/ε answers per tenant, then refusals only.
            self.tally.op(all(answered[t] == sched.quota for t in budgets),
                          f"answers per tenant {dict(answered)}")
            spent = {t: sched.quota * sch.DEEP_EPSILON for t in budgets}
            self.check_spent(client, spent, "query-deep stats")
            self.check_errors(errors)
        except BaseException:
            server.kill()
            raise
        first = sched.requests[0]

        def deep_probe(client2):
            answered_at = _replay(self, client2, first, fps, responses[0][1])
            # Spent/remaining unchanged for every tenant after restart.
            self.check_spent(client2, spent, "after restart")
            # An exhausted tenant is still refused.
            status, body = self.query(client2, first.tenant, first.queries,
                                      fps[first.artifact], "after-restart",
                                      "client.probe")
            results = body.get("results") or [{}]
            self.tally.op(status == 429 and results[0].get("status") == "exhausted",
                          f"exhausted tenant after restart: {status} {body}")
            return answered_at
        self.finish_and_restart(server, client, deep_probe)


ROUNDS = {"query-wide": WideRound, "query-deep": DeepRound}


def metrics_from(acc: Acc, workload: str) -> Dict[str, Metric]:
    """End-to-end metrics of the untraced rounds: medians over the rounds
    of each round's rate and latency percentiles, and medians over the
    set-ups and the restarts."""
    rounds = len(acc.rates)
    return {
        "setup_s": Metric(statistics.median(acc.setup_s), "s", len(acc.setup_s)),
        "ops_per_s": Metric(statistics.median(acc.rates), "1/s", rounds),
        "p50_ms": Metric(stats.median_over_rounds(acc.latencies, 50) * 1e3,
                         "ms", rounds),
        "p90_ms": Metric(stats.median_over_rounds(acc.latencies, 90) * 1e3,
                         "ms", rounds),
        "restart_s": Metric(statistics.median(acc.restart_s), "s", len(acc.restart_s)),
        "rss_mb": Metric(statistics.median(acc.rss_mb), "MB", rounds),
        "state_mb": Metric(statistics.median(acc.state_mb), "MB", rounds),
    }


#: Untraced rounds every run makes, however long they take.
MIN_ROUNDS = 5


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> RunResult:
    """Whole rounds until ``seconds`` have passed and, untraced, at least
    :data:`MIN_ROUNDS` were made.

    With ``trace`` the rounds alternate untraced/traced servers (and end
    on a traced one); per-layer numbers come from the traced rounds, and
    the untraced ones give the tracing overhead.
    """
    with CPU.held():
        return _run(workload, seed, seconds, trace, workdir)


def _run(workload: str, seed: int, seconds: float, trace: bool,
         workdir: Path) -> RunResult:
    from perfbench.tracing import layer_metrics, load_many

    started = time.perf_counter()
    sched = sch.BUILDERS[workload](seed)
    round_cls = ROUNDS[workload]
    tally, acc = Tally(), Acc()
    client_rec = Recorder() if trace else None
    traced_rounds: List[Round] = []
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        rdir = workdir / f"round-{rounds}"
        rdir.mkdir(parents=True)
        r = round_cls(sched, rdir, traced, tally, acc, client_rec)
        r.run()
        if traced:
            traced_rounds.append(r)
        rounds += 1
        whole = rounds % 2 == 0 if trace else rounds >= MIN_ROUNDS
        if whole and time.perf_counter() - started >= seconds:
            break
    result = RunResult(workload, tally.attempted, tally.failed,
                       tally.failed == 0, rounds)
    if not trace:
        result.metrics = metrics_from(acc, workload)
        return result
    files = [p for r in traced_rounds for p in r.spans]
    spans, counts = load_many(files)
    restart_ids = {i for i, p in enumerate(files) if "restart" in p.name}
    main = [s for s in spans if (s[0] >> 40) not in restart_ids]
    restart = [s for s in spans if (s[0] >> 40) in restart_ids]
    result.layers = layer_metrics(main, restart, counts,
                                  len(traced_rounds), client_rec.spans)
    result.layers["trace.ops_per_s_untraced"] = acc.untraced_ops / acc.untraced_s
    result.layers["trace.ops_per_s_traced"] = acc.traced_ops / acc.traced_s
    return result
