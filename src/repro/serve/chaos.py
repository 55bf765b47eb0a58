"""Kill-and-restart chaos drill for the serving wing.

``repro replay --chaos`` proves the crash-safety tentpole end to end:
it starts a *real* server subprocess with a fault plan that SIGKILLs
the process (``os._exit``) at the crash-critical instruction
boundaries — before the ledger journal append, after the append but
before the reply, and mid-artifact-spill — plus a short delayed-handler
fault, then drives a deterministic replay through a babysitter that
restarts the server every time it dies.  The fault plan's on-disk hit
slots make every kill fire exactly once across restarts, so the drill
is reproducible.  The restart after the ``serve.after_journal`` kill
first cuts the ledger's last line (a debit journaled but never
answered) to half its bytes, once, as if that SIGKILL had landed
mid-write.

After the trace completes the drill asserts the invariants the WAL
design promises:

* **no overdraft** — every tenant's journaled ε total is within budget;
* **no double-spend** — the live server's spent totals exactly equal an
  independent replay of the ledger file (idempotent retries were
  answered for free, not re-charged);
* **byte-identical artifacts** — the spilled artifact's counts equal a
  fresh publish of the same spec, byte for byte;
* **deterministic transcript** — every request that survived (ok or
  exhausted) matches the corresponding record of an uninterrupted
  baseline replay bit for bit.

The report (and the chaos transcript) are written into the state dir so
CI can upload them as artifacts.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.robust import faults
from repro.robust.atomicio import atomic_write_text
from repro.serve.artifacts import publish_artifact
from repro.serve.client import ServeClient
from repro.serve.ledgerlog import LedgerLog
from repro.serve.replay import ReplayManifest, ReplayResult, run_replay
from repro.serve.store import ArtifactStore

__all__ = ["ChaosReport", "default_chaos_rules", "run_chaos_replay"]

#: The instruction boundaries the drill kills at, in trace order.
KILL_SITES = (
    "serve.before_spill",      # mid-publish, before the artifact spill
    "serve.before_journal",    # after the atomic spend, before the WAL
    "serve.after_journal",     # after the WAL, before the reply
)

#: Numerical slack for comparing ε sums accumulated in different orders.
EPS_SLACK = 1e-9


def default_chaos_rules(hang_seconds: float = 0.1) -> List[faults.FaultRule]:
    """One exactly-once kill per crash site + a brief handler delay."""
    rules = [
        faults.FaultRule(action="kill", site=site, times=1)
        for site in KILL_SITES
    ]
    rules.append(faults.FaultRule(
        action="hang", site="serve.handler", times=2,
        hang_seconds=hang_seconds,
    ))
    return rules


def _tear_last_line(path: Path) -> None:
    """Cut the file's last line to half its bytes."""
    data = path.read_bytes().rstrip(b"\n")
    start = data.rfind(b"\n") + 1
    os.truncate(path, start + (len(data) - start) // 2)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@dataclass
class ChaosReport:
    """What the drill observed and whether the invariants held."""

    manifest: str
    state_dir: str
    restarts: int = 0
    fault_hits: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)
    chaos_transcript_sha: str = ""
    baseline_transcript_sha: str = ""
    surviving: int = 0
    lost: int = 0
    spent_by_tenant: Dict[str, float] = field(default_factory=dict)
    #: Valid access-log lines the chaos server wrote across all its
    #: incarnations (informational — the log shares the state dir).
    access_log_lines: int = 0

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def to_payload(self) -> Dict[str, Any]:
        return {
            "manifest": self.manifest,
            "state_dir": self.state_dir,
            "ok": self.ok,
            "restarts": self.restarts,
            "fault_hits": self.fault_hits,
            "checks": dict(self.checks),
            "details": list(self.details),
            "chaos_transcript_sha": self.chaos_transcript_sha,
            "baseline_transcript_sha": self.baseline_transcript_sha,
            "surviving": self.surviving,
            "lost": self.lost,
            "spent_by_tenant": dict(self.spent_by_tenant),
            "access_log_lines": self.access_log_lines,
        }

    def summary_lines(self) -> List[str]:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"chaos replay {self.manifest}: {verdict} "
            f"({self.restarts} restart(s), {self.fault_hits} fault "
            f"firing(s), {self.surviving} surviving / {self.lost} lost "
            f"request(s))",
        ]
        for name in sorted(self.checks):
            mark = "ok" if self.checks[name] else "FAIL"
            lines.append(f"  [{mark}] {name}")
        for detail in self.details:
            lines.append(f"  - {detail}")
        return lines


class _Babysitter:
    """Restart the server subprocess every time a fault kills it."""

    def __init__(self, spawn, max_restarts: int = 8) -> None:
        self._spawn = spawn
        self.max_restarts = max_restarts
        self.restarts = 0
        self.process: subprocess.Popen = spawn()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._watch, name="chaos-babysitter", daemon=True
        )
        self._thread.start()

    def _watch(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                process = self.process
            if process.poll() is not None and not self._stop.is_set():
                if self.restarts >= self.max_restarts:
                    return
                with self._lock:
                    self.restarts += 1
                    self.process = self._spawn()
            time.sleep(0.05)

    def stop(self) -> subprocess.Popen:
        """Stop restarting; returns the (possibly dead) current process."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        with self._lock:
            return self.process


def _compare_transcripts(
    chaos: ReplayResult, baseline: ReplayResult
) -> Tuple[bool, int, int, List[str]]:
    """Surviving chaos records must be bit-identical to the baseline."""
    baseline_by_index = {r["index"]: r for r in baseline.records}
    surviving = 0
    lost = 0
    problems: List[str] = []
    fields = ("tenant", "phase", "kind", "lo", "hi", "status", "value")
    for record in chaos.records:
        if record["status"] not in ("ok", "exhausted"):
            lost += 1
            continue
        surviving += 1
        expected = baseline_by_index.get(record["index"])
        if expected is None:
            problems.append(f"index {record['index']}: not in baseline")
            continue
        for name in fields:
            if record.get(name) != expected.get(name):
                problems.append(
                    f"index {record['index']}: {name} "
                    f"{record.get(name)!r} != baseline "
                    f"{expected.get(name)!r}"
                )
                break
    return not problems, surviving, lost, problems


def run_chaos_replay(
    manifest: ReplayManifest,
    state_dir: Union[str, Path],
    *,
    rules: Optional[List[faults.FaultRule]] = None,
    tenant_budget: float = 100.0,
    retries: int = 8,
    backoff_seconds: float = 0.25,
    max_restarts: int = 8,
    startup_deadline: float = 30.0,
    python: Optional[str] = None,
) -> ChaosReport:
    """Run the kill-mid-replay drill; see the module docstring.

    The server runs as ``python -m repro serve --state-dir …`` in a
    subprocess with the fault plan activated through the environment;
    this process itself must stay fault-free (the baseline replay is
    executed in-process with the plan variable stripped).
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    plan_path = faults.write_plan(
        state_dir / "faultplan.json",
        rules if rules is not None else default_chaos_rules(),
    )
    plan = faults.load_plan(plan_path)
    port = _free_port()
    report = ChaosReport(manifest=manifest.name, state_dir=str(state_dir))

    # -- baseline: uninterrupted, fault-free, fresh state --------------
    saved_plan = os.environ.pop(faults.ENV_VAR, None)
    try:
        baseline = run_replay(
            manifest, time_scale=0.0,
            default_tenant_budget=tenant_budget,
        )
    finally:
        if saved_plan is not None:
            os.environ[faults.ENV_VAR] = saved_plan
    report.baseline_transcript_sha = baseline.transcript_sha()

    # -- the chaos run -------------------------------------------------
    env = dict(os.environ)
    env[faults.ENV_VAR] = str(plan_path)
    command = [
        python or sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--state-dir", str(state_dir),
        "--tenant-budget", str(tenant_budget),
    ]

    torn = False

    def _spawn() -> subprocess.Popen:
        nonlocal torn
        fired = {(plan.rules[i].action, plan.rules[i].site)
                 for i in faults.hit_counts(plan)}
        if not torn and ("kill", "serve.after_journal") in fired:
            _tear_last_line(state_dir / "ledger.jsonl")
            torn = True
        return subprocess.Popen(
            command, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    base_url = f"http://127.0.0.1:{port}"
    sitter = _Babysitter(_spawn, max_restarts=max_restarts)
    try:
        ServeClient(base_url).wait_ready(deadline_seconds=startup_deadline)
        chaos = run_replay(
            manifest, base_url=base_url, time_scale=0.0,
            retries=retries, backoff_seconds=backoff_seconds,
        )
        # Authoritative final scrape (run_replay's own scrape can race
        # a just-restarted server; this one waits for readiness).
        final_stats = chaos.server_stats
        try:
            probe = ServeClient(base_url, timeout=10.0)
            probe.wait_ready(deadline_seconds=10.0)
            final_stats = probe.stats()
        except (OSError, TimeoutError):
            pass
    finally:
        process = sitter.stop()
        try:
            ServeClient(base_url, timeout=5.0).shutdown()
        except OSError:
            pass
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)
    report.restarts = sitter.restarts
    report.fault_hits = faults.total_hits(plan)
    report.chaos_transcript_sha = chaos.transcript_sha()

    # -- invariants ----------------------------------------------------
    budgets = {
        t.name: (tenant_budget if t.budget is None else float(t.budget))
        for t in manifest.tenants
    }
    ledger_replay = LedgerLog(state_dir / "ledger.jsonl").replay()
    spent = ledger_replay.spent_by_tenant()
    report.spent_by_tenant = dict(spent)

    over = {
        name: total for name, total in spent.items()
        if total > budgets.get(name, tenant_budget) + EPS_SLACK
    }
    report.checks["no_overdraft"] = not over
    for name, total in sorted(over.items()):
        report.details.append(
            f"tenant {name}: journaled {total:g} > budget "
            f"{budgets.get(name, tenant_budget):g}"
        )

    server_tenants = (final_stats or {}).get("tenants") or {}
    matches = bool(server_tenants)
    for name, total in spent.items():
        live = server_tenants.get(name, {}).get("spent")
        if live is None or abs(float(live) - total) > 1e-6:
            matches = False
            report.details.append(
                f"tenant {name}: server spent {live!r} != ledger "
                f"replay {total:g}"
            )
    report.checks["spent_matches_ledger"] = matches

    store = ArtifactStore(state_dir / "artifacts")
    stored = store.load(chaos.fingerprint)
    fresh = publish_artifact(manifest.spec)
    identical = (
        stored is not None
        and stored.counts.tobytes() == fresh.counts.tobytes()
    )
    report.checks["artifact_byte_identical"] = identical
    if stored is None:
        report.details.append(
            f"artifact {chaos.fingerprint[:16]}… missing from store"
        )
    elif not identical:
        report.details.append(
            f"artifact {chaos.fingerprint[:16]}… differs from a fresh "
            "publish"
        )

    same, surviving, lost, problems = _compare_transcripts(chaos, baseline)
    report.checks["transcript_deterministic"] = same
    report.surviving = surviving
    report.lost = lost
    report.details.extend(problems[:10])

    report.checks["faults_fired"] = report.fault_hits >= len(
        [r for r in (rules or default_chaos_rules()) if r.action == "kill"]
    )
    report.checks["no_server_5xx"] = not any(
        r["code"] >= 500 and r["code"] != 503 for r in chaos.records
    )

    # Informational: the chaos server writes its access log into the
    # shared state dir; count the lines that validate against the
    # schema (restarts append to the same file).
    access_log = state_dir / "access.log"
    if access_log.exists():
        from repro.serve.telemetry import validate_access_log_line

        count = 0
        for line in access_log.read_text(
            encoding="utf-8"
        ).splitlines():
            if line.strip() and not validate_access_log_line(line):
                count += 1
        report.access_log_lines = count

    # -- CI artifacts --------------------------------------------------
    atomic_write_text(
        state_dir / "chaos_transcript.json",
        json.dumps(chaos.transcript(), indent=2, sort_keys=True) + "\n",
    )
    atomic_write_text(
        state_dir / "chaos_report.json",
        json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n",
    )
    return report
