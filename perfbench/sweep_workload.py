"""The sweep-scenarios workload: ``run_sweep`` → history → paper.

The rounds of a run are made in one child process, so that the memory it
reports is that of the sweep parent alone:

    python3 perfbench/sweep_workload.py OUT.json WORKDIR SEED MODE SECONDS

``MODE`` is ``plain`` (the program as shipped) or ``traced``.  A plain
child makes whole rounds until ``SECONDS`` have passed and at least
:data:`MIN_ROUNDS` were made.  A traced child installs the probes and
makes one round: the same pooled sweep (its pool workers inherit the
probes, but their spans stay in the workers), then the same trials
serially under the probes to get the worker-side numbers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import schedule as sch  # noqa: E402
from perfbench import stats  # noqa: E402
from perfbench.common import (  # noqa: E402
    CPU, ROOT, Metric, RunResult, Tally, child_env, dir_mb)

#: Set-ups per round: half before the sweep, half after the resume.  One
#: set-up is about 30 ms of program work; spread over the round, their
#: median samples the host's speed over the whole round.
SETUPS = 8
#: Resumes of the finished journal per round (``restart_s`` is their
#: median over the run).
RESUMES = 2
#: Rounds a plain child makes, however long they take.
MIN_ROUNDS = 5


def build_specs(plan: sch.SweepPlan) -> List[Any]:
    """Scenario specs × roster, plus AHP and DAWA-lite cells named in the
    same ``scenario/<family>/<label>/<publisher>/eps=<ε>`` convention."""
    from repro.scenarios import SCENARIOS, build_scenario_specs
    from repro.serve.spec import serve_roster

    names = [name for name, sc in SCENARIOS.items()
             if sc.n_bins == sch.SWEEP_N_BINS]
    base = [dataclasses.replace(s, seeds=plan.trial_seeds)
            for s in build_scenario_specs(
                scenarios=names, epsilons=plan.epsilons,
                n_seeds=len(plan.trial_seeds), n_jobs=sch.SWEEP_JOBS)]
    roster = serve_roster()
    extra = [dataclasses.replace(s, name=s.name.replace("/dwork/", f"/{pub}/"),
                                 publisher_factory=roster[pub])
             for s in base if "/dwork/" in s.name
             for pub in sch.SWEEP_EXTRA_PUBLISHERS]
    return base + extra


def set_up(plan: sch.SweepPlan, work: Path, index: int):
    """Build the specs, open a journal and create a history store;
    returns them with the seconds it took."""
    from repro.obs.history import HistoryStore
    from repro.robust.journal import CheckpointJournal

    t0 = time.perf_counter()
    specs = build_specs(plan)
    journal = CheckpointJournal(work / f"journal-{index}.jsonl")
    store = HistoryStore(work / f"history-{index}.sqlite")
    return specs, journal, store, time.perf_counter() - t0


def more_setups(plan: sch.SweepPlan, work: Path, setups: List[float],
                count: int) -> None:
    """``count`` more set-ups, each store closed at once."""
    for _ in range(count):
        _, _, store, seconds = set_up(plan, work, len(setups))
        store.close()
        setups.append(seconds)


class _Dispatches:
    def __init__(self) -> None:
        self.waves = 0

    def on_dispatch(self, spec_name, seeds) -> None:
        self.waves += 1


def sweep_round(plan: sch.SweepPlan, work: Path) -> Dict[str, Any]:
    """One round: set-ups, the pooled sweep with a journal, history ingest,
    paper render, checks, :data:`RESUMES` resumes of the finished journal."""
    from repro.experiments import paper
    from repro.robust.records import is_failed
    from repro.robust.sweep import run_sweep

    work.mkdir(parents=True)
    checks: List[List[Any]] = []
    # The single-threaded phases move between the CPUs like the serving
    # workloads (common.OneCpuAtATime); the pooled sweep is left free, as
    # its workers inherit the parent's CPUs when they start.
    # Set-up: specs, journal and history store; the first set is used.
    with CPU.held():
        specs, journal, store, seconds = set_up(plan, work, 0)
        setups = [seconds]
        more_setups(plan, work, setups, SETUPS // 2 - 1)

    t0 = time.perf_counter()
    results = run_sweep(specs, n_jobs=sch.SWEEP_JOBS, journal=journal)
    t1 = time.perf_counter()
    with CPU.held():
        # The paper's mean-MSE tables need the per-workload utility rows too.
        trial_ingest = store.ingest_journal(journal.path, commit="perfbench")
        utility_ingest = store.ingest_journal_utility(journal.path,
                                                      commit="perfbench")
        t2 = time.perf_counter()
        bundle = work / "paper"
        rendered = paper.generate_paper(store, bundle)
        t3 = time.perf_counter()

    records = [r for recs in results.values() for r in recs]
    trial_ok = [not is_failed(r) for r in records]
    entries = journal.entries()
    keys = [(e["key"]["spec_name"], e["key"]["seed"]) for e in entries]
    expected = {(s.name, seed_) for s in specs for seed_ in s.seeds}
    checks.append([len(keys) == len(expected) and set(keys) == expected,
                   f"journal holds {len(keys)} entries for {len(expected)} cells"])
    n_trials = store.counts()["trials"]
    checks.append([n_trials == len(entries) and trial_ingest.new_rows == len(entries),
                   f"history holds {n_trials} trial rows for {len(entries)} records"])
    checks.append([utility_ingest.new_rows > 0 and rendered.ok
                   and (bundle / "paper.md").exists(),
                   f"paper render failures {rendered.failures}"])
    for spec in specs:
        if "/dwork/" not in spec.name:
            continue
        mses = [r.metric("unit", "mse") for r in results[spec.name]
                if not is_failed(r)]
        answers = spec.histogram.size * len(mses)
        normalized = statistics.fmean(mses) / stats.laplace_range_mse(1, spec.epsilon) \
            if mses else float("inf")
        ok = answers >= stats.LAPLACE_MIN_ANSWERS and \
            stats.laplace_band_ok(normalized, answers)
        checks.append([ok, f"{spec.name}: unit MSE {normalized:.3f} x 2/eps^2 "
                           f"over {answers} answers"])

    # Restart: resuming the finished journal must run no trial.
    lines_before = journal.path.read_bytes().count(b"\n")
    resumes = []
    with CPU.held():
        for _ in range(RESUMES):
            watcher = _Dispatches()
            r0 = time.perf_counter()
            resumed = run_sweep(specs, n_jobs=sch.SWEEP_JOBS, journal=journal,
                                resume=True, observer=watcher)
            resumes.append(time.perf_counter() - r0)
            lines_after = journal.path.read_bytes().count(b"\n")
            checks.append([watcher.waves == 0 and lines_after == lines_before
                           and sum(len(v) for v in resumed.values()) == len(records),
                           f"resume dispatched {watcher.waves} waves, journal "
                           f"{lines_before} -> {lines_after} lines"])
        store.close()
        more_setups(plan, work, setups, SETUPS - len(setups))

    return {
        "setup_s": setups,
        "trial_ok": trial_ok,
        "phases": {"sweep": t1 - t0, "ingest": t2 - t1, "render": t3 - t2},
        # Publish + evaluate time of each trial, measured in the worker.
        "trial_ms": [(r.seconds + r.meta.get("t_eval_seconds", 0.0)) * 1e3
                     for r in records if not is_failed(r)],
        "restart_s": resumes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "state_mb": dir_mb(bundle) + journal.path.stat().st_size / 1e6
        + store.path.stat().st_size / 1e6,
        "checks": checks,
    }


def child(out_path: str, workdir: str, seed: int, mode: str,
          seconds: float) -> None:
    started = time.perf_counter()
    rec = None
    if mode == "traced":
        from perfbench.tracing import Recorder, install_sweep_probes

        rec = Recorder()
        install_sweep_probes(rec)
    work = Path(workdir)
    plan = sch.sweep(seed)
    rounds: List[Dict[str, Any]] = []
    while True:
        rounds.append(sweep_round(plan, work / f"round-{len(rounds)}"))
        if rec is not None:
            # Worker-side numbers: the same trials, serially, under the probes.
            run_sweep_serial(plan)
            rec.dump(str(work / "spans.json"))
            break
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - started >= seconds):
            break
    Path(out_path).write_text(json.dumps(rounds), encoding="utf-8")


def run_sweep_serial(plan: sch.SweepPlan) -> None:
    from repro.robust.sweep import run_sweep

    run_sweep([dataclasses.replace(s, n_jobs=1) for s in build_specs(plan)],
              n_jobs=1)


def run_child(workdir: Path, seed: int, mode: str,
              seconds: float) -> List[Dict[str, Any]]:
    """Run one child; returns its rounds."""
    out = workdir / f"{mode}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), str(out),
           str(workdir / mode), str(seed), mode, repr(seconds)]
    with open(workdir / f"{mode}.log", "wb") as log:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=child_env(),
                              stdin=subprocess.DEVNULL, stdout=log,
                              stderr=subprocess.STDOUT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep child failed ({proc.returncode}); "
                           f"see {workdir / f'{mode}.log'}")
    return json.loads(out.read_text(encoding="utf-8"))


def timed_s(round_: Dict[str, Any]) -> float:
    return math.fsum(round_["phases"].values())


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    """A plain child's rounds; with ``trace``, half the time for them and
    one traced round after."""
    from perfbench.tracing import layer_metrics, load_many

    tally = Tally()
    result = RunResult("sweep-scenarios")
    untraced = run_child(workdir, seed, "plain", seconds / 2 if trace else seconds)
    traced = run_child(workdir, seed, "traced", 0.0) if trace else []
    for data in untraced + traced:
        for ok in data["trial_ok"]:
            tally.op(ok, "quarantined trial")
        for ok, message in data["checks"]:
            tally.op(ok, message)
    result.rounds = len(untraced) + len(traced)
    result.attempted, result.failed = tally.attempted, tally.failed
    result.correct = tally.failed == 0

    def ops_rate(rows):
        return sum(len(r["trial_ok"]) for r in rows) / math.fsum(map(timed_s, rows))

    if trace:
        spans, counts = load_many([workdir / "traced" / "spans.json"])
        result.layers = layer_metrics(spans, (), counts, len(traced))
        result.layers["trace.ops_per_s_untraced"] = ops_rate(untraced)
        result.layers["trace.ops_per_s_traced"] = ops_rate(traced)
        result.notes.append("phases " + json.dumps(
            [r["phases"] for r in untraced + traced]))
        return result

    setups = [v for r in untraced for v in r["setup_s"]]
    rates = [len(r["trial_ok"]) / timed_s(r) for r in untraced]
    resumes = [v for r in untraced for v in r["restart_s"]]
    trial_ms = [r["trial_ms"] for r in untraced]
    rounds = len(untraced)
    m = result.metrics
    m["setup_s"] = Metric(statistics.median(setups), "s", len(setups))
    m["ops_per_s"] = Metric(statistics.median(rates), "1/s", rounds)
    m["p50_ms"] = Metric(stats.median_over_rounds(trial_ms, 50), "ms", rounds)
    m["p90_ms"] = Metric(stats.median_over_rounds(trial_ms, 90), "ms", rounds)
    m["restart_s"] = Metric(statistics.median(resumes), "s", len(resumes))
    # The child's peak after its first round: later rounds reuse its memory.
    m["rss_mb"] = Metric(untraced[0]["rss_mb"], "MB", 1)
    m["state_mb"] = Metric(statistics.median(r["state_mb"] for r in untraced),
                           "MB", rounds)
    return result


if __name__ == "__main__":
    child(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4],
          float(sys.argv[5]))
