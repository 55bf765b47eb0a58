"""Supervised, journaled sweeps — ``run`` (one dataset, the paper's
roster) and ``scenarios`` (the scenario families) — and ``report``,
which renders a sweep's journal."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List

from repro.cli.common import (
    above,
    add_n_jobs,
    at_least,
    error,
    existing,
    names,
    numbers,
    write_metrics,
)
from repro.experiments.tables import render_table


def _add_sweep_options(parser: argparse.ArgumentParser,
                       epsilons: str) -> None:
    """The flags ``run`` and ``scenarios`` share."""
    parser.add_argument("--publishers", type=names, default=None,
                        metavar="A,B,...",
                        help="comma-separated publisher roster (default: "
                             "the paper's comparison roster)")
    parser.add_argument("--epsilons", type=numbers, default=epsilons,
                        metavar="E1,E2,...",
                        help=f"comma-separated epsilon grid "
                             f"(default {epsilons})")
    add_n_jobs(parser, "worker processes (1 = serial, -1 = all CPUs); "
                       "results are bit-identical to the serial run")
    parser.add_argument("--timeout", type=above(float, 0), default=None,
                        metavar="S",
                        help="per-trial wall-clock budget in seconds; hung "
                             "workers are killed and the seed retried "
                             "(needs --n-jobs > 1)")
    parser.add_argument("--retries", type=at_least(int, 0), default=2,
                        metavar="K",
                        help="failed-attempt budget per seed before "
                             "quarantine (default 2)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="JSONL checkpoint journal shared by the whole "
                             "sweep; every completed trial is appended "
                             "atomically the moment it finishes")
    parser.add_argument("--resume", action="store_true",
                        help="load fingerprint-matching entries from "
                             "--journal and run only the missing seeds "
                             "(bit-identical continuation)")
    parser.add_argument("--history", default=None, metavar="DB",
                        help="run-history SQLite store: auto-ingest trial "
                             "rows, per-workload utility rows, metrics "
                             "totals and straggler alerts (see 'python -m "
                             "repro history --help')")


def add_commands(commands) -> None:
    run = commands.add_parser(
        "run",
        help="fault-tolerant, journaled publisher sweep",
        description="Sweep the paper's publisher roster over one dataset "
                    "through the supervised executor: retries, timeouts, "
                    "quarantine and a resumable checkpoint journal "
                    "(docs/robustness.md).",
    )
    run.add_argument("--dataset", default="age",
                     help="sweep dataset: age, nettrace, searchlogs, "
                          "socialnetwork")
    run.add_argument("--bins-sweep", dest="bins_sweep", type=int, default=64,
                     metavar="N", help="domain size of the sweep dataset")
    run.add_argument("--total", type=int, default=50_000,
                     help="total count of the sweep dataset")
    run.add_argument("--sweep-seeds", dest="sweep_seeds", type=int,
                     default=3, metavar="N", help="seeds per cell (0..N-1)")
    _add_sweep_options(run, "0.1,0.5")
    run.add_argument("--backoff", type=at_least(float, 0), default=0.5,
                     metavar="S",
                     help="base of the exponential retry delay")
    run.add_argument("--retry-failed", dest="retry_failed",
                     action="store_true",
                     help="with --resume: give journaled quarantined seeds "
                          "fresh attempts instead of keeping their "
                          "FailedRecords (use after fixing a transient "
                          "failure, e.g. a worker OOM)")
    run.add_argument("--strict", action="store_true",
                     help="fail fast on the first exhausted cell instead "
                          "of quarantining it into a FailedRecord")
    run.add_argument("--trace", action="store_true",
                     help="record per-stage span trees inside every trial "
                          "(exported to workers via REPRO_TRACE; rides the "
                          "journal in timing-exempt meta, so results stay "
                          "bit-identical)")
    run.add_argument("--trace-resources", dest="trace_resources",
                     action="store_true",
                     help="also record tracemalloc peak + getrusage per "
                          "trial (REPRO_TRACE_RESOURCE; costs real time — "
                          "attribution runs only)")
    run.add_argument("--metrics-out", dest="metrics_out", default=None,
                     metavar="PATH",
                     help="write the metrics registry after the sweep: "
                          "Prometheus textfile-collector format, or JSON "
                          "when PATH ends in .json")
    run.add_argument("--progress", choices=("none", "tty", "jsonl"),
                     default="none",
                     help="live progress on stderr: 'tty' = one rewritten "
                          "status line with ETA and stragglers, 'jsonl' = "
                          "one JSON object per executor event "
                          "(default: none)")
    run.add_argument("--straggler-factor", dest="straggler_factor",
                     type=float, default=None, metavar="F",
                     help="adaptive straggler threshold for --progress: "
                          "flag a seed after F x the mean completed-trial "
                          "duration (default: fixed 10s; env "
                          "REPRO_STRAGGLER_FACTOR)")
    run.set_defaults(func=_run)

    scenarios = commands.add_parser(
        "scenarios",
        help="sweep the DPBench-grade scenario families",
        description="Run DPBench-grade scenario families — dataset shape x "
                    "domain size x workload battery — through the "
                    "supervised executor, journal the trials, and feed "
                    "per-workload utility trajectories to the regression "
                    "radar (docs/evaluation.md).",
    )
    scenarios.add_argument("--list", action="store_true",
                           dest="list_scenarios",
                           help="list registered scenarios and exit")
    scenarios.add_argument("--scenarios", type=names, default=None,
                           metavar="A,B,...",
                           help="comma-separated scenario names "
                                "(<family>/<label>; default: all)")
    scenarios.add_argument("--families", type=names, default=None,
                           metavar="F1,F2,...",
                           help="comma-separated families — shorthand for "
                                "every scenario in them")
    scenarios.add_argument("--seeds", type=int, default=3, metavar="N",
                           help="seeds per cell (default 3)")
    scenarios.add_argument("--quick", action="store_true",
                           help="shrink to 2 seeds, eps=1.0, and the "
                                "64-bin scenarios (unless overridden)")
    _add_sweep_options(scenarios, "0.1,1.0")
    # The sweep routine reads these; 'scenarios' has no flags for them.
    scenarios.set_defaults(func=_scenarios, backoff=0.5, retry_failed=False,
                           strict=False, trace=False, trace_resources=False,
                           metrics_out=None, progress="none",
                           straggler_factor=None)

    report = commands.add_parser(
        "report",
        help="render the markdown run report from a journal",
        description="Render a checkpoint journal as a markdown run report: "
                    "per-publisher stage breakdown, ε-ledger, failures "
                    "(docs/observability.md).",
    )
    report.add_argument("journal", nargs="?", default=None,
                        type=existing("journal"),
                        help="the checkpoint-journal path to render")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write the markdown report to PATH "
                             "(default: stdout)")
    report.add_argument("--history", default=None, metavar="DB",
                        help="run-history store: adds the vs-previous-runs "
                             "delta section")
    report.set_defaults(func=_report)


def _run(args: argparse.Namespace) -> int:
    """Fault-tolerant, journaled publisher sweep (the 'run' command)."""
    from repro.robust.sweep import build_sweep_specs

    return _sweep(args, lambda: build_sweep_specs(
        dataset=args.dataset,
        n_bins=args.bins_sweep,
        total=args.total,
        publishers=args.publishers or None,
        epsilons=args.epsilons,
        n_seeds=args.sweep_seeds,
        n_jobs=args.n_jobs,
    ))


def _scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import build_scenario_specs, list_scenarios

    if args.list_scenarios:
        for scenario in list_scenarios():
            battery = len(scenario.workload_specs)
            print(f"{scenario.name:28s} n={scenario.n_bins:<5d} "
                  f"workloads={battery:<3d} {scenario.description}")
        return 0

    def build() -> List[object]:
        chosen = list(args.scenarios or [])
        for family in args.families or []:
            chosen.extend(s.name for s in list_scenarios(family))
        chosen = list(dict.fromkeys(chosen))  # dedup, keep order
        seeds, epsilons = args.seeds, args.epsilons
        if args.quick:
            seeds = min(seeds, 2)
            if epsilons == [0.1, 1.0]:  # the default grid
                epsilons = [1.0]
            if not chosen:
                chosen = [s.name for s in list_scenarios() if s.n_bins <= 64]
        return build_scenario_specs(
            scenarios=chosen or None,
            publishers=args.publishers or None,
            epsilons=epsilons,
            n_seeds=seeds,
            n_jobs=args.n_jobs,
        )

    return _sweep(args, build, title="scenario sweep")


def _sweep(args: argparse.Namespace, build: Callable[[], List[object]],
           title: str = None) -> int:
    """Validate, build the specs, run them supervised, print the table,
    feed ``--history`` and report quarantined trials."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.monitor import (
        MetricsObserver,
        MultiObserver,
        ProgressMonitor,
        RunStats,
    )
    from repro.obs.resources import ENV_VAR as RESOURCE_ENV
    from repro.robust import faults
    from repro.robust.sweep import run_sweep, sweep_table

    if args.resume and not args.journal:
        return error("--resume requires --journal")
    if args.retry_failed and not args.resume:
        return error("--retry-failed requires --resume")
    try:
        specs = build()
    except ValueError as exc:
        return error(str(exc))
    # Tracing and resource probes switch on through environment
    # variables so pool workers inherit them; supervisor-side events
    # flow through the observer stack.  RunStats is always on (it feeds
    # the end-of-run summary line); progress and metrics are opt-in.
    if args.trace:
        os.environ[obs_trace.ENV_VAR] = "1"
    if args.trace_resources:
        os.environ[RESOURCE_ENV] = "1"
    stats = RunStats()
    observers = [stats]
    monitor = None
    if args.progress != "none":
        try:
            monitor = ProgressMonitor(
                mode=args.progress,
                total_trials=sum(len(spec.seeds) for spec in specs),
                straggler_factor=args.straggler_factor,
            )
        except ValueError as exc:
            return error(str(exc))
        observers.append(monitor)
    if args.metrics_out or args.history:
        observers.append(MetricsObserver(obs_metrics.get_registry()))

    try:
        results = run_sweep(
            specs,
            n_jobs=args.n_jobs,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            journal=args.journal,
            resume=args.resume,
            retry_failed=args.retry_failed,
            strict=args.strict,
            observer=MultiObserver(observers),
        )
    finally:
        if monitor is not None:
            monitor.close()
        if args.metrics_out:
            write_metrics(obs_metrics.get_registry(), args.metrics_out)

    table, failures = sweep_table(results)
    if title:
        table.title = title
    print(render_table(table))
    fault_hits = faults.total_hits() if os.environ.get(faults.ENV_VAR) \
        else None
    print(stats.summary_line(fault_hits=fault_hits))
    if args.history:
        _ingest_sweep_history(args, specs, results, monitor, obs_metrics)
    if failures:
        print()
        print(f"{len(failures)} quarantined trial(s):")
        for failed in failures:
            print(f"  {failed.describe()}")
        return 1
    return 0


def _ingest_sweep_history(args, specs, results, monitor, obs_metrics) -> None:
    """Append a finished sweep to the run-history store (``--history``).

    The sweep itself already succeeded; history bookkeeping must never
    flip its exit code, so every failure here degrades to a warning on
    stderr (mirroring the observer firewall in ``repro.obs.monitor``).
    """
    from repro.obs.history import HistoryStore, default_commit
    from repro.robust.journal import spec_fingerprint

    source = str(args.journal or "run")
    try:
        store = HistoryStore(args.history)
        try:
            commit = default_commit()
            rows = []
            utility_rows = []
            by_name = {spec.name: spec for spec in specs}
            for spec_name in sorted(results):
                spec = by_name.get(spec_name)
                histogram = spec.histogram if spec is not None else None
                workloads = (
                    {w.name: w for w in spec.workloads}
                    if spec is not None else None
                )
                fingerprint = (
                    spec_fingerprint(spec) if spec is not None else ""
                )
                for record in results[spec_name]:
                    trial, utility = store.record_rows(
                        record, fingerprint, commit,
                        histogram=histogram, workloads=workloads,
                    )
                    rows.append(trial)
                    utility_rows.extend(utility)
            outcomes = [store.add_trials(rows, source=source)]
            if utility_rows:
                outcomes.append(store.add_utility(utility_rows,
                                                  source=source))
            outcomes.append(store.ingest_registry(
                obs_metrics.get_registry(), source=source, commit=commit,
            ))
            if monitor is not None and monitor.alerts:
                outcomes.append(store.add_alerts(
                    monitor.alerts, source=source, commit=commit,
                ))
            summary = "; ".join(o.describe() for o in outcomes)
            print(f"history: {args.history}: {summary}")
        finally:
            store.close()
    except Exception as exc:  # pragma: no cover - defensive firewall
        print(f"warning: history ingest failed: {exc}", file=sys.stderr)


def _report(args: argparse.Namespace) -> int:
    """Render the markdown run report from a journal."""
    from repro.obs.report import render_report, write_report

    if not args.journal:
        return error("report needs a journal path: "
                     "python -m repro report <journal.jsonl> "
                     "[--out report.md]")
    if args.out:
        write_report(args.journal, args.out, history=args.history)
        print(f"wrote {args.out}")
    else:
        print(render_report(args.journal, history=args.history), end="")
    return 0
