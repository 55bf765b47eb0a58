"""The regression radar — ``history {ingest,drift,dash}`` — and
``paper``, which renders the publication bundle from the same store."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict

from repro.cli.common import error, existing

#: ``--db`` of the commands that read a store (``ingest`` creates one).
_STORE = existing("history store", " (ingest something first)")


def add_commands(commands) -> None:
    history = commands.add_parser(
        "history",
        help="the regression radar over a SQLite run-history store",
        description="Regression radar: ingest run artifacts into the "
                    "SQLite run-history store, detect accuracy/perf drift "
                    "against the closed-form error oracles, and render "
                    "trend dashboards (docs/observability.md).",
    )
    sub = history.add_subparsers(dest="subcommand", required=True)

    ingest = sub.add_parser(
        "ingest",
        help="ingest checkpoint journals, BENCH_*.json snapshots, and "
             "--metrics-out JSON exports (type auto-detected; re-ingesting "
             "the same artifact is a no-op)",
    )
    ingest.add_argument("sources", nargs="+", metavar="PATH",
                        help="artifacts to ingest")
    ingest.add_argument("--db", required=True, metavar="DB",
                        help="history store path (created on first use)")
    ingest.add_argument("--commit", default=None, metavar="SHA",
                        help="commit stamp for the new rows (default: "
                             "REPRO_COMMIT, then git rev-parse HEAD)")
    ingest.add_argument("--bins", type=int, default=64, metavar="N",
                        help="sweep dataset size for offline oracle "
                             "anchoring (must match the sweep's "
                             "--bins-sweep; default 64)")
    ingest.add_argument("--total", type=int, default=50_000, metavar="N",
                        help="sweep dataset total for offline oracle "
                             "anchoring (default 50000)")
    ingest.add_argument("--rebuild", action="store_true",
                        help="also (re-)derive per-workload utility rows "
                             "from journal sources — scenario datasets and "
                             "workloads are reconstructed offline from the "
                             "spec names, so journals whose trial rows are "
                             "already ingested gain utility trajectories "
                             "without re-running anything (idempotent)")
    ingest.set_defaults(func=_ingest)

    drift = sub.add_parser(
        "drift",
        help="evaluate drift verdicts; exit 1 on confirmed drift "
             "(oracle-band violation / sustained perf CUSUM), 0 on "
             "ok/watch/no-data",
    )
    drift.add_argument("--db", required=True, type=_STORE, metavar="DB")
    drift.add_argument("--json", default=None, metavar="PATH",
                       help="write the machine-readable verdict document "
                            "to PATH")
    drift.add_argument("--window", type=int, default=5, metavar="N",
                       help="trailing window for the longitudinal z-score "
                            "(default 5)")
    drift.add_argument("--z", type=float, default=4.0, metavar="Z",
                       help="z-score threshold for 'watch' (default 4)")
    drift.add_argument("--band-z", dest="band_z", type=float, default=4.0,
                       metavar="Z",
                       help="sigma multiplier of the oracle tolerance band "
                            "(default 4)")
    drift.add_argument("--cusum-h", dest="cusum_h", type=float, default=5.0,
                       metavar="H",
                       help="CUSUM alarm threshold for bench trajectories "
                            "(default 5)")
    drift.set_defaults(func=_drift)

    dash = sub.add_parser(
        "dash",
        help="render the deterministic trend dashboard (markdown, or HTML "
             "when --out ends in .html)",
    )
    dash.add_argument("--db", required=True, type=_STORE, metavar="DB")
    dash.add_argument("--out", default=None, metavar="PATH",
                      help="write to PATH instead of stdout")
    dash.add_argument("--format", choices=("md", "html"), default=None,
                      help="force the output format (default: from the "
                           "--out suffix, else markdown)")
    dash.set_defaults(func=_dash)

    paper = commands.add_parser(
        "paper",
        help="render the repro-paper bundle from a history store",
        description="Render the repro-paper publication bundle — markdown "
                    "+ LaTeX tables and SVG crossover figures — "
                    "deterministically from the run-history store "
                    "(docs/evaluation.md).  Each artifact generates inside "
                    "its own error firewall; failures are listed, not "
                    "fatal to the rest.",
    )
    paper.add_argument("--db", required=True, type=_STORE, metavar="DB",
                       help="run-history store to render from")
    paper.add_argument("--out", required=True, metavar="DIR",
                       help="output directory (paper.md, tables/, figures/)")
    paper.set_defaults(func=_paper)


def _ingest(args: argparse.Namespace) -> int:
    from repro.exceptions import HistoryError
    from repro.obs.history import HistoryStore, sniff_source

    missing = [s for s in args.sources if not Path(s).exists()]
    if missing:
        return error(f"no such file(s): {', '.join(missing)}")
    try:
        with HistoryStore(args.db) as store:
            for source in args.sources:
                result = store.ingest(
                    source, commit=args.commit,
                    n_bins=args.bins, total=args.total,
                )
                print(f"{source}: {result.describe()}")
                if args.rebuild and sniff_source(source) == "journal":
                    utility = store.ingest_journal_utility(
                        source, commit=args.commit,
                        n_bins=args.bins, total=args.total,
                    )
                    print(f"{source}: {utility.describe()}")
    except HistoryError as exc:
        return error(str(exc))
    return 0


def _drift(args: argparse.Namespace) -> int:
    from repro.obs.drift import (
        detect_drift,
        has_confirmed_drift,
        render_verdicts_text,
    )
    from repro.obs.history import HistoryStore
    from repro.robust.atomicio import atomic_write_text

    with HistoryStore(args.db) as store:
        verdicts = detect_drift(
            store, window=args.window, z_thresh=args.z,
            band_z=args.band_z, cusum_h=args.cusum_h,
        )
    if args.json:
        atomic_write_text(Path(args.json), render_verdicts_text(verdicts))
        print(f"wrote {args.json}")
    by_status: Dict[str, int] = {}
    for verdict in verdicts:
        by_status[verdict.status] = by_status.get(verdict.status, 0) + 1
    summary = ", ".join(f"{by_status[s]} {s}"
                        for s in sorted(by_status)) or "no cells"
    print(f"drift: {summary}")
    for verdict in verdicts:
        if verdict.status in ("drift", "watch"):
            detail = "; ".join(verdict.details)
            print(f"  [{verdict.status}] {verdict.cell}: {detail}")
    return 1 if has_confirmed_drift(verdicts) else 0


def _dash(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import render_dashboard, write_dashboard

    if args.out:
        path = write_dashboard(args.db, args.out, fmt=args.format)
        print(f"wrote {path}")
    else:
        print(render_dashboard(args.db, fmt=args.format or "md"), end="")
    return 0


def _paper(args: argparse.Namespace) -> int:
    from repro.exceptions import HistoryError
    from repro.experiments.paper import generate_paper

    try:
        result = generate_paper(args.db, args.out)
    except HistoryError as exc:
        return error(str(exc))
    for path in result.written:
        print(f"wrote {path}")
    for name in sorted(result.skipped):
        print(f"skipped {name} (no data)")
    for artifact, failure in result.failures:
        print(f"warning: {artifact} failed: {failure}", file=sys.stderr)
    return 0 if result.ok else 1
