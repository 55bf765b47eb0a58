"""Command-line interface: ``python -m repro <experiment-id|command> [...]``.

One ``argparse`` tree, one subcommand per experiment id and per
command; each subcommand accepts only the flags its handler reads
(``python -m repro <command> --help``).  The command families live in
:mod:`repro.cli.experiments` (experiment ids, ``all``, ``verify``,
``bench``), :mod:`repro.cli.sweep` (``run``, ``scenarios``,
``report``), :mod:`repro.cli.history` (``history``, ``paper``) and
:mod:`repro.cli.serve` (``serve``, ``replay``).

Examples
--------
List the experiment ids, then run one figure quickly, or seed-parallel
on four worker processes (bit-identical to the serial run)::

    python -m repro --list
    python -m repro fig_range_vs_len --quick
    python -m repro fig_point_vs_eps --quick --n-jobs 4

Run the full evaluation (slow; this is what EXPERIMENTS.md records)::

    python -m repro all

Check one publisher's empirical error against its closed-form oracle::

    python -m repro verify --publisher boost --epsilon 0.1 --trials 60

Refresh the tracked performance benchmarks (and gate on regressions)::

    python -m repro bench --quick --check

Run a fault-tolerant, journaled publisher sweep — and resume it after a
crash or SIGKILL, bit-identically::

    python -m repro run --journal sweep.jsonl --n-jobs 4 \\
        --timeout 120 --retries 2
    python -m repro run --journal sweep.jsonl --n-jobs 4 \\
        --timeout 120 --retries 2 --resume
    python -m repro run --journal sweep.jsonl --n-jobs 4 \\
        --resume --retry-failed   # re-attempt quarantined seeds too

Run a traced sweep with live progress and a Prometheus metrics dump,
then render the markdown run report from its journal::

    python -m repro run --journal sweep.jsonl --n-jobs 4 \\
        --trace --progress tty --metrics-out metrics.prom
    python -m repro report sweep.jsonl --out report.md

Accumulate a run-history trajectory and watch it for accuracy/perf
drift (the regression radar; see docs/observability.md)::

    python -m repro run --journal sweep.jsonl --history h.sqlite
    python -m repro bench --quick --check --history h.sqlite
    python -m repro history ingest sweep.jsonl --db h.sqlite
    python -m repro history drift --db h.sqlite --json verdicts.json
    python -m repro history dash --db h.sqlite --out dash.md

Sweep the DPBench-grade scenario families, feed per-workload utility
trajectories into the radar, and publish the repro-paper bundle —
deterministic markdown/LaTeX tables plus SVG crossover figures
(docs/evaluation.md)::

    python -m repro scenarios --list
    python -m repro scenarios --quick --history h.sqlite
    python -m repro scenarios --families smooth,cliff --seeds 5 \\
        --journal scen.jsonl --history h.sqlite
    python -m repro history ingest scen.jsonl --db h.sqlite --rebuild
    python -m repro paper --db h.sqlite --out paper/

Stand up the DP histogram query service and drive it with a
deterministic workload-trace replay whose p50/p99 latency feeds the
regression radar (docs/serving.md)::

    python -m repro serve --port 8377 --cache-entries 16
    python -m repro replay examples/manifests/tiny_replay.json \\
        --history h.sqlite --metrics-out replay-metrics.json \\
        --transcript transcript.json
"""

from __future__ import annotations

from typing import List, Optional

from repro.cli import experiments, history, serve, sweep
from repro.cli.common import Parser, ParserExit
from repro.experiments.registry import list_experiments

__all__ = ["main"]


class _Root(Parser):
    def error(self, message: str) -> None:
        # The command is the only argument at this level with choices.
        super().error(message.replace("invalid choice:",
                                      "unknown experiment or command"))


def build_parser() -> Parser:
    """The whole command tree; each subcommand sets ``func``."""
    parser = _Root(
        prog="dphist",
        description="Regenerate the evaluation of 'Differentially Private "
                    "Histogram Publication' (ICDE 2012), and serve, sweep "
                    "and watch its publishers.",
    )
    parser.add_argument("--list", action="store_true",
                        dest="list_experiments",
                        help="list the available experiment ids and exit")
    parser.set_defaults(func=None)
    commands = parser.add_subparsers(
        dest="command", metavar="command",
        title="experiment ids and commands (each has its own --help)",
        parser_class=Parser,
    )
    experiments.add_commands(commands)
    sweep.add_commands(commands)
    history.add_commands(commands)
    serve.add_commands(commands)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParserExit as exc:
        return exc.status
    if args.list_experiments:
        print("\n".join(list_experiments()))
        return 0
    if args.func is None:
        parser.print_help()
        return 2
    return args.func(args)
