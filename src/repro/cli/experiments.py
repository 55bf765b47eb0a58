"""The paper's experiments by id (and ``all``), ``verify`` and ``bench``."""

from __future__ import annotations

import argparse

from repro.cli.common import above, add_n_jobs, at_least, error
from repro.experiments.registry import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
)
from repro.experiments.tables import render_table

#: Default trial count for ``verify``; 60 keeps the CLI check fast while
#: the z=5 band still puts the false-alarm rate well below 1e-5.
_VERIFY_TRIALS = 60


def add_commands(commands) -> None:
    ids = {name: (fn.__doc__ or name).strip().splitlines()[0]
           for name, fn in EXPERIMENTS.items()}
    ids["all"] = "run every experiment (slow; what EXPERIMENTS.md records)"
    for name, summary in ids.items():
        parser = commands.add_parser(name, help=summary, description=summary)
        parser.add_argument(
            "--quick", action="store_true",
            help="shrink grids/seeds so each experiment finishes in seconds",
        )
        add_n_jobs(parser, "worker processes for seed-parallel experiments "
                           "(1 = serial, -1 = all CPUs); results are "
                           "bit-identical to the serial run")
        parser.set_defaults(func=_run_experiments)

    verify = commands.add_parser(
        "verify",
        help="calibrate a publisher against its closed-form error oracle",
        description="Empirical-vs-oracle calibration of one publisher on a "
                    "synthetic step dataset.",
    )
    verify.add_argument("--publisher", default="dwork",
                        help="publisher to calibrate (see "
                             "repro.verify.ORACLE_BUILDERS)")
    verify.add_argument("--epsilon", type=above(float, 0), default=0.5,
                        help="privacy budget for the calibration publishes")
    verify.add_argument("--trials", type=at_least(int, 2),
                        default=_VERIFY_TRIALS,
                        help="number of independent publishes to average")
    verify.add_argument("--bins", type=at_least(int, 8), default=64,
                        help="domain size of the synthetic step dataset")
    verify.add_argument("--seed", type=int, default=0,
                        help="root seed of the deterministic verification "
                             "streams")
    verify.set_defaults(func=_verify)

    bench = commands.add_parser(
        "bench",
        help="refresh the tracked performance benchmarks",
        description="Time the partition kernels and whole publishes into "
                    "BENCH_*.json (docs/performance.md).",
    )
    bench.add_argument("--quick", action="store_true",
                       help="the quick profile (the CI gate)")
    bench.add_argument("--check", action="store_true",
                       help="compare against the committed BENCH_*.json "
                            "baselines and exit 1 on a >25%% "
                            "calibration-normalized regression")
    bench.add_argument("--output-dir", dest="output_dir", default=None,
                       metavar="DIR",
                       help="directory for BENCH_*.json (default: the "
                            "repository root)")
    bench.add_argument("--profile", default=None,
                       choices=("quick", "full", "bign"),
                       help="benchmark profile (overrides --quick): "
                            "'quick' is the CI gate, 'full' the long "
                            "exact-kernel sweep, 'bign' the 2^14..2^20 "
                            "scaling grid written to BENCH_bign.json")
    bench.add_argument("--max-n", dest="max_n", type=int, default=None,
                       metavar="N",
                       help="slice the requested bench grid at this domain "
                            "size; dropped cases are recorded as skipped "
                            "coverage gaps (the CI bench-bign lane stops "
                            "at 2^18)")
    bench.add_argument("--history", default=None, metavar="DB",
                       help="run-history SQLite store: append trajectory "
                            "entries and gate --check against the history "
                            "median")
    bench.set_defaults(func=_bench)


def _run_experiments(args: argparse.Namespace) -> int:
    names = list_experiments() if args.command == "all" else [args.command]
    for name in names:
        for table in run_experiment(name, quick=args.quick,
                                    n_jobs=args.n_jobs):
            print(render_table(table))
            print()
    return 0


def _verify_factories(bins: int):
    """Publisher factories for CLI calibration, keyed by oracle name.

    The serving roster, with a small fixed ``k`` for the structure
    publishers (matching the step dataset, so their conditional oracles
    are sharp), plus MWEM in its exact full-range regime.
    """
    from repro.baselines import Mwem
    from repro.serve.spec import publisher_factory, serve_roster
    from repro.workloads.builders import fixed_length_ranges

    factories = {}
    for name in serve_roster():
        try:
            factories[name] = publisher_factory(name, k=4)
        except ValueError:  # a baseline without a structure parameter
            factories[name] = publisher_factory(name)
    factories["mwem"] = lambda: Mwem(workload=fixed_length_ranges(bins, bins))
    return factories


def _verify(args: argparse.Namespace) -> int:
    """Empirical-vs-oracle calibration of one publisher, from the CLI."""
    from repro.datasets.generators import step_histogram
    from repro.verify.calibration import check_mean, run_conditional_trials
    from repro.verify.oracles import oracle_from_result
    from repro.verify.streams import StreamAllocator

    factories = _verify_factories(args.bins)
    if args.publisher not in factories:
        return error(f"unknown publisher {args.publisher!r}; available: "
                     f"{', '.join(sorted(factories))}")

    # Well-separated steps keep the structure publishers' realized
    # partitions deterministic, so the conditional oracles are sharp.
    histogram = step_histogram(args.bins, 4, total=50_000, rng=7)
    streams = StreamAllocator(args.seed, namespace="cli-verify")
    empirical, predicted = run_conditional_trials(
        factories[args.publisher],
        histogram,
        args.epsilon,
        args.trials,
        streams,
        f"verify/{args.publisher}",
        oracle_from_result=lambda result: oracle_from_result(
            args.publisher, histogram, args.epsilon, result
        ),
    )
    report = check_mean(empirical, predicted)
    print(f"verify {args.publisher} eps={args.epsilon:g} "
          f"bins={args.bins} trials={args.trials}")
    print(report)
    return 0 if report.ok else 1


def _bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import run_bench

    return run_bench(
        quick=args.quick,
        check=args.check,
        output_dir=args.output_dir,
        history=args.history,
        profile=args.profile,
        max_n=args.max_n,
    )
