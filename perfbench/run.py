"""Seeded end-to-end benchmark of the DP histogram program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``query-wide``, ``query-deep``, ``sweep-scenarios``
or ``all``.  The program is run from ``src/`` of the
checkout this file sits in.  A table of metrics (value, unit, samples)
goes to standard output, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured on the program as
shipped; with ``--trace 1`` they are the per-layer ones from a traced
run, plus the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent / "src"))

from perfbench import schedule  # noqa: E402
from perfbench.common import ROOT, SRC, RunResult  # noqa: E402

END_TO_END = (
    "setup_s", "ops_per_s", "p50_ms", "p90_ms", "restart_s", "rss_mb",
    "state_mb",
)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> RunResult:
    if name == "sweep-scenarios":
        from perfbench import sweep_workload

        return sweep_workload.run(seed, seconds, trace, workdir)
    from perfbench import serve_workloads

    return serve_workloads.run(name, seed, seconds, trace, workdir)


def report(result: RunResult, trace: bool) -> dict:
    """Print the table; return the JSON object for this workload."""
    from perfbench.tracing import PER_LAYER

    metrics = {}
    print(f"# {result.workload}: {result.rounds} round(s), "
          f"{result.attempted} operation(s) attempted, "
          f"{result.failed} failed")
    if trace:
        layers = dict(result.layers)
        untraced = layers["trace.ops_per_s_untraced"]
        traced = layers["trace.ops_per_s_traced"]
        layers["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0
        rows = [(name, float(layers[name]), unit, None) for name, unit in PER_LAYER]
    else:
        rows = [(name, float(result.metrics[name].value), result.metrics[name].unit,
                 result.metrics[name].samples) for name in END_TO_END]
    for name, value, unit, samples in rows:
        metrics[name] = {"value": value, "unit": unit}
        tail = "" if samples is None else f" n={samples}"
        print(f"  {name:28s} {value:14.6g} {unit:6s}{tail}")
    for note in result.notes:
        print(f"  note: {note}")
    return {"correct": bool(result.correct and result.failed == 0),
            "attempted": int(result.attempted),
            "failed": int(result.failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(schedule.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so servers and children are
    # stopped by the same cleanup paths.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = sorted(schedule.BUILDERS) if args.workload == "all" else [args.workload]
    out = None
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workdir = ROOT / ".perfbench" / f"{name}-{args.seed}-{int(time.time() * 1e6)}"
        workdir.mkdir(parents=True)
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out = report(result, bool(args.trace))
        combined["correct"] = combined["correct"] and out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, value in out["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(out if len(names) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
