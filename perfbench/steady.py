"""Steadiness check: run workloads repeatedly and compare spread to bounds.

    python3 perfbench/steady.py --workloads query-wide,sweep-scenarios \\
        --runs 10 [--first-seed 1] [--seconds S]

Run ``i`` uses seed ``first-seed + i``; the order of the workloads
alternates (forward on even runs, reversed on odd ones).  For every
end-to-end metric of ``BENCHMARK.json`` it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the inter-quartile
spread as a share of the median, and whether that spread fits the
metric's bound and a third of it.  It also prints the share of failed
operations.  Exits 1 if any run fails, any spread (``setup_s`` too)
exceeds its bound, or the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import quartiles, spread  # noqa: E402


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    names = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in names}
    shares = {w: set() for w in names}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in (names if i % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=str(HERE.parent),
                                  capture_output=True, text=True, timeout=900)
            elapsed = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            shares[name].add((result["failed"], result["attempted"]))
            ok = ok and result["correct"]
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed} ({elapsed:.0f} s): " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                flush=True)
    for name in names:
        fractions = {f / a for f, a in shares[name]}
        print(f"\n{name}: failed share {sorted(fractions)}")
        ok = ok and len(fractions) <= 1
        print(f"  {'metric':26s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s}  fits  <bound/3")
        for metric, bound in bounds.items():
            vals = values[name][metric]
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            fits = s <= bound
            ok = ok and fits
            print(f"  {metric:26s} {q2:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{s:8.3f} {bound:6.2f}  {'yes ' if fits else 'NO  '}"
                  f"  {'yes' if s < bound / 3 else 'no'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
