"""Extension experiments: beyond the paper's 1-D one-shot setting.

``ext_spatial`` compares the 2-D publishers on rectangle workloads;
``ext_streaming`` compares uniform vs threshold release under w-event
privacy.  Neither corresponds to a figure in the target paper — they
exercise the follow-on problem settings the library also covers.  A
``RunRecord`` cannot carry their 2-D and streaming releases (nor
``abl_error_model``'s per-bin variances), so only ``ext_successors``
runs its cells like the figures do.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.experiments.tables import Table
from repro.hist.histogram import Histogram
from repro.spatial.histogram2d import Histogram2D
from repro.spatial.publishers import (
    AdaptiveGrid,
    Identity2D,
    QuadTree,
    UniformGrid,
)
from repro.spatial.workloads import random_rectangles
from repro.streaming.release import ThresholdStream, UniformStream

__all__ = ["ext_spatial", "ext_streaming", "ext_successors", "abl_error_model"]


def ext_successors(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """NF / SF / AHP / DAWA-lite head-to-head (the successor comparison)."""
    from repro.baselines.ahp import Ahp
    from repro.baselines.dawa import DawaLite
    from repro.core import NoiseFirst, StructureFirst
    from repro.datasets.standard import nettrace, searchlogs
    from repro.experiments.runner import run_cells, workload_mses
    from repro.experiments.spec import ExperimentSpec
    from repro.workloads.builders import fixed_length_ranges, unit_queries

    datasets = {
        "searchlogs": searchlogs(n_bins=256 if quick else 512,
                                 total=100_000),
        "nettrace": nettrace(n_bins=256 if quick else 512, total=100_000),
    }
    seeds = range(3 if quick else 10)
    publishers = {"noisefirst": NoiseFirst, "structurefirst": StructureFirst,
                  "ahp": Ahp, "dawa-lite": DawaLite}
    cells = {}
    for ds_name, hist in datasets.items():
        workloads = (unit_queries(hist.size),
                     fixed_length_ranges(hist.size, hist.size // 2))
        for eps in [0.02, 0.1]:
            for pub_name, factory in publishers.items():
                cells[ds_name, eps, pub_name] = ExperimentSpec(
                    f"successors/{ds_name}/{pub_name}/{eps:g}", hist,
                    factory, eps, workloads, seeds,
                )
    records = run_cells(cells, n_jobs)
    table = Table(
        title="ext_successors: NoiseFirst vs StructureFirst vs AHP vs DAWA-lite",
        headers=["dataset", "epsilon", "publisher", "unit MSE", "range MSE"],
        notes="AHP clusters by value (non-contiguous), the others by "
              "position; sparse data favours AHP's thresholding",
    )
    for key, cell in records.items():
        table.add_row(*key, *workload_mses(cell, cells[key].workloads))
    return [table]


def abl_error_model(quick: bool = False) -> List[Table]:
    """Closed-form noise-variance predictions vs Monte Carlo measurement.

    Validates the oracles of :mod:`repro.verify.oracles` on the real
    publishers with frozen structures; the 'ratio' column should hover
    around 1.
    """
    from repro.baselines.dwork import DworkIdentity
    from repro.baselines.privelet import Privelet
    from repro.core import StructureFirst
    from repro.verify.oracles import oracle_from_result

    n, eps = 128, 0.5
    zero = Histogram.from_counts(np.zeros(n))
    reps = 300 if quick else 2000
    table = Table(
        title=f"abl_error_model [n={n}, eps={eps}]: predicted vs measured "
              "noise variance",
        headers=["quantity", "predicted", "measured", "ratio"],
    )

    for name, publisher in (("dwork", DworkIdentity()),
                            ("privelet", Privelet())):
        outputs = [publisher.publish(zero, budget=eps, rng=s)
                   for s in range(reps)]
        measured = np.var([o.histogram.counts for o in outputs],
                          axis=0).mean()
        oracle = oracle_from_result(name, zero, eps, outputs[0])
        predicted = float(oracle.per_bin_variance.mean())
        table.add_row(f"{name} unit", predicted, float(measured),
                      float(measured / predicted))

    # SF with a pinned uniform structure so the partition is frozen.
    sf = StructureFirst(k=16, structure_mode="uniform")
    outputs = [sf.publish(zero, budget=eps, rng=s) for s in range(reps)]
    oracle = oracle_from_result("structurefirst", zero, eps, outputs[0])
    counts = np.array([o.histogram.counts for o in outputs])
    measured_unit = float(counts.var(axis=0).mean())
    predicted_unit = float(oracle.per_bin_variance.mean())
    table.add_row("structurefirst unit", predicted_unit, measured_unit,
                  measured_unit / predicted_unit)

    lo, hi = 10, n // 2
    range_sums = counts[:, lo : hi + 1].sum(axis=1)
    measured_range = float(np.var(range_sums))
    predicted_range = oracle.range_variance(lo, hi)
    table.add_row("structurefirst range", predicted_range, measured_range,
                  measured_range / predicted_range)
    return [table]


def _cluster_grid(side: int, total: int) -> Histogram2D:
    rng = np.random.default_rng(42)
    n1 = int(total * 0.6)
    n2 = total - n1
    xs = np.concatenate([rng.normal(0.3, 0.05, n1), rng.normal(0.7, 0.12, n2)])
    ys = np.concatenate([rng.normal(0.5, 0.08, n1), rng.normal(0.25, 0.1, n2)])
    return Histogram2D.from_points(xs, ys, shape=(side, side),
                                   bounds=(0, 1, 0, 1), name="clusters")


def ext_spatial(quick: bool = False) -> List[Table]:
    """Rectangle-query MSE of the 2-D publishers across epsilon.

    Includes a Hilbert-flattened NoiseFirst arm — the paper's 1-D
    algorithm lifted to 2-D via the locality-preserving curve (the mIHP
    recipe).  NoiseFirst is the 1-D publisher here because its
    vectorized DP stays fast at the flattened n = side^2 domain.
    """
    from repro.core import NoiseFirst
    from repro.spatial.hilbert import HilbertPublisher2D

    side = 32 if quick else 64
    truth = _cluster_grid(side, total=100_000)
    queries = random_rectangles(truth.shape, count=200, rng=1)
    true_answers = truth.evaluate(queries)
    seeds = range(3 if quick else 5)
    publishers = [Identity2D(), UniformGrid(), AdaptiveGrid(),
                  QuadTree(depth=5),
                  HilbertPublisher2D(NoiseFirst(max_k=96))]
    table = Table(
        title=f"ext_spatial [{side}x{side} clusters]: rectangle MSE vs epsilon",
        headers=["epsilon"] + [p.name for p in publishers],
        notes="grids should beat per-cell noise once cells outnumber data",
    )
    for eps in [0.01, 0.1, 1.0]:
        row: List[object] = [eps]
        for publisher in publishers:
            errs = []
            for seed in seeds:
                result = publisher.publish(truth, budget=eps, rng=seed)
                est = result.histogram.evaluate(queries)
                errs.append(float(np.mean((est - true_answers) ** 2)))
            row.append(float(np.mean(errs)))
        table.add_row(*row)
    return [table]


def ext_streaming(quick: bool = False) -> List[Table]:
    """Uniform vs threshold streaming release across drift regimes."""
    n_bins, n_steps, w, eps = 32, 40, 10, 1.0
    seeds = range(3 if quick else 10)
    table = Table(
        title=f"ext_streaming [n={n_bins}, T={n_steps}, w={w}, eps={eps}]",
        headers=["drift", "strategy", "mean MSE", "eps total",
                 "max window"],
        notes="threshold release should spend far less on static streams "
              "and react at the drift point",
    )
    for drift_at in [None, 20]:
        for strategy_name in ("uniform", "threshold"):
            mses, totals, windows = [], [], []
            for seed in seeds:
                rng = np.random.default_rng(seed)
                base = rng.uniform(100, 400, size=n_bins)
                shifted = base * 1.6
                if strategy_name == "uniform":
                    stream = UniformStream(epsilon=eps, w=w)
                else:
                    stream = ThresholdStream(epsilon=eps, w=w, threshold=40.0)
                errs = []
                for t in range(n_steps):
                    level = shifted if (drift_at is not None
                                        and t >= drift_at) else base
                    frame = Histogram.from_counts(
                        np.round(level * (1 + 0.02 * rng.standard_normal(n_bins)))
                    )
                    release = stream.release(frame, rng=seed * 1000 + t)
                    errs.append(float(np.mean(
                        (release.histogram.counts - frame.counts) ** 2
                    )))
                mses.append(float(np.mean(errs)))
                totals.append(sum(stream.accountant.history()))
                windows.append(stream.accountant.max_window_total())
            table.add_row(
                "static" if drift_at is None else f"t={drift_at}",
                strategy_name,
                float(np.mean(mses)),
                float(np.mean(totals)),
                float(np.mean(windows)),
            )
    return [table]
