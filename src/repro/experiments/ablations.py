"""Ablation experiments probing the design choices DESIGN.md calls out.

These go beyond the paper: each isolates one ingredient of NoiseFirst /
StructureFirst / Boost and quantifies what it buys.  The publishing arms
run their cells like the figures do (one
:func:`~repro.experiments.runner.run_cells` call, read by
:func:`~repro.experiments.runner.seed_mean`); ``abl_postprocess`` and
``abl_shape_prior`` post-process each release themselves, and
``abl_nf_kstar``'s oracle arm makes no publish.
"""

from __future__ import annotations

from functools import partial
from typing import List

import numpy as np

from repro.baselines import Boost, DworkIdentity
from repro.core import NoiseFirst, StructureFirst
from repro.datasets.standard import searchlogs
from repro.experiments.runner import run_cells, seed_mean, workload_mses
from repro.experiments.spec import ExperimentSpec
from repro.experiments.tables import Table
from repro.metrics.divergences import kl_divergence
from repro.metrics.evaluate import evaluate_workload_error
from repro.partition.voptimal import voptimal_table
from repro.postprocess.clamp import clamp_and_rescale
from repro.workloads.builders import fixed_length_ranges, unit_queries

__all__ = [
    "abl_nf_kstar",
    "abl_sf_sampling",
    "abl_consistency",
    "abl_postprocess",
    "abl_shape_prior",
]


def _seeds(quick: bool) -> List[int]:
    return list(range(3 if quick else 10))


def abl_nf_kstar(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """NoiseFirst's adaptive k* vs fixed k vs the (non-private) oracle k.

    The oracle evaluates every candidate k against the *true* counts and
    picks the best — the unreachable lower bound for the estimator.
    """
    hist = searchlogs(n_bins=256, total=100_000)
    n = hist.size
    eps = 0.02
    unit = unit_queries(n)
    seeds = _seeds(quick)
    fixed_ks = [4, 16, 64, 128]
    table = Table(
        title=f"abl_nf_kstar [searchlogs, eps={eps}]: NF bucket-count policies",
        headers=["policy", "unit MSE", "median k"],
        notes="oracle picks argmin true error per seed (not private); "
              "adaptive must estimate it from noisy data alone",
    )
    cells = {
        k: ExperimentSpec(f"nf_kstar/k={k}", hist, partial(NoiseFirst, k=k),
                          eps, (unit,), seeds)
        for k in fixed_ks
    }
    cells["k*"] = ExperimentSpec("nf_kstar/k*", hist, NoiseFirst, eps,
                                 (unit,), seeds)
    records = run_cells(cells, n_jobs)
    unit_mse = {policy: seed_mean(cell, lambda r: r.metric("unit", "mse"))
                for policy, cell in records.items()}
    for k in fixed_ks:
        table.add_row(f"fixed k={k}", unit_mse[k], k)
    table.add_row("adaptive k*", unit_mse["k*"],
                  int(np.median([r.meta["k"] for r in records["k*"]])))

    oracle_vals, oracle_ks = [], []
    max_k = 128
    for seed in seeds:
        # Recreate the same noisy draw NF would see, then pick k by true
        # error — an oracle with NF's exact noise realization.
        noisy = (
            hist.counts
            + np.random.default_rng(seed).laplace(0.0, 1.0 / eps, size=n)
        )
        dp_table = voptimal_table(noisy, max_k)
        best_err, best_k = np.inf, 1
        for k in range(1, max_k + 1):
            approx = dp_table.partition_for(k).apply_means(noisy)
            err = float(np.mean((approx - hist.counts) ** 2))
            if err < best_err:
                best_err, best_k = err, k
        oracle_vals.append(best_err)
        oracle_ks.append(best_k)
    table.add_row("oracle k", float(np.mean(oracle_vals)),
                  int(np.median(oracle_ks)))
    return [table]


def abl_sf_sampling(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """StructureFirst structure policies: EM vs equi-width vs oracle.

    Quantifies how much the exponential-mechanism boundary sampling buys
    over a data-independent structure, and how far it sits from the
    non-private v-optimal structure.
    """
    hist = searchlogs(n_bins=256, total=100_000)
    n = hist.size
    workloads = (unit_queries(n), fixed_length_ranges(n, n // 4))
    cells = {
        (eps, mode): ExperimentSpec(
            f"sf_sampling/{eps:g}/{mode}", hist,
            partial(StructureFirst, structure_mode=mode), eps, workloads,
            _seeds(quick),
        )
        for eps in [0.05, 0.5]
        for mode in ("em", "uniform", "oracle")
    }
    records = run_cells(cells, n_jobs)
    table = Table(
        title="abl_sf_sampling [searchlogs]: SF structure policy vs epsilon",
        headers=["epsilon", "policy", "unit MSE", "range MSE"],
        notes="oracle uses the true v-optimal structure (not private); "
              "uniform spends its whole budget on counts",
    )
    for (eps, mode), cell in records.items():
        table.add_row(eps, mode, *workload_mses(cell, workloads))
    return [table]


def abl_consistency(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Boost with vs without the least-squares consistency step."""
    hist = searchlogs(n_bins=256, total=100_000)
    n = hist.size
    workloads = (unit_queries(n), fixed_length_ranges(n, n // 4))
    cells = {
        (eps, consistency): ExperimentSpec(
            f"consistency/{eps:g}/{consistency}", hist,
            partial(Boost, consistency=consistency), eps, workloads,
            _seeds(quick),
        )
        for eps in [0.05, 0.5]
        for consistency in (True, False)
    }
    records = run_cells(cells, n_jobs)
    table = Table(
        title="abl_consistency [searchlogs]: Boost consistency on/off",
        headers=["epsilon", "consistency", "unit MSE", "range MSE"],
        notes="consistency is an orthogonal projection, so it should never "
              "increase expected error",
    )
    for (eps, consistency), cell in records.items():
        table.add_row(eps, "on" if consistency else "off",
                      *workload_mses(cell, workloads))
    return [table]


def abl_shape_prior(quick: bool = False) -> List[Table]:
    """Isotonic (monotone-decreasing) projection on degree-style data.

    Degree distributions are publicly known to decay, so projecting the
    noisy release onto non-increasing sequences is free post-processing
    with a real prior behind it.  This quantifies the gain per publisher
    on the socialnetwork dataset.
    """
    from repro.datasets.standard import socialnetwork
    from repro.postprocess.smoothing import isotonic_decreasing

    hist = socialnetwork(n_bins=256, total=1_000_000)
    n = hist.size
    unit = unit_queries(n)
    seeds = _seeds(quick)
    table = Table(
        title="abl_shape_prior [socialnetwork]: isotonic projection gain",
        headers=["epsilon", "publisher", "raw unit MSE", "isotonic unit MSE",
                 "gain"],
        notes="the projection exploits the public monotone-decay prior of "
              "degree distributions; gain = raw / isotonic",
    )
    for eps in [0.01, 0.1]:
        for factory in (DworkIdentity, NoiseFirst, StructureFirst):
            raw_vals, iso_vals = [], []
            for seed in seeds:
                result = factory().publish(hist, budget=eps, rng=seed)
                raw = result.histogram
                iso = raw.with_counts(isotonic_decreasing(raw.counts))
                raw_vals.append(
                    evaluate_workload_error(hist, raw, unit).mse
                )
                iso_vals.append(
                    evaluate_workload_error(hist, iso, unit).mse
                )
            raw_mean = float(np.mean(raw_vals))
            iso_mean = float(np.mean(iso_vals))
            table.add_row(eps, factory().name, raw_mean, iso_mean,
                          round(raw_mean / max(iso_mean, 1e-12), 2))
    return [table]


def abl_postprocess(quick: bool = False) -> List[Table]:
    """Effect of non-negativity clamping + rescaling on each publisher."""
    hist = searchlogs(n_bins=256, total=100_000)
    n = hist.size
    eps = 0.02
    unit = unit_queries(n)
    seeds = _seeds(quick)
    table = Table(
        title=f"abl_postprocess [searchlogs, eps={eps}]: clamp+rescale effect",
        headers=["publisher", "raw unit MSE", "clamped unit MSE", "raw KL",
                 "clamped KL"],
        notes="clamping is free post-processing; it helps most where noise "
              "pushes many small counts negative",
    )
    for factory in (DworkIdentity, NoiseFirst, StructureFirst, Boost):
        raw_mse, cl_mse, raw_kl, cl_kl = [], [], [], []
        for seed in seeds:
            result = factory().publish(hist, budget=eps, rng=seed)
            clamped = clamp_and_rescale(result.histogram)
            raw_mse.append(
                evaluate_workload_error(hist, result.histogram, unit).mse
            )
            cl_mse.append(evaluate_workload_error(hist, clamped, unit).mse)
            raw_kl.append(kl_divergence(hist.counts, result.histogram.counts))
            cl_kl.append(kl_divergence(hist.counts, clamped.counts))
        table.add_row(factory().name, float(np.mean(raw_mse)),
                      float(np.mean(cl_mse)), float(np.mean(raw_kl)),
                      float(np.mean(cl_kl)))
    return [table]
