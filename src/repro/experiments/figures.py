"""The paper's figures and tables, as table-producing functions.

Each function regenerates one experiment of the (reconstructed)
evaluation — see the per-experiment index in DESIGN.md — and returns a
list of :class:`~repro.experiments.tables.Table` carrying the same
rows/series the paper reports.  ``quick=True`` shrinks domains, seed
counts and grids so a bench finishes in seconds; ``quick=False`` runs the
full configuration recorded in EXPERIMENTS.md.

The experiments that publish and evaluate build one
:class:`~repro.experiments.spec.ExperimentSpec` per table cell and run
all of them with one :func:`~repro.robust.executor.supervise` call
(:func:`~repro.experiments.runner.run_cells`) — the executor,
``run_once`` and ``RunRecord`` that ``repro run`` and ``repro
scenarios`` sweep with — so ``n_jobs > 1`` runs an experiment on one
process pool.  Every entry is a :func:`seed_mean` of its cell's
records.  All randomness is seeded: re-running an experiment, serially
or pooled, reproduces its tables bit-for-bit.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.baselines import Boost, DworkIdentity, Privelet
from repro.core import NoiseFirst, StructureFirst
from repro.core.kselect import smoothness_profile
from repro.core.publisher import Publisher
from repro.datasets import registry as dataset_registry
from repro.datasets.generators import step_histogram
from repro.datasets.standard import age, nettrace, searchlogs, socialnetwork
from repro.experiments.runner import (
    RunRecord,
    run_cells,
    run_once,
    seed_mean,
    workload_mses,
)
from repro.experiments.spec import ExperimentSpec
from repro.experiments.tables import Table
from repro.hist.histogram import Histogram
from repro.workloads.builders import fixed_length_ranges, unit_queries

__all__ = [
    "table1_datasets",
    "fig_point_vs_eps",
    "fig_range_vs_len",
    "fig_kl_vs_eps",
    "fig_k_sensitivity",
    "fig_budget_split",
    "fig_scalability",
    "table_crossover",
    "fig_smoothness",
    "fig_data_scale",
]

PublisherFactory = Callable[[], Publisher]

#: The paper's comparison roster: its two algorithms plus the three
#: published baselines it was evaluated against.
ROSTER: Dict[str, PublisherFactory] = {
    "dwork": DworkIdentity,
    "noisefirst": NoiseFirst,
    "structurefirst": StructureFirst,
    "boost": Boost,
    "privelet": Privelet,
}


def _datasets(quick: bool) -> Dict[str, Histogram]:
    """Evaluation datasets, shrunk in quick mode for bench runtimes."""
    if quick:
        return {
            "age": age(n_bins=100, total=100_000),
            "searchlogs": searchlogs(n_bins=256, total=100_000),
        }
    return {name: dataset_registry.get_dataset(name)
            for name in dataset_registry.list_datasets()}


def _eps_grid(quick: bool) -> List[float]:
    if quick:
        return [0.01, 0.1]
    return [0.01, 0.02, 0.05, 0.1, 0.5, 1.0]


def _seeds(quick: bool) -> List[int]:
    return list(range(3 if quick else 10))


# ---------------------------------------------------------------------------
# table1: dataset statistics
# ---------------------------------------------------------------------------

def table1_datasets(quick: bool = False) -> List[Table]:
    """Dataset summary statistics (paper's dataset table)."""
    table = Table(
        title="table1: evaluation datasets",
        headers=["dataset", "bins", "total", "nonzero", "max count",
                 "smoothness"],
        notes="smoothness = total variation of adjacent bins / total count "
              "(lower = smoother)",
    )
    for name, hist in _datasets(quick=False).items():
        table.add_row(
            name,
            hist.size,
            int(hist.total),
            int(np.count_nonzero(hist.counts)),
            int(hist.counts.max()),
            round(smoothness_profile(hist.counts), 4),
        )
    return [table]


# ---------------------------------------------------------------------------
# fig_point_vs_eps / fig_kl_vs_eps: one quantity vs epsilon, per dataset
# ---------------------------------------------------------------------------

def _eps_sweep(
    figure: str, quantity: str, value: Callable[[RunRecord], float],
    quick: bool, n_jobs: int,
) -> List[Table]:
    """One table per dataset: the seed mean of ``value`` for every roster
    publisher (columns) at every epsilon of the grid (rows)."""
    datasets = _datasets(quick)
    cells = {}
    for ds_name, hist in datasets.items():
        unit = unit_queries(hist.size)
        for eps in _eps_grid(quick):
            for pub_name, factory in ROSTER.items():
                cells[ds_name, eps, pub_name] = ExperimentSpec(
                    f"{figure}/{ds_name}/{pub_name}/{eps:g}", hist, factory,
                    eps, (unit,), _seeds(quick),
                )
    records = run_cells(cells, n_jobs)
    tables = []
    for ds_name in datasets:
        table = Table(
            title=f"fig_{figure} [{ds_name}]: {quantity} vs epsilon",
            headers=["epsilon"] + list(ROSTER),
        )
        for eps in _eps_grid(quick):
            table.add_row(eps, *[
                seed_mean(records[ds_name, eps, pub_name], value)
                for pub_name in ROSTER
            ])
        tables.append(table)
    return tables


def fig_point_vs_eps(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """MSE of unit-length (point) queries vs epsilon, per dataset.

    Expected shape: NoiseFirst tracks or beats Dwork everywhere and wins
    clearly once noise dominates (small epsilon); the tree/wavelet/
    structure publishers pay their overhead and lose on points.
    """
    return _eps_sweep("point_vs_eps", "unit-query MSE",
                      lambda r: r.metric("unit", "mse"), quick, n_jobs)


def fig_kl_vs_eps(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """KL(truth || published) vs epsilon per dataset."""
    return _eps_sweep("kl_vs_eps", "KL divergence", lambda r: r.kl, quick,
                      n_jobs)


# ---------------------------------------------------------------------------
# fig_range_vs_len: range-query MSE vs query length (the crossover figure)
# ---------------------------------------------------------------------------

def _range_cells(
    label: str, hist: Histogram, eps: float, lengths: Sequence[int],
    seeds: Sequence[int],
) -> Dict[tuple, ExperimentSpec]:
    """One cell per roster publisher: one publish per seed, evaluated on
    every fixed-length range workload; keyed ``(label, publisher)``."""
    workloads = tuple(fixed_length_ranges(hist.size, length)
                      for length in lengths)
    return {
        (label, name): ExperimentSpec(
            f"range_vs_len/{label}/{name}", hist, factory, eps, workloads,
            seeds,
        )
        for name, factory in ROSTER.items()
    }


def _range_mse(records: Sequence[RunRecord], length: int) -> float:
    """Seed-mean MSE of a range cell's length-``length`` workload."""
    return seed_mean(records, lambda r: r.metric(f"len-{length}", "mse"))


def _sweep_lengths(n: int) -> List[int]:
    lengths = []
    length = 1
    while length <= n // 2:
        lengths.append(length)
        length *= 4
    if lengths[-1] != n // 2:
        lengths.append(n // 2)
    return lengths


def fig_range_vs_len(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """MSE of fixed-length range queries vs length at fixed epsilon.

    Expected shape: Dwork/NoiseFirst grow linearly in the length;
    StructureFirst/Privelet/Boost stay flat-ish, so the curves cross.
    """
    hist = searchlogs(n_bins=512 if quick else 1024, total=100_000)
    eps = 0.01
    lengths = _sweep_lengths(hist.size)
    cells = _range_cells("searchlogs", hist, eps, lengths, _seeds(quick))
    records = run_cells(cells, n_jobs)
    table = Table(
        title=f"fig_range_vs_len [searchlogs, eps={eps}]: range MSE vs length",
        headers=["length"] + list(ROSTER),
        notes="expected crossover: dwork/noisefirst win short ranges, "
              "structurefirst/privelet/boost win long ranges",
    )
    for length in lengths:
        table.add_row(length, *[
            _range_mse(records["searchlogs", name], length)
            for name in ROSTER
        ])
    return [table]


# ---------------------------------------------------------------------------
# fig_k_sensitivity: error vs bucket count k
# ---------------------------------------------------------------------------

def fig_k_sensitivity(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """StructureFirst/NoiseFirst error as a function of the bucket count.

    Sweeps k for both algorithms at fixed epsilon and reports unit and
    long-range MSE; the last row is NoiseFirst's adaptive k* for
    reference.
    """
    hist = searchlogs(n_bins=256, total=100_000)
    eps = 0.05
    n = hist.size
    workloads = (unit_queries(n), fixed_length_ranges(n, n // 4))
    ks = [2, 4, 8, 16, 32, 64, 128]
    seeds = _seeds(quick)
    cells = {
        (name, k): ExperimentSpec(
            f"k_sensitivity/{name}/k={k}", hist, partial(factory, k=k), eps,
            workloads, seeds,
        )
        for k in ks
        for name, factory in (("SF", StructureFirst), ("NF", NoiseFirst))
    }
    cells["NF", "k*"] = ExperimentSpec(
        "k_sensitivity/NF/k*", hist, NoiseFirst, eps, workloads, seeds,
    )
    records = run_cells(cells, n_jobs)
    table = Table(
        title=f"fig_k_sensitivity [searchlogs, eps={eps}]: error vs bucket count",
        headers=["k", "SF unit MSE", "SF range MSE", "NF unit MSE",
                 "NF range MSE"],
    )
    for k in ks:
        table.add_row(k, *workload_mses(records["SF", k], workloads),
                      *workload_mses(records["NF", k], workloads))
    k_star = int(np.median([r.meta["k"] for r in records["NF", "k*"]]))
    table.add_row(f"NF k*={k_star}", float("nan"), float("nan"),
                  *workload_mses(records["NF", "k*"], workloads))
    return [table]


# ---------------------------------------------------------------------------
# fig_budget_split: StructureFirst structure/noise budget split
# ---------------------------------------------------------------------------

def fig_budget_split(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """StructureFirst error vs the fraction of budget spent on structure."""
    hist = searchlogs(n_bins=256, total=100_000)
    eps = 0.1
    n = hist.size
    workloads = (unit_queries(n), fixed_length_ranges(n, n // 4))
    fractions = [0.1, 0.25, 0.5, 0.75, 0.9]
    cells = {
        fraction: ExperimentSpec(
            f"budget_split/{fraction:g}", hist,
            partial(StructureFirst, structure_fraction=fraction), eps,
            workloads, _seeds(quick),
        )
        for fraction in fractions
    }
    records = run_cells(cells, n_jobs)
    table = Table(
        title=f"fig_budget_split [searchlogs, eps={eps}]: SF error vs "
              "structure fraction",
        headers=["structure fraction", "unit MSE", "range MSE"],
    )
    for fraction in fractions:
        table.add_row(fraction, *workload_mses(records[fraction], workloads))
    return [table]


# ---------------------------------------------------------------------------
# fig_scalability: wall-clock runtime vs domain size
# ---------------------------------------------------------------------------

def fig_scalability(quick: bool = False) -> List[Table]:
    """Publish-time (seconds) vs domain size n for every publisher."""
    sizes = [128, 256, 512] if quick else [128, 256, 512, 1024, 2048]
    eps = 0.1
    table = Table(
        title="fig_scalability: publish seconds vs domain size",
        headers=["n"] + list(ROSTER),
        notes="NoiseFirst's adaptive search runs the exact blocked "
              "O(n^2 k) DP (noisy counts are unsorted, so the Monge "
              "divide-and-conquer kernel cannot engage; see "
              "docs/performance.md) and remains the scaling outlier; "
              "AHP's sorted clustering rides the O(n k log n) kernel "
              "and the others are O(n log n) or better",
    )
    for n in sizes:
        hist = searchlogs(n_bins=n, total=100_000)
        row: List[object] = [n]
        for factory in ROSTER.values():
            record = run_once(hist, factory(), eps, [], seed=0)
            row.append(round(record.seconds, 4))
        table.add_row(*row)
    return [table]


# ---------------------------------------------------------------------------
# table_crossover: winner per (dataset, range length) regime
# ---------------------------------------------------------------------------

def table_crossover(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Which publisher wins at each query length, per dataset."""
    eps = 0.01
    seeds = _seeds(quick)
    datasets = _datasets(quick)
    cells: Dict[tuple, ExperimentSpec] = {}
    for ds_name, hist in datasets.items():
        cells.update(_range_cells(ds_name, hist, eps,
                                  _sweep_lengths(hist.size), seeds))
    records = run_cells(cells, n_jobs)
    table = Table(
        title=f"table_crossover [eps={eps}]: winning publisher by range length",
        headers=["dataset", "length", "winner", "winner MSE", "dwork MSE"],
        notes="the paper's qualitative claim: noise-dominated short ranges "
              "go to noisefirst/dwork, long ranges to the structured trio",
    )
    for ds_name, hist in datasets.items():
        for length in _sweep_lengths(hist.size):
            scores = {name: _range_mse(records[ds_name, name], length)
                      for name in ROSTER}
            winner = min(scores, key=scores.get)
            table.add_row(ds_name, length, winner, scores[winner],
                          scores["dwork"])
    return [table]


# ---------------------------------------------------------------------------
# fig_smoothness: error vs ground-truth smoothness
# ---------------------------------------------------------------------------

def fig_data_scale(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Relative error vs dataset cardinality at fixed epsilon.

    Noise is data-independent, so scaling the data total down makes the
    privacy/utility trade harder: the *scaled* (relative) error of every
    publisher grows as the total shrinks, and the structured methods'
    advantage widens (their per-bin noise shrinks with bucket width, not
    with data volume).
    """
    eps = 0.05
    n = 256
    totals = [10_000, 100_000] if quick else [3_000, 10_000, 30_000,
                                              100_000, 300_000, 1_000_000]
    unit = unit_queries(n)
    cells = {}
    for total in totals:
        hist = searchlogs(n_bins=n, total=total)
        for pub_name, factory in ROSTER.items():
            cells[total, pub_name] = ExperimentSpec(
                f"data_scale/{total}/{pub_name}", hist, factory, eps,
                (unit,), _seeds(quick),
            )
    records = run_cells(cells, n_jobs)
    table = Table(
        title=f"fig_data_scale [searchlogs shape, n={n}, eps={eps}]: "
              "scaled unit error vs total count",
        headers=["total"] + list(ROSTER),
        notes="scaled error = MAE / mean true count (unit-free); smaller "
              "totals make the same noise relatively larger",
    )
    for total in totals:
        table.add_row(total, *[
            seed_mean(records[total, pub_name],
                      lambda r: r.metric("unit", "scaled"))
            for pub_name in ROSTER
        ])
    return [table]


def fig_smoothness(quick: bool = False, n_jobs: int = 1) -> List[Table]:
    """Error vs number of true steps in piecewise-constant data.

    Structure-based publishers shine when the data really is bucketed
    (few steps) and degrade toward Dwork as the data loses structure.
    """
    n = 256
    eps = 0.05
    unit = unit_queries(n)
    steps = [2, 8, 32, 128]
    cells = {}
    for n_steps in steps:
        hist = step_histogram(n, n_steps, total=100_000, rng=7)
        for pub_name, factory in ROSTER.items():
            cells[n_steps, pub_name] = ExperimentSpec(
                f"smoothness/{n_steps}/{pub_name}", hist, factory, eps,
                (unit,), _seeds(quick),
            )
    records = run_cells(cells, n_jobs)
    table = Table(
        title=f"fig_smoothness [step data, n={n}, eps={eps}]: unit MSE vs "
              "true step count",
        headers=["steps"] + list(ROSTER),
    )
    for n_steps in steps:
        table.add_row(n_steps, *[
            seed_mean(records[n_steps, pub_name],
                      lambda r: r.metric("unit", "mse"))
            for pub_name in ROSTER
        ])
    return [table]
