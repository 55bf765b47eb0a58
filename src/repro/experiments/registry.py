"""Experiment registry: stable ids -> table-producing functions.

The ids are the ones DESIGN.md's per-experiment index uses; benches and
the CLI resolve through here so there is exactly one definition of each
experiment.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List

from repro.experiments import ablations, extensions, figures
from repro.experiments.tables import Table

__all__ = ["EXPERIMENTS", "list_experiments", "run_experiment"]

ExperimentFn = Callable[[bool], List[Table]]

EXPERIMENTS: Dict[str, ExperimentFn] = {
    "table1": figures.table1_datasets,
    "fig_point_vs_eps": figures.fig_point_vs_eps,
    "fig_range_vs_len": figures.fig_range_vs_len,
    "fig_kl_vs_eps": figures.fig_kl_vs_eps,
    "fig_k_sensitivity": figures.fig_k_sensitivity,
    "fig_budget_split": figures.fig_budget_split,
    "fig_scalability": figures.fig_scalability,
    "table_crossover": figures.table_crossover,
    "fig_smoothness": figures.fig_smoothness,
    "fig_data_scale": figures.fig_data_scale,
    "abl_nf_kstar": ablations.abl_nf_kstar,
    "abl_sf_sampling": ablations.abl_sf_sampling,
    "abl_consistency": ablations.abl_consistency,
    "abl_postprocess": ablations.abl_postprocess,
    "abl_shape_prior": ablations.abl_shape_prior,
    "abl_error_model": extensions.abl_error_model,
    "ext_spatial": extensions.ext_spatial,
    "ext_streaming": extensions.ext_streaming,
    "ext_successors": extensions.ext_successors,
}


def list_experiments() -> List[str]:
    """All experiment ids, figures first then ablations, stable order."""
    return list(EXPERIMENTS)


def run_experiment(
    name: str, quick: bool = False, n_jobs: int = 1
) -> List[Table]:
    """Run one experiment by id and return its tables.

    ``n_jobs`` forwards to the experiments that run their cells through
    :func:`~repro.robust.executor.supervise` (one process pool per
    experiment when ``n_jobs > 1``); the seven that keep their own trial
    loops (EXPERIMENTS.md lists them) take no ``n_jobs`` and run
    serially.  Raises KeyError (listing valid ids) on an unknown name.
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(list_experiments())}"
        ) from None
    if "n_jobs" in inspect.signature(fn).parameters:
        return fn(quick=quick, n_jobs=n_jobs)
    return fn(quick=quick)
