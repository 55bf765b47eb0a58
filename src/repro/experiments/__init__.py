"""Experiment harness: specs, runner, seed means, table rendering.

The benches in ``benchmarks/`` and the CLI both drive experiments through
:func:`repro.experiments.registry.run_experiment`, so a figure is
regenerated identically whether you run ``pytest benchmarks/`` or
``python -m repro fig_point_vs_eps``.
"""

from repro.experiments.spec import ExperimentSpec
from repro.experiments.runner import (
    RunRecord,
    records_equal,
    run_once,
    seed_mean,
    strip_timing,
)
from repro.experiments.tables import Table, render_table
from repro.experiments.registry import EXPERIMENTS, list_experiments, run_experiment
from repro.robust.records import FailedRecord, is_failed

__all__ = [
    "ExperimentSpec",
    "RunRecord",
    "FailedRecord",
    "is_failed",
    "records_equal",
    "strip_timing",
    "run_once",
    "seed_mean",
    "Table",
    "render_table",
    "EXPERIMENTS",
    "list_experiments",
    "run_experiment",
]
