"""Resumable publisher sweeps: the engine behind ``python -m repro run``.

A *sweep* is the paper's evaluation matrix in miniature: a roster of
publishers × an epsilon grid × N seeds on one dataset, executed through
the supervised executor — one supervisor and one process pool for every
(spec, seed) cell — with a shared checkpoint journal.  Both the CLI
and the chaos/e2e tests build their specs through
:func:`build_sweep_specs`, which guarantees that a resumed CLI sweep
and an in-process reference run describe *bit-identical* experiment
cells (same spec names, seeds, workloads and dataset bytes — hence the
same journal fingerprints).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import seed_mean
from repro.experiments.spec import ExperimentSpec
from repro.experiments.tables import Table
from repro.robust.journal import CheckpointJournal
from repro.robust.records import FailedRecord, is_failed

__all__ = [
    "SWEEP_DATASETS",
    "sweep_publishers",
    "build_sweep_specs",
    "run_sweep",
    "sweep_table",
]

#: Datasets a sweep can target; values are ``(n_bins, total) -> Histogram``.
SWEEP_DATASETS = ("age", "nettrace", "searchlogs", "socialnetwork")


def sweep_publishers() -> Dict[str, Callable[[], object]]:
    """The comparison roster (same as the figures), by stable name."""
    from repro.experiments.figures import ROSTER

    return dict(ROSTER)


def _dataset(name: str, n_bins: int, total: int):
    from repro.datasets import standard

    if name not in SWEEP_DATASETS:
        raise ValueError(
            f"unknown sweep dataset {name!r}; available: "
            f"{', '.join(SWEEP_DATASETS)}"
        )
    return getattr(standard, name)(n_bins=n_bins, total=total)


def build_sweep_specs(
    dataset: str = "age",
    n_bins: int = 64,
    total: int = 50_000,
    publishers: Optional[Sequence[str]] = None,
    epsilons: Sequence[float] = (0.1, 0.5),
    n_seeds: int = 3,
    n_jobs: int = 1,
) -> List[ExperimentSpec]:
    """Deterministically expand a sweep request into experiment specs.

    Spec names are ``sweep/<dataset>/<publisher>/eps=<eps>``; seeds are
    ``0..n_seeds-1``.  The same arguments always produce specs with the
    same journal fingerprints, which is what makes ``--resume`` safe.
    """
    roster = sweep_publishers()
    names = list(publishers) if publishers else list(roster)
    unknown = [p for p in names if p not in roster]
    if unknown:
        raise ValueError(
            f"unknown publisher(s) {unknown}; available: "
            f"{', '.join(roster)}"
        )
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    hist = _dataset(dataset, n_bins, total)
    from repro.workloads.builders import unit_queries

    unit = unit_queries(hist.size)
    specs: List[ExperimentSpec] = []
    for pub_name in names:
        for eps in epsilons:
            specs.append(
                ExperimentSpec(
                    name=f"sweep/{dataset}/{pub_name}/eps={eps:g}",
                    histogram=hist,
                    publisher_factory=roster[pub_name],
                    epsilon=float(eps),
                    workloads=(unit,),
                    seeds=tuple(range(n_seeds)),
                    n_jobs=n_jobs,
                )
            )
    return specs


def run_sweep(
    specs: Sequence[ExperimentSpec],
    *,
    n_jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.5,
    journal: Optional[Union[CheckpointJournal, str]] = None,
    resume: bool = False,
    retry_failed: bool = False,
    strict: bool = False,
    sleep: Callable[[float], None] = time.sleep,
    observer: Optional[object] = None,
) -> "Dict[str, List[object]]":
    """Run every spec's cells through one supervisor and one process pool
    (:func:`repro.robust.executor.supervise`); records by spec name.

    One journal file is shared by the whole sweep (per-spec fingerprints
    keep entries separated), so a single ``--resume`` continues all of
    it.  ``strict=False`` by default: a sweep is exactly the setting
    where one poison cell must not discard hours of completed work.
    ``retry_failed`` (with ``resume``) gives journaled quarantines fresh
    attempts instead of carrying them forward.

    ``observer`` (an :class:`repro.obs.monitor.ExecutorObserver`) sees
    the whole sweep — the hooks all carry the spec name, so one
    :class:`~repro.obs.monitor.RunStats` or
    :class:`~repro.obs.monitor.ProgressMonitor` follows the whole
    matrix.
    """
    from repro.robust.executor import supervise

    specs = list(specs)
    records = supervise(
        specs,
        n_jobs,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        journal=journal,
        resume=resume,
        retry_failed=retry_failed,
        strict=strict,
        sleep=sleep,
        observer=observer,
    )
    return {spec.name: cells for spec, cells in zip(specs, records)}


def sweep_table(results: "Dict[str, List[object]]") -> Tuple[Table, List[FailedRecord]]:
    """Render sweep results: one row per cell, plus the failure report.

    Failed cells show up both in the per-row ``failed`` column
    (skip-and-report) and in the returned list so callers can print a
    taxonomy summary; an all-failed cell renders ``n/a`` metrics rather
    than crashing the table.
    """
    table = Table(
        title="supervised sweep",
        headers=["cell", "seeds ok", "failed", "mean kl", "unit mse"],
        notes="failed cells are quarantined FailedRecords; see "
              "docs/robustness.md for the failure taxonomy",
    )
    failures: List[FailedRecord] = []
    for name, records in results.items():
        failed = [r for r in records if is_failed(r)]
        failures.extend(failed)
        healthy = [r for r in records if not is_failed(r)]
        if healthy:
            kl = seed_mean(records, lambda r: r.kl)
            mse = seed_mean(records, lambda r: r.metric("unit", "mse"))
            table.add_row(
                name, len(healthy), len(failed), f"{kl:.4g}", f"{mse:.4g}",
            )
        else:
            table.add_row(name, 0, len(failed), "n/a", "n/a")
    return table, failures
