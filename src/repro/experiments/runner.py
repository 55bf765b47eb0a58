"""Experiment execution.

``run_once`` executes a single (publisher, dataset, epsilon, seed) cell;
:func:`repro.robust.executor.supervise` runs every (spec, seed) cell of
an experiment or sweep through it — serially or on one process pool,
:func:`run_cells` for a keyed table of specs — and :func:`seed_mean`
(:func:`workload_mses` for one MSE per workload) reads a table entry off
a cell's records.

Timing: ``RunRecord.seconds`` wraps a monotonic stopwatch around the
publish call only (that is what the scalability figure reports), while
``RunRecord.meta['t_eval_seconds']`` separately records the wall-clock
of the workload evaluation, so post-processing cost is observable too.

Reserved timing-exempt meta namespace
-------------------------------------
Every observability output a trial produces rides inside
``RunRecord.meta`` under a *reserved namespace* that the determinism
comparisons ignore: keys starting with ``t_`` (``t_eval_seconds``,
``t_peak_bytes``, ``t_ru_utime``, ...), the ``trace`` key (the
serialized span tree from :mod:`repro.obs.trace`), and the legacy
``eval_seconds`` spelling older journals used.
:func:`is_timing_meta_key` is the single membership test;
:func:`strip_timing` *removes* those keys (rather than zeroing them) so
records from traced and untraced runs — or old and new journals —
still compare equal in every statistical field.

Parallelism and determinism
---------------------------
``supervise(specs, n_jobs=4)`` fans the cells out over a *supervised*
process pool.  Every seed owns an independent child RNG
(``numpy.random.default_rng(seed)`` is constructed inside the worker
from the integer seed alone), so a record depends only on its
``(spec, seed)`` pair — never on which process ran it, in what order,
or on which retry attempt.  Parallel results are therefore
bit-identical to serial ones in every statistical field — even across
worker crashes, timeouts and ``--resume`` — and only the wall-clock
fields differ; :func:`strip_timing` normalizes those for comparisons.
See ``docs/robustness.md`` for the failure taxonomy and recovery
semantics.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro._validation import check_integer
from repro.core.publisher import Publisher
from repro.experiments.spec import ExperimentSpec
from repro.hist.histogram import Histogram
from repro.metrics.divergences import kl_divergence, ks_distance
from repro.metrics.evaluate import WorkloadErrors, evaluate_workload_error
from repro.obs import resources as _resources
from repro.obs import trace as _trace
from repro.obs.trace import Stopwatch
from repro.robust import faults
from repro.robust.executor import supervise
from repro.robust.records import FailedRecord, is_failed
from repro.workloads.workload import Workload

__all__ = [
    "RunRecord",
    "run_once",
    "run_cells",
    "seed_mean",
    "workload_mses",
    "resolve_n_jobs",
    "is_timing_meta_key",
    "strip_timing",
    "records_equal",
]

#: Legacy timing key spelling (pre-namespace journals); still exempt.
_LEGACY_TIMING_META_KEYS = ("eval_seconds",)


def is_timing_meta_key(key: str) -> bool:
    """Whether a ``RunRecord.meta`` key is in the timing-exempt namespace.

    The reserved namespace is ``t_*`` (probe outputs and wall-clocks),
    ``trace`` (the serialized span tree), and the legacy
    ``eval_seconds`` spelling.  Anything under it is excluded from
    :func:`strip_timing`/:func:`records_equal` — i.e. it never
    participates in the parallel-equals-serial bit-identity contract.
    """
    return (
        key.startswith("t_")
        or key == "trace"
        or key in _LEGACY_TIMING_META_KEYS
    )


@dataclass(frozen=True)
class RunRecord:
    """Raw outcome of one publish + evaluation."""

    spec_name: str
    publisher: str
    seed: int
    epsilon: float
    seconds: float
    kl: float
    ks: float
    workload_errors: Dict[str, WorkloadErrors] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def metric(self, workload: str, name: str) -> float:
        """Look up one workload metric, e.g. ``record.metric('unit', 'mse')``."""
        try:
            errors = self.workload_errors[workload]
        except KeyError:
            raise KeyError(
                f"no workload {workload!r} in record; have "
                f"{sorted(self.workload_errors)}"
            ) from None
        return errors.as_dict()[name]


def run_once(
    truth: Histogram,
    publisher: Publisher,
    epsilon: float,
    workloads: "List[Workload] | tuple",
    seed: int,
    spec_name: str = "",
) -> RunRecord:
    """Publish once and evaluate all workloads and divergences.

    ``seconds`` times the publish call only; the evaluation wall-clock
    is reported separately as ``meta['t_eval_seconds']``.  With tracing
    enabled (``REPRO_TRACE`` / ``--trace``) the trial's span tree is
    attached as ``meta['trace']``; with the resource probe enabled the
    ``t_peak_bytes`` / ``t_ru_*`` fields join it.  All of that lives in
    the timing-exempt namespace (:func:`is_timing_meta_key`), so traced
    and untraced runs stay bit-identical in every statistical field.
    """
    with _resources.sample() as probe, _trace.capture(
        "trial", publisher=publisher.name, seed=seed, epsilon=epsilon,
    ) as root:
        with _trace.span("publish"):
            with Stopwatch() as publish_sw:
                result = publisher.publish(truth, budget=epsilon, rng=seed)
        with _trace.span("evaluate", workloads=len(workloads)):
            with Stopwatch() as eval_sw:
                errors = {
                    w.name: evaluate_workload_error(
                        truth, result.histogram, w)
                    for w in workloads
                }
                kl = kl_divergence(truth.counts, result.histogram.counts)
                ks = ks_distance(truth.counts, result.histogram.counts)
    meta = dict(result.meta)
    meta["t_eval_seconds"] = eval_sw.seconds
    if root is not None:
        meta["trace"] = root.to_dict()
    if probe is not None and probe.meta:
        meta.update(probe.meta)
    return RunRecord(
        spec_name=spec_name,
        publisher=publisher.name,
        seed=seed,
        epsilon=epsilon,
        seconds=publish_sw.seconds,
        kl=kl,
        ks=ks,
        workload_errors=errors,
        meta=meta,
    )


def _run_seed(spec: ExperimentSpec, seed: int) -> RunRecord:
    """One seed of a spec; module-level so process pools can pickle it.

    The two :mod:`repro.robust.faults` hooks are no-ops unless the
    ``REPRO_FAULT_PLAN`` environment variable names an active fault
    plan; they exist so the chaos suite can deterministically raise,
    kill, hang, or NaN-corrupt a trial *inside* the worker process.
    """
    publisher = spec.publisher_factory()
    faults.maybe_inject(spec.name, publisher.name, seed)
    record = run_once(
        spec.histogram,
        publisher,
        spec.epsilon,
        list(spec.workloads),
        seed,
        spec_name=spec.name,
    )
    record = faults.maybe_corrupt(record)
    meta = dict(record.meta)
    meta["spec_epsilon"] = spec.epsilon
    return replace(record, meta=meta)


def seed_mean(
    records: Sequence[Union[RunRecord, FailedRecord]],
    value: Callable[[RunRecord], float],
) -> float:
    """Mean of ``value(record)`` over one cell's records, in seed order.

    This is how every experiment table and the sweep table read a cell.
    Quarantined :class:`~repro.robust.records.FailedRecord` entries are
    skipped (a non-strict sweep reports them beside the mean); a cell
    with no successful record has no mean and raises ``ValueError``.
    """
    values = [value(record) for record in records if not is_failed(record)]
    if not values:
        raise ValueError("no successful record to average")
    return float(np.mean(values))


def run_cells(
    cells: Dict[Any, ExperimentSpec], n_jobs: int = 1,
) -> Dict[Any, List[Union[RunRecord, FailedRecord]]]:
    """Run an experiment's cells with one ``supervise`` call (fail-fast,
    one process pool when ``n_jobs > 1``); each key's records come back
    in seed order."""
    return dict(zip(cells, supervise(list(cells.values()), n_jobs)))


def workload_mses(
    records: Sequence[Union[RunRecord, FailedRecord]],
    workloads: Sequence[Workload],
) -> List[float]:
    """The :func:`seed_mean` MSE of each of ``workloads``, in order."""
    return [seed_mean(records, lambda r: r.metric(w.name, "mse"))
            for w in workloads]


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per CPU;
    any other value must be a positive integer.
    """
    if n_jobs is None:
        return 1
    check_integer(n_jobs, "n_jobs")
    if n_jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return int(n_jobs)


def strip_timing(record: RunRecord) -> RunRecord:
    """Drop wall-clock/observability fields, keeping every statistical one.

    Wall-clock and trace output are the only parts of a record that
    legitimately differ between serial and parallel execution (or
    between traced and untraced runs); compare the stripped records with
    :func:`records_equal` to assert bit-identical results (plain ``==``
    trips over numpy arrays in ``meta``).  The exempt keys are *removed*
    rather than zeroed so that records carrying different subsets of the
    reserved namespace — an old journal's ``eval_seconds``, a traced
    run's ``trace`` tree, a probed run's ``t_peak_bytes`` — still
    compare equal.
    """
    meta = {
        key: value for key, value in record.meta.items()
        if not is_timing_meta_key(key)
    }
    return replace(record, seconds=0.0, meta=meta)


def _values_equal(a: Any, b: Any) -> bool:
    """Structural equality: array-aware, dataclass-aware, NaN-aware.

    Scalar floats compare NaN == NaN (a NaN-valued metric in two
    bit-identical records must not make them unequal); numpy arrays use
    ``array_equal(..., equal_nan=True)`` for float dtypes; dataclasses
    (e.g. :class:`~repro.metrics.evaluate.WorkloadErrors`) compare field
    by field under the same rules.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        if np.issubdtype(a.dtype, np.inexact):
            return bool(np.array_equal(a, b, equal_nan=True))
        return bool(np.array_equal(a, b))
    if (
        dataclasses.is_dataclass(a)
        and dataclasses.is_dataclass(b)
        and not isinstance(a, type)
        and not isinstance(b, type)
    ):
        if type(a) is not type(b):
            return False
        return all(
            _values_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, float) and isinstance(b, float):
        # Covers the NaN-valued kl/ks/metric fields: plain == is False
        # for NaN even when both sides are bit-identical.
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _values_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _values_equal(x, y) for x, y in zip(a, b)
        )
    try:
        return bool(a == b)
    except Exception:
        return False


def records_equal(a: RunRecord, b: RunRecord, ignore_timing: bool = True) -> bool:
    """Field-by-field record equality, array- and NaN-aware.

    With ``ignore_timing`` (the default) both records pass through
    :func:`strip_timing` first, so the comparison asserts exactly the
    bit-identical-statistics contract of parallel ``supervise``.
    NaN-valued metrics compare equal to themselves (bit-identical runs
    that both produced NaN are still identical runs).
    """
    if ignore_timing:
        a, b = strip_timing(a), strip_timing(b)
    return (
        a.spec_name == b.spec_name
        and a.publisher == b.publisher
        and a.seed == b.seed
        and _values_equal(float(a.epsilon), float(b.epsilon))
        and _values_equal(float(a.seconds), float(b.seconds))
        and _values_equal(float(a.kl), float(b.kl))
        and _values_equal(float(a.ks), float(b.ks))
        and _values_equal(a.workload_errors, b.workload_errors)
        and _values_equal(a.meta, b.meta)
    )
