"""Structured failure records for graceful degradation.

When the supervised executor gives up on a trial (quarantined poison
pill, or a non-strict run that exhausted its retries), the failure is
not an exception that unwinds the whole sweep — it becomes a
:class:`FailedRecord` carrying the cell identity and the error class
from the :mod:`repro.exceptions` taxonomy.  They are journaled,
reloaded on ``--resume``, skipped by
:func:`~repro.experiments.runner.seed_mean` and counted by
:func:`~repro.robust.sweep.sweep_table`: reported, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["FailedRecord", "is_failed"]


@dataclass(frozen=True)
class FailedRecord:
    """Outcome of a trial the executor could not complete.

    ``error`` is the name of a :mod:`repro.exceptions` taxonomy class
    (``TrialTimeoutError``, ``WorkerCrashError``,
    ``TrialQuarantinedError``); ``cause`` preserves the text of the
    underlying failure (e.g. the worker-side traceback summary for a
    quarantined raise, or the timeout that fired).
    """

    spec_name: str
    publisher: str
    seed: int
    epsilon: float
    error: str
    cause: str = ""
    attempts: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Always ``True``; mirrors ``RunRecord``-shaped duck typing."""
        return True

    def describe(self) -> str:
        """One-line human summary for skip-and-report output."""
        text = (
            f"{self.spec_name}/{self.publisher}/seed={self.seed}/"
            f"eps={self.epsilon:g}: {self.error}"
            f" after {self.attempts} attempt(s)"
        )
        if self.cause:
            text += f" — {self.cause}"
        return text


def is_failed(record: Any) -> bool:
    """``True`` iff ``record`` is a :class:`FailedRecord`."""
    return isinstance(record, FailedRecord)
