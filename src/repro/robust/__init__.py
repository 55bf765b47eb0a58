"""Fault-tolerant experiment execution.

The robustness layer around :func:`repro.experiments.runner.run_once`:

* :mod:`repro.robust.executor` — one supervisor and one process pool for
  every (spec, seed) cell of a sweep, with per-cell timeouts, bounded
  retry-with-backoff, crash recovery and quarantine;
* :mod:`repro.robust.journal` — JSONL checkpoint journal enabling
  bit-identical ``--resume`` of interrupted sweeps;
* :mod:`repro.robust.records` — structured :class:`FailedRecord`s for
  graceful degradation (skip-and-report instead of crash);
* :mod:`repro.robust.faults` — deterministic fault injection
  (raise / kill / hang / NaN) used by the chaos test suite;
* :mod:`repro.robust.atomicio` — atomic whole-file writes and the
  :class:`RecordLog` under the journal and the serving ε ledger.

See ``docs/robustness.md`` for the failure taxonomy, retry semantics,
journal format, and the determinism-under-retry argument.
"""

from repro.robust.atomicio import RecordLog, atomic_write_text
from repro.robust.executor import supervise
from repro.robust.faults import FaultPlan, FaultRule, InjectedFault
from repro.robust.journal import CheckpointJournal, spec_fingerprint
from repro.robust.records import FailedRecord, is_failed

__all__ = [
    "atomic_write_text",
    "RecordLog",
    "supervise",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "CheckpointJournal",
    "spec_fingerprint",
    "FailedRecord",
    "is_failed",
]
