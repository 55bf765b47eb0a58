"""JSONL checkpoint journal for resumable experiment sweeps.

Every completed trial — successful :class:`~repro.experiments.runner.RunRecord`
or structured :class:`~repro.robust.records.FailedRecord` — is appended
to a journal file as one self-contained JSON line, keyed by
``(spec_name, publisher, seed, epsilon)`` plus a SHA-256 *spec
fingerprint*.  ``python -m repro run --resume`` loads the journal,
keeps every entry whose fingerprint matches the spec being run (so a
stale journal from a different configuration can never leak records in),
and re-dispatches only the missing seeds.

Bit-identical resume
--------------------
Serialization round-trips every statistical field exactly:

* Python floats are emitted by :func:`json.dumps` via ``repr``, the
  shortest round-tripping representation — ``float64`` survives exactly,
  including ``NaN``/``inf`` (emitted as JSON5-style literals, which the
  stdlib parser accepts).
* numpy arrays are tagged ``{"__ndarray__": ..., "dtype": ...,
  "shape": ...}`` and rebuilt with their original dtype, so integer and
  float arrays in ``RunRecord.meta`` come back ``np.array_equal``
  (``equal_nan=True``).

The file is a :class:`repro.robust.atomicio.RecordLog` (``O_APPEND`` +
fsync), so a SIGKILL mid-append tears at most the final line, the
loader skips that line, and the next append starts on a fresh line.
Later entries for the same cell win (:meth:`CheckpointJournal.latest`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import JournalError
from repro.robust.atomicio import RecordLog
from repro.robust.records import FailedRecord

__all__ = [
    "JOURNAL_SCHEMA",
    "CheckpointJournal",
    "spec_fingerprint",
    "record_to_payload",
    "record_from_payload",
]

JOURNAL_SCHEMA = 1

#: A journal key: (spec_name, publisher, seed, epsilon).
Key = Tuple[str, str, int, float]

JournalRecord = Union["RunRecord", FailedRecord]  # noqa: F821  (fwd ref)


# ---------------------------------------------------------------------------
# Value (de)serialization: JSON with tagged numpy arrays
# ---------------------------------------------------------------------------

_NDARRAY_TAG = "__ndarray__"
_PARTITION_TAG = "__partition__"
_OPAQUE_TAG = "__opaque__"


def _encode(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-compatible structures.

    Knows the repo's meta value types: numpy scalars/arrays round-trip
    exactly (tagged, dtype-preserving) and :class:`Partition` objects —
    which the structure publishers put in ``meta["partition"]`` — are
    tagged ``(n, boundaries)`` pairs that decode back to equal
    ``Partition`` instances.  Anything else unrecognized degrades to a
    tagged ``repr`` string rather than crashing the journal append: a
    checkpoint that loses one exotic meta field beats a sweep that dies
    mid-run (such fields decode to the tagged dict, never silently to
    the original object).
    """
    from repro.partition.partition import Partition

    if isinstance(value, np.ndarray):
        return {
            _NDARRAY_TAG: value.tolist(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Partition):
        return {
            _PARTITION_TAG: {
                "n": int(value.n),
                "boundaries": [int(b) for b in value.boundaries],
            }
        }
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {_OPAQUE_TAG: repr(value), "type": type(value).__name__}


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode` (tuples come back as lists)."""
    if isinstance(value, dict):
        if _NDARRAY_TAG in value and "dtype" in value:
            return np.asarray(
                value[_NDARRAY_TAG], dtype=np.dtype(value["dtype"])
            ).reshape(tuple(value.get("shape", [-1])))
        if _PARTITION_TAG in value:
            from repro.partition.partition import Partition

            payload = value[_PARTITION_TAG]
            return Partition(
                n=int(payload["n"]),
                boundaries=tuple(
                    int(b) for b in payload.get("boundaries", [])
                ),
            )
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Record (de)serialization
# ---------------------------------------------------------------------------

def record_to_payload(record: JournalRecord) -> Dict[str, Any]:
    """Serialize a run/failed record into a JSON-compatible dict."""
    from repro.experiments.runner import RunRecord

    if isinstance(record, FailedRecord):
        return {"kind": "failed", **_encode(asdict(record))}
    if isinstance(record, RunRecord):
        return {
            "kind": "record",
            "spec_name": record.spec_name,
            "publisher": record.publisher,
            "seed": record.seed,
            "epsilon": record.epsilon,
            "seconds": record.seconds,
            "kl": _encode(record.kl),
            "ks": _encode(record.ks),
            "workload_errors": {
                name: asdict(err)
                for name, err in record.workload_errors.items()
            },
            "meta": _encode(record.meta),
        }
    raise TypeError(f"cannot journal {type(record).__name__}")


def record_from_payload(payload: Dict[str, Any]) -> JournalRecord:
    """Inverse of :func:`record_to_payload`."""
    from repro.experiments.runner import RunRecord
    from repro.metrics.evaluate import WorkloadErrors

    kind = payload.get("kind")
    if kind == "failed":
        return FailedRecord(
            spec_name=payload["spec_name"],
            publisher=payload["publisher"],
            seed=int(payload["seed"]),
            epsilon=float(payload["epsilon"]),
            error=payload["error"],
            cause=payload.get("cause", ""),
            attempts=int(payload.get("attempts", 0)),
            meta=_decode(payload.get("meta", {})),
        )
    if kind == "record":
        return RunRecord(
            spec_name=payload["spec_name"],
            publisher=payload["publisher"],
            seed=int(payload["seed"]),
            epsilon=float(payload["epsilon"]),
            seconds=float(payload["seconds"]),
            kl=float(payload["kl"]),
            ks=float(payload["ks"]),
            workload_errors={
                name: WorkloadErrors(**err)
                for name, err in payload.get("workload_errors", {}).items()
            },
            meta=_decode(payload.get("meta", {})),
        )
    raise JournalError(f"unknown journal record kind: {kind!r}")


# ---------------------------------------------------------------------------
# Spec fingerprinting
# ---------------------------------------------------------------------------

def _factory_identity(factory: Any) -> str:
    """Stable-ish textual identity of a publisher factory."""
    module = getattr(factory, "__module__", "")
    qualname = getattr(
        factory, "__qualname__", type(factory).__qualname__
    )
    return f"{module}:{qualname}"


def spec_fingerprint(spec: Any) -> str:
    """SHA-256 fingerprint of everything that determines a spec's output.

    Covers the spec name, publisher-factory identity, epsilon, seed set,
    workload names/sizes, and the full dataset (domain plus the exact
    count bytes).  Deliberately *excludes* ``n_jobs`` — parallelism does
    not change results (the bit-identical contract), so a sweep may be
    resumed with a different worker count.
    """
    hist = spec.histogram
    domain = hist.domain
    descriptor = {
        "name": spec.name,
        "publisher_factory": _factory_identity(spec.publisher_factory),
        "epsilon": float(spec.epsilon),
        "seeds": [int(s) for s in spec.seeds],
        "workloads": [[w.name, int(w.n), len(w)] for w in spec.workloads],
        "domain": {
            "size": domain.size,
            "lower": domain.lower,
            "upper": domain.upper,
            "labels": list(domain.labels) if domain.labels else None,
            "name": domain.name,
        },
    }
    digest = hashlib.sha256()
    digest.update(json.dumps(descriptor, sort_keys=True).encode("utf-8"))
    digest.update(np.ascontiguousarray(hist.counts).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

class CheckpointJournal:
    """Append-only JSONL journal of completed trials.

    One journal file may hold entries for many specs (a whole sweep);
    the per-spec ``fingerprint`` keeps them separated on load.
    """

    def __init__(self, path: "str | Path") -> None:
        self._log = RecordLog(path, JOURNAL_SCHEMA)
        self.path = self._log.path
        # The entries the last read parsed and the file stamp it saw: a
        # resume asks for them once per spec cell, so the file is parsed
        # again only when its stamp changes.
        self._parsed: List[Dict[str, Any]] = []
        self._parsed_stamp: Optional[Tuple[int, int, int]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointJournal({str(self.path)!r})"

    def append(self, record: JournalRecord, fingerprint: str) -> None:
        """Durably append one completed trial."""
        extend = (self._parsed_stamp is not None
                  and self._parsed_stamp == self._stamp())
        line = self._log.append({
            "fingerprint": fingerprint,
            "key": {
                "spec_name": record.spec_name,
                "publisher": record.publisher,
                "seed": int(record.seed),
                "epsilon": float(record.epsilon),
            },
            "payload": record_to_payload(record),
        })
        if extend:
            # The file is the last read plus this record (a torn line
            # stays torn): keep the parsed entries instead of re-reading.
            self._parsed.append(json.loads(line))
            self._parsed_stamp = self._stamp()

    def _stamp(self) -> Optional[Tuple[int, int, int]]:
        """Inode, size and mtime of the file; ``None`` when it is absent."""
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def entries(self) -> List[Dict[str, Any]]:
        """All whole journal entries, in file order (see
        :meth:`RecordLog.read`).  The file is parsed again only when its
        inode, size or mtime has changed since the last read."""
        stamp = self._stamp()
        if stamp is None:
            return []
        if stamp != self._parsed_stamp:
            self._parsed, _torn = self._log.read()
            self._parsed_stamp = stamp
        return list(self._parsed)

    def latest(self) -> List[Dict[str, Any]]:
        """The last raw entry per (fingerprint, spec, publisher, seed, ε).

        Cells keep the order they first appear in; a later entry (a
        rerun, a healed quarantine) replaces an earlier one.
        """
        out: Dict[Tuple[str, Key], Dict[str, Any]] = {}
        for entry in self.entries():
            out[(entry.get("fingerprint", ""), _cell(entry))] = entry
        return list(out.values())

    def completed(self, fingerprint: str) -> Dict[Key, JournalRecord]:
        """Deserialized records matching ``fingerprint``, keyed by cell.

        Later entries win when a key repeats (e.g. a sweep that was
        resumed more than once).
        """
        out: Dict[Key, JournalRecord] = {}
        for entry in self.entries():
            if entry.get("fingerprint") != fingerprint:
                continue
            out[_cell(entry)] = record_from_payload(entry["payload"])
        return out

    def seeds_done(self, fingerprint: str) -> Dict[int, JournalRecord]:
        """Like :meth:`completed` but keyed by seed alone (one spec)."""
        return {
            key[2]: record
            for key, record in self.completed(fingerprint).items()
        }


def _cell(entry: Dict[str, Any]) -> Key:
    """An entry's (spec_name, publisher, seed, epsilon) cell."""
    key = entry["key"]
    return (key["spec_name"], key["publisher"], int(key["seed"]),
            float(key["epsilon"]))
