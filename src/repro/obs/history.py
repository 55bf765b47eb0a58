"""Persistent run-history store: the regression radar's memory.

Every sweep, bench refresh, and metrics export the harness produces is
a point-in-time artifact — a journal that piles up, a ``BENCH_*.json``
snapshot, a ``--metrics-out`` dump.  :class:`HistoryStore` turns them
into a *trajectory*: an append-only, schema-versioned SQLite database
(keyed by commit, spec SHA-256 fingerprint, publisher, dataset, ε, k,
n) that the drift engine (:mod:`repro.obs.drift`) and trend dashboard
(:mod:`repro.obs.dashboard`) read longitudinally.

Ingestion sources (``python -m repro history ingest <path> --db …``):

* **checkpoint journals** (:mod:`repro.robust.journal`) — one row per
  journaled trial, annotated with the *oracle-anchored* expected unit
  MSE from :mod:`repro.verify.oracles` whenever the publisher's
  conditional oracle can be rebuilt from the journaled metadata;
* **bench snapshots** (``BENCH_*.json``) — one row per benchmark key
  with raw and calibration-normalized seconds;
* **metrics exports** (``--metrics-out *.json``) — executor counter /
  gauge totals and histogram sums;
* **straggler alerts** fired by the progress monitor during a
  ``run --history`` sweep.

Idempotency
-----------
Every row carries a ``dedup_key`` — a SHA-256 over the commit, the spec
fingerprint, and the *timing-stripped* canonical payload — with a
UNIQUE index; ingestion uses ``INSERT OR IGNORE``, so re-ingesting the
same journal (or the same bench snapshot) changes **no** rows.  A new
commit with bit-identical results is a *new* trajectory point: the
whole point of the radar is noticing when those deterministic outputs
move.

Schema versioning
-----------------
``meta.schema_version`` records the store's schema; :class:`HistoryStore`
migrates forward automatically through :data:`_MIGRATIONS` on open
(v1 → v2 added the ``alerts`` table and ``trials.oracle_kind``;
v2 → v3 added the per-workload ``utility`` table) and refuses databases
written by a *newer* schema.

Utility rows
------------
v3 adds the **utility table**: one row per (trial × workload), derived
from the full per-workload error dict every journal payload already
carries.  Scenario specs (``scenario/<family>/<label>/…``, see
:mod:`repro.scenarios`) are self-describing, so offline ingestion
rebuilds the exact dataset *and* workload battery from the registry and
anchors every row with the publisher's conditional oracle
(``workload_mse``); sweep specs contribute their unit workload under the
pseudo-family ``sweep``.  ``ingest_journal_utility`` re-derives these
rows from a journal without touching the trials table — the engine
behind ``history ingest --rebuild``, which upgrades pre-v3 stores
without re-running any experiments.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sqlite3
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import HistoryError

__all__ = [
    "HISTORY_SCHEMA",
    "HistoryStore",
    "IngestResult",
    "TrialRow",
    "UtilityRow",
    "default_commit",
    "parse_sweep_spec_name",
    "sniff_source",
    "trial_content_sha",
    "trial_row_from_record",
    "utility_rows_from_record",
]

#: Current schema version (see the module docstring for the changelog).
HISTORY_SCHEMA = 3

#: ``sweep/<dataset>/<publisher>/eps=<eps>`` — the naming convention
#: :func:`repro.robust.sweep.build_sweep_specs` guarantees.
_SWEEP_NAME_RE = re.compile(
    r"^sweep/(?P<dataset>[^/]+)/(?P<publisher>[^/]+)/eps=(?P<eps>[^/]+)$"
)


# ---------------------------------------------------------------------------
# Commit stamping
# ---------------------------------------------------------------------------

def default_commit(root: Union[str, Path, None] = None) -> str:
    """The commit stamp for new history rows.

    ``REPRO_COMMIT`` wins (CI and tests pin it for determinism), then
    ``git rev-parse HEAD`` of ``root`` (default: the current
    directory), then the literal ``"unknown"``.
    """
    env = os.environ.get("REPRO_COMMIT")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def parse_sweep_spec_name(spec_name: str) -> Optional[Dict[str, str]]:
    """Split a ``sweep/<dataset>/<publisher>/eps=<eps>`` spec name.

    Returns ``None`` for spec names that do not follow the sweep
    convention (figure specs, ad-hoc tests); history rows then keep a
    ``NULL`` dataset.
    """
    match = _SWEEP_NAME_RE.match(spec_name)
    if match is None:
        return None
    return match.groupdict()


# ---------------------------------------------------------------------------
# Oracle anchoring
# ---------------------------------------------------------------------------

def _radar_oracle(publisher: str, histogram: Any, epsilon: float,
                  record: Any, oracles: Any) -> Any:
    """The oracle the *radar* anchors to for one realized trial.

    Mostly :func:`repro.verify.oracles.oracle_from_result` — exact (or
    an honest bound) conditional on the structure journaled in
    ``record.meta``.  The one exception is a NoiseFirst publish that
    actually merged: its partition was chosen from the *same* noisy
    draw it then averages, so the partition-conditional formula is
    selection-biased low (on merge-friendly data like step histograms
    the empirical MSE sits ~3x above it) and would confirm drift on
    honest runs.  What is unconditionally valid is the paper's
    Section 4 claim — adaptive NoiseFirst never does worse than the
    unmerged identity release — so those rows anchor to the identity
    oracle as an ``upper_bound`` (flags from above only; the
    calibration suite power-tests the bound), at the sensitivity of the
    publish's recorded ``neighbours`` convention.

    ``oracles`` (a :class:`repro.verify.oracles.OracleCache`) builds
    the data-independent anchors, that identity bound included, once.
    """
    meta = getattr(record, "meta", {}) or {}
    partition = meta.get("partition")
    if str(publisher) != "noisefirst" or partition is None:
        return oracles.from_result(publisher, histogram, epsilon, record)
    if partition.n != histogram.size:
        # As the partition-conditional oracle would: a journal ingested
        # with the wrong dataset size gets no anchor, not a wrong one.
        raise ValueError("partition and counts sizes differ")

    from repro.mechanisms.sensitivity import contract_sensitivity
    from repro.verify.oracles import dwork_oracle

    sensitivity = contract_sensitivity(meta)

    def identity_bound() -> Any:
        import dataclasses

        return dataclasses.replace(
            dwork_oracle(histogram.size, epsilon, sensitivity),
            publisher="noisefirst",
            kind="upper_bound",
            notes="Section-4 bound: merged NoiseFirst never worse than "
                  "the unmerged identity (partition-conditional oracle "
                  "is selection-biased low)",
        )

    return oracles.get(
        ("noisefirst", histogram.size, epsilon, sensitivity, "upper_bound"),
        identity_bound,
    )


def _parse_scenario(spec_name: str) -> Optional[Any]:
    """Registry lookup for ``scenario/<family>/<label>/…`` spec names.

    Returns the :class:`repro.scenarios.Scenario` or ``None`` (wrong
    convention, unknown scenario, or the registry failed to import).
    """
    if not spec_name.startswith("scenario/"):
        return None
    try:
        from repro.scenarios import parse_scenario_spec_name

        parsed = parse_scenario_spec_name(spec_name)
    except Exception:
        return None
    return parsed[0] if parsed else None


def _reconstruct_histogram(
    spec_name: str, n_bins: int, total: int
) -> Optional[Any]:
    """Rebuild a sweep or scenario dataset from its spec name.

    ``build_sweep_specs`` derives datasets deterministically from
    ``(dataset, n_bins, total)``, so the reconstruction is exact when
    the ingest flags match the sweep flags (they share defaults).
    Scenario specs are self-describing: the registry pins their own
    ``n_bins``/``total``, so the ingest flags are ignored for them.
    """
    scenario = _parse_scenario(spec_name)
    if scenario is not None:
        try:
            return scenario.build_histogram()
        except Exception:
            return None
    parsed = parse_sweep_spec_name(spec_name)
    if parsed is None:
        return None
    try:
        from repro.datasets import standard

        builder = getattr(standard, parsed["dataset"], None)
        if builder is None:
            return None
        return builder(n_bins=n_bins, total=total)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Row shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRow:
    """One trial observation, ready for :meth:`HistoryStore.add_trials`."""

    commit: str
    fingerprint: str
    spec_name: str
    publisher: str
    epsilon: float
    seed: int
    ok: bool
    dataset: Optional[str] = None
    k: Optional[int] = None
    n: Optional[int] = None
    seconds: Optional[float] = None
    kl: Optional[float] = None
    ks: Optional[float] = None
    unit_mse: Optional[float] = None
    unit_mae: Optional[float] = None
    oracle_mse: Optional[float] = None
    oracle_kind: Optional[str] = None
    content_sha: str = ""

    @property
    def dedup_key(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.commit.encode())
        digest.update(b"|")
        digest.update(self.fingerprint.encode())
        digest.update(b"|")
        digest.update(self.content_sha.encode())
        return digest.hexdigest()


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingestion call."""

    kind: str
    new_rows: int
    duplicate_rows: int
    batch_id: Optional[int]

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.new_rows} new row(s), "
            f"{self.duplicate_rows} duplicate(s) skipped"
        )


def _content_sha(payload: Dict[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stripped_payload(record: Any) -> Dict[str, Any]:
    """Canonical timing-stripped payload of a run/failed record.

    Timing-exempt meta (wall-clock, traces, resource probes) is removed
    before hashing, so a re-run that produced *bit-identical statistics*
    at the same commit deduplicates even though its wall-clock differs.
    """
    from repro.experiments.runner import RunRecord, strip_timing
    from repro.robust.journal import record_to_payload

    if isinstance(record, RunRecord):
        return record_to_payload(strip_timing(record))
    payload = record_to_payload(record)
    payload.pop("meta", None)
    return payload


def trial_content_sha(record: Any) -> str:
    """SHA-256 of a record's timing-stripped canonical payload.

    The identity used for deduplication and for the run report's
    "exclude this journal's own rows" logic.
    """
    return _content_sha(_stripped_payload(record))


def trial_row_from_record(
    record: Any,
    fingerprint: str,
    commit: str,
    histogram: Any = None,
    n_bins: Optional[int] = None,
    total: Optional[int] = None,
) -> TrialRow:
    """Build a :class:`TrialRow` from a run/failed record.

    ``histogram`` supplies the exact dataset for oracle anchoring (the
    ``run --history`` path has it in memory); offline journal ingestion
    reconstructs it from the sweep naming convention and the
    ``n_bins``/``total`` flags instead.
    """
    from repro.robust.records import is_failed

    cache = _IngestCache()
    anchor = histogram
    if (anchor is None and n_bins is not None and total is not None
            and not is_failed(record)):
        anchor = _reconstruct_histogram(record.spec_name, n_bins, total)
    return cache.trial_row(
        record, fingerprint, commit, trial_content_sha(record),
        histogram, cache.oracle(record, anchor), n_bins,
    )


@dataclass(frozen=True)
class UtilityRow:
    """One (trial × workload) utility observation (schema v3)."""

    commit: str
    fingerprint: str
    spec_name: str
    family: str
    scenario: str
    publisher: str
    epsilon: float
    seed: int
    workload: str
    n: Optional[int] = None
    total: Optional[int] = None
    n_queries: Optional[int] = None
    eff_queries: Optional[int] = None
    mse: Optional[float] = None
    mae: Optional[float] = None
    scaled: Optional[float] = None
    max_abs: Optional[float] = None
    oracle_mse: Optional[float] = None
    oracle_kind: Optional[str] = None
    content_sha: str = ""

    @property
    def dedup_key(self) -> str:
        digest = hashlib.sha256()
        for part in (self.commit, self.fingerprint, self.content_sha,
                     self.workload):
            digest.update(part.encode())
            digest.update(b"|")
        return digest.hexdigest()


def _effective_queries(
    workload: Optional[Any], workload_name: str,
    n_queries: int, n: Optional[int],
) -> int:
    """Independent-information count backing the drift band for a row.

    A workload of ``q`` queries of mean length ``L`` touching ``c``
    distinct bins carries at most ``c / L`` independent per-bin
    observations — long ranges average noise away, and clustered or
    duplicated queries re-read the same bins, so both deflate the
    information behind a per-seed mean.  The band uses ``seeds × eff``
    as its sample count; clamping keeps concentrated workloads from
    claiming unearned precision.
    """
    if n is None or n < 1:
        return max(1, n_queries)
    if workload is not None:
        lengths = [q.length for q in workload.queries]
        mean_len = sum(lengths) / len(lengths) if lengths else 1.0
        covered: set = set()
        for q in workload.queries:
            covered.update(range(q.lo, q.hi + 1))
        span = min(n, len(covered)) or n
        return min(n_queries, max(1, int(round(span / max(mean_len, 1.0)))))
    if workload_name == "unit":
        return min(n_queries, n)
    return max(1, min(n_queries, n))


def utility_rows_from_record(
    record: Any,
    fingerprint: str,
    commit: str,
    histogram: Any = None,
    workloads: "Optional[Dict[str, Any]]" = None,
    total: Optional[int] = None,
) -> "List[UtilityRow]":
    """Per-workload utility rows for one run record.

    One row per entry in ``record.workload_errors``, each anchored with
    the publisher's conditional oracle prediction for *that* workload
    when an oracle can be built (``workloads`` maps workload names to
    reconstructed Workload objects; ``unit`` needs no object).  Failed
    records and spec names outside the sweep/scenario conventions yield
    no rows — utility trending only makes sense for reconstructible
    cells.
    """
    cache = _IngestCache()
    return cache.utility_rows(
        record, fingerprint, commit, trial_content_sha(record),
        histogram, workloads, cache.oracle(record, histogram), total,
    )


# ---------------------------------------------------------------------------
# The ingest cache
# ---------------------------------------------------------------------------

#: A journal's latest records: ``(fingerprint, record, content SHA)``.
_JournalRows = List[Tuple[str, Any, str]]


class _IngestCache:
    """What ingest builds once, each part filled on first use.

    :class:`HistoryStore` keeps one for its lifetime, shared by the
    trial and utility passes and by :meth:`HistoryStore.record_rows`:

    * an :class:`repro.verify.oracles.OracleCache` — each
      data-independent radar oracle (dwork, Boost, Privelet, a
      NoiseFirst fallback and merged NoiseFirst's identity bound) once
      per (publisher, n, ε, the meta fields read), the tree and Haar
      matrices once per shape (DAWA-lite's bucket tree once per ``k``
      and branching), and a cached oracle's workload MSE once per
      workload;
    * each reconstructed dataset, once per scenario or per sweep
      (dataset, n_bins, total), and each scenario's workload battery,
      once per scenario rather than once per spec (equal workloads of
      different scenarios become one object);
    * the last journal read: its latest record per cell with that
      record's content SHA, parsed again only when the file's device,
      inode, size or mtime changes.
    """

    def __init__(self) -> None:
        self._oracles: Any = None
        self._datasets: Dict[Tuple[Any, ...], Any] = {}
        self._batteries: Dict[str, Optional[Dict[str, Any]]] = {}
        #: One object per distinct workload, so scenarios with equal
        #: batteries share their cached workload MSEs.
        self._workloads: Dict[Any, Any] = {}
        self._journal: Optional[Tuple[Tuple[int, ...], _JournalRows]] = None

    @property
    def oracles(self) -> Any:
        if self._oracles is None:
            from repro.verify.oracles import OracleCache

            self._oracles = OracleCache()
        return self._oracles

    # -- inputs --------------------------------------------------------
    def journal(self, path: Union[str, Path]) -> _JournalRows:
        """Latest ``(fingerprint, record, content SHA)`` per journal cell
        (later entries win, :meth:`CheckpointJournal.latest`)."""
        from repro.robust.journal import CheckpointJournal, \
            record_from_payload

        try:
            stat = os.stat(path)
        except FileNotFoundError:
            return []
        stamp = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if self._journal is None or self._journal[0] != stamp:
            rows = []
            for entry in CheckpointJournal(path).latest():
                record = record_from_payload(entry["payload"])
                rows.append((entry.get("fingerprint", ""), record,
                             trial_content_sha(record)))
            self._journal = (stamp, rows)
        return self._journal[1]

    def dataset(self, spec_name: str, n_bins: int, total: int) -> Any:
        """:func:`_reconstruct_histogram`, once per scenario or sweep
        dataset."""
        scenario = _parse_scenario(spec_name)
        if scenario is not None:
            key: Tuple[Any, ...] = ("scenario", scenario.name)
        else:
            parsed = parse_sweep_spec_name(spec_name)
            if parsed is None:
                return None
            key = ("sweep", parsed["dataset"], n_bins, total)
        if key not in self._datasets:
            self._datasets[key] = _reconstruct_histogram(
                spec_name, n_bins, total
            )
        return self._datasets[key]

    def utility_context(
        self, spec_name: str, n_bins: int, total: int
    ) -> Tuple[Optional[Any], Optional[Dict[str, Any]]]:
        """``(histogram, workloads-by-name)`` for utility derivation.

        Scenario specs rebuild both from the registry; sweep specs
        rebuild the dataset only (their single workload is ``unit``,
        which the oracle handles without a Workload object).
        """
        scenario = _parse_scenario(spec_name)
        histogram = self.dataset(spec_name, n_bins, total)
        if scenario is None:
            return histogram, None
        if scenario.name not in self._batteries:
            try:
                self._batteries[scenario.name] = {
                    w.name: self._workloads.setdefault(w, w)
                    for w in scenario.build_workloads()
                }
            except Exception:
                self._batteries[scenario.name] = None
        workloads = self._batteries[scenario.name]
        if histogram is None or workloads is None:
            return None, None
        return histogram, workloads

    def oracle(self, record: Any, histogram: Any) -> Any:
        """The radar oracle of a successful record, or ``None`` (a
        failed record, no dataset, or no oracle to build)."""
        from repro.robust.records import is_failed

        if histogram is None or is_failed(record):
            return None
        meta = getattr(record, "meta", {}) or {}
        epsilon = float(meta.get("spec_epsilon", record.epsilon))
        try:
            return _radar_oracle(record.publisher, histogram, epsilon,
                                 record, self.oracles)
        except Exception:
            return None

    # -- rows ----------------------------------------------------------
    def trial_row(self, record: Any, fingerprint: str, commit: str,
                  content_sha: str, histogram: Any, oracle: Any,
                  n_bins: Optional[int] = None) -> TrialRow:
        """A :class:`TrialRow` anchored to ``oracle``; ``n`` comes from
        ``histogram``, the journaled partition or ``n_bins``."""
        from repro.robust.records import is_failed

        failed = is_failed(record)
        meta = getattr(record, "meta", {}) or {}
        parsed = parse_sweep_spec_name(record.spec_name)
        partition = meta.get("partition")
        k = None
        if partition is not None and hasattr(partition, "boundaries"):
            k = len(partition.boundaries) + 1
        n = None
        if histogram is not None:
            n = int(histogram.size)
        elif partition is not None and hasattr(partition, "n"):
            n = int(partition.n)
        elif n_bins is not None:
            n = int(n_bins)

        unit_mse = unit_mae = kl = ks = seconds = None
        if not failed:
            seconds = float(record.seconds)
            kl = float(record.kl)
            ks = float(record.ks)
            errors = record.workload_errors.get("unit")
            if errors is not None:
                unit_mse = float(errors.mse)
                unit_mae = float(errors.mae)
        oracle_mse = oracle_kind = None
        if oracle is not None:
            try:
                oracle_mse, oracle_kind = float(oracle.unit_mse()), oracle.kind
            except Exception:
                pass

        return TrialRow(
            commit=commit,
            fingerprint=fingerprint,
            spec_name=record.spec_name,
            publisher=record.publisher,
            epsilon=float(record.epsilon),
            seed=int(record.seed),
            ok=not failed,
            dataset=parsed["dataset"] if parsed else None,
            k=k,
            n=n,
            seconds=seconds,
            kl=kl,
            ks=ks,
            unit_mse=unit_mse,
            unit_mae=unit_mae,
            oracle_mse=oracle_mse,
            oracle_kind=oracle_kind,
            content_sha=content_sha,
        )

    def utility_rows(self, record: Any, fingerprint: str, commit: str,
                     content_sha: str, histogram: Any,
                     workloads: Optional[Dict[str, Any]], oracle: Any,
                     total: Optional[int] = None) -> List[UtilityRow]:
        """Per-workload :class:`UtilityRow` s anchored to ``oracle`` (see
        :func:`utility_rows_from_record`)."""
        from repro.robust.records import is_failed

        if is_failed(record):
            return []
        spec_name = record.spec_name
        scenario = _parse_scenario(spec_name)
        if scenario is not None:
            family, label = scenario.family, scenario.label
            total = scenario.total if total is None else total
        else:
            parsed = parse_sweep_spec_name(spec_name)
            if parsed is None:
                return []
            family, label = "sweep", parsed["dataset"]

        n = int(histogram.size) if histogram is not None else None
        rows: List[UtilityRow] = []
        for wname in sorted(record.workload_errors):
            werr = record.workload_errors[wname]
            wobj = workloads.get(wname) if workloads else None
            oracle_mse = oracle_kind = None
            if oracle is not None:
                try:
                    if wobj is not None:
                        oracle_mse = float(
                            self.oracles.workload_mse(oracle, wobj))
                        oracle_kind = oracle.kind
                    elif wname == "unit":
                        oracle_mse = float(oracle.unit_mse())
                        oracle_kind = oracle.kind
                except Exception:
                    oracle_mse = oracle_kind = None
            n_queries = int(werr.n_queries)
            rows.append(UtilityRow(
                commit=commit,
                fingerprint=fingerprint,
                spec_name=spec_name,
                family=family,
                scenario=label,
                publisher=record.publisher,
                epsilon=float(record.epsilon),
                seed=int(record.seed),
                workload=wname,
                n=n,
                total=total,
                n_queries=n_queries,
                eff_queries=_effective_queries(wobj, wname, n_queries, n),
                mse=float(werr.mse),
                mae=float(werr.mae),
                scaled=float(werr.scaled),
                max_abs=float(werr.max_abs),
                oracle_mse=oracle_mse,
                oracle_kind=oracle_kind,
                content_sha=content_sha,
            ))
        return rows


# ---------------------------------------------------------------------------
# Source sniffing
# ---------------------------------------------------------------------------

def sniff_source(path: Union[str, Path]) -> str:
    """Classify an ingest source: ``journal`` | ``bench`` | ``metrics``.

    Journals are JSONL files whose entries carry ``fingerprint`` +
    ``payload``; bench snapshots are JSON objects with ``entries`` and
    ``calibration_seconds``; metrics exports are JSON objects whose
    values carry ``kind`` + ``samples``.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    first = text.lstrip()[:1]
    if first == "{":
        try:
            doc = json.loads(text.splitlines()[0])
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict) and "fingerprint" in doc \
                and "payload" in doc:
            return "journal"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            if "entries" in doc and "calibration_seconds" in doc:
                return "bench"
            samples = [
                v for v in doc.values()
                if isinstance(v, dict) and "samples" in v and "kind" in v
            ]
            if samples:
                return "metrics"
    raise HistoryError(
        f"cannot classify {path} as a journal, bench snapshot, or "
        f"metrics export"
    )


# ---------------------------------------------------------------------------
# Schema migrations
# ---------------------------------------------------------------------------

def _migrate_0_to_1(conn: sqlite3.Connection) -> None:
    """v0 (empty database) -> v1: the core tables."""
    conn.executescript(
        """
        CREATE TABLE IF NOT EXISTS meta (
            key TEXT PRIMARY KEY,
            value TEXT NOT NULL
        );
        CREATE TABLE IF NOT EXISTS batches (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            kind TEXT NOT NULL,
            source TEXT NOT NULL,
            commit_sha TEXT NOT NULL,
            ingested_at REAL NOT NULL
        );
        CREATE TABLE IF NOT EXISTS trials (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            batch_id INTEGER NOT NULL REFERENCES batches(id),
            commit_sha TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            spec_name TEXT NOT NULL,
            publisher TEXT NOT NULL,
            dataset TEXT,
            epsilon REAL NOT NULL,
            k INTEGER,
            n INTEGER,
            seed INTEGER NOT NULL,
            ok INTEGER NOT NULL,
            seconds REAL,
            kl REAL,
            ks REAL,
            unit_mse REAL,
            unit_mae REAL,
            oracle_mse REAL,
            content_sha TEXT NOT NULL,
            dedup_key TEXT NOT NULL UNIQUE
        );
        CREATE INDEX IF NOT EXISTS trials_cell
            ON trials (spec_name, publisher, epsilon, batch_id);
        CREATE TABLE IF NOT EXISTS bench_entries (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            batch_id INTEGER NOT NULL REFERENCES batches(id),
            commit_sha TEXT NOT NULL,
            bench_file TEXT NOT NULL,
            profile TEXT NOT NULL,
            key TEXT NOT NULL,
            seconds REAL NOT NULL,
            normalized REAL NOT NULL,
            calibration REAL NOT NULL,
            dedup_key TEXT NOT NULL UNIQUE
        );
        CREATE INDEX IF NOT EXISTS bench_key
            ON bench_entries (key, batch_id);
        CREATE TABLE IF NOT EXISTS metric_totals (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            batch_id INTEGER NOT NULL REFERENCES batches(id),
            commit_sha TEXT NOT NULL,
            name TEXT NOT NULL,
            labels TEXT NOT NULL,
            value REAL NOT NULL,
            dedup_key TEXT NOT NULL UNIQUE
        );
        """
    )


def _migrate_1_to_2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: straggler alerts + the oracle-kind annotation."""
    cols = [row[1] for row in conn.execute("PRAGMA table_info(trials)")]
    if "oracle_kind" not in cols:
        conn.execute("ALTER TABLE trials ADD COLUMN oracle_kind TEXT")
    conn.executescript(
        """
        CREATE TABLE IF NOT EXISTS alerts (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            batch_id INTEGER NOT NULL REFERENCES batches(id),
            commit_sha TEXT NOT NULL,
            kind TEXT NOT NULL,
            spec_name TEXT NOT NULL,
            seed INTEGER NOT NULL,
            age_seconds REAL NOT NULL,
            threshold REAL NOT NULL,
            dedup_key TEXT NOT NULL UNIQUE
        );
        """
    )


def _migrate_2_to_3(conn: sqlite3.Connection) -> None:
    """v2 -> v3: the per-workload utility table (see module docstring)."""
    conn.executescript(
        """
        CREATE TABLE IF NOT EXISTS utility (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            batch_id INTEGER NOT NULL REFERENCES batches(id),
            commit_sha TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            spec_name TEXT NOT NULL,
            family TEXT NOT NULL,
            scenario TEXT NOT NULL,
            publisher TEXT NOT NULL,
            epsilon REAL NOT NULL,
            seed INTEGER NOT NULL,
            workload TEXT NOT NULL,
            n INTEGER,
            total INTEGER,
            n_queries INTEGER,
            eff_queries INTEGER,
            mse REAL,
            mae REAL,
            scaled REAL,
            max_abs REAL,
            oracle_mse REAL,
            oracle_kind TEXT,
            content_sha TEXT NOT NULL,
            dedup_key TEXT NOT NULL UNIQUE
        );
        CREATE INDEX IF NOT EXISTS utility_cell
            ON utility (family, scenario, publisher, epsilon, workload,
                        batch_id);
        """
    )


#: Ordered ``(from_version, migration)`` steps; applied transactionally
#: on open until the store reaches :data:`HISTORY_SCHEMA`.
_MIGRATIONS: Tuple[Tuple[int, Any], ...] = (
    (0, _migrate_0_to_1),
    (1, _migrate_1_to_2),
    (2, _migrate_2_to_3),
)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class HistoryStore:
    """Append-only SQLite run-history store (see the module docstring).

    Journal ingestion and :meth:`record_rows` share one
    :class:`_IngestCache` per store, so each data-independent oracle,
    dataset, workload battery and journal parse is built once.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._migrate()
        self._cache = _IngestCache()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HistoryStore({str(self.path)!r})"

    # -- schema --------------------------------------------------------
    @property
    def schema_version(self) -> int:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:
            return 0
        return int(row["value"]) if row is not None else 0

    def _migrate(self) -> None:
        version = self.schema_version
        if version > HISTORY_SCHEMA:
            raise HistoryError(
                f"history store {self.path} has schema v{version}; this "
                f"build understands up to v{HISTORY_SCHEMA} — refusing "
                f"to touch a newer database"
            )
        with self._conn:
            for from_version, step in _MIGRATIONS:
                if version == from_version:
                    step(self._conn)
                    version = from_version + 1
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(HISTORY_SCHEMA),),
            )

    # -- low-level append ----------------------------------------------
    def _new_batch(self, kind: str, source: str, commit: str) -> int:
        cur = self._conn.execute(
            "INSERT INTO batches (kind, source, commit_sha, ingested_at) "
            "VALUES (?, ?, ?, ?)",
            (kind, source, commit, time.time()),
        )
        return int(cur.lastrowid)

    def _insert_unique(
        self,
        table: str,
        columns: Sequence[str],
        rows: Sequence[Sequence[Any]],
        kind: str,
        source: str,
        commit: str,
    ) -> IngestResult:
        """Batch-insert rows whose last column is ``dedup_key``.

        A batch row is only created when at least one row is genuinely
        new, so a full-duplicate ingest leaves the database byte-stable
        (the idempotency contract).
        """
        fresh: List[Sequence[Any]] = []
        duplicates = 0
        for row in rows:
            dedup = row[-1]
            hit = self._conn.execute(
                f"SELECT 1 FROM {table} WHERE dedup_key = ?", (dedup,)
            ).fetchone()
            if hit is None:
                fresh.append(row)
            else:
                duplicates += 1
        if not fresh:
            return IngestResult(kind, 0, duplicates, None)
        with self._conn:
            batch_id = self._new_batch(kind, source, commit)
            placeholders = ", ".join("?" for _ in range(len(columns) + 1))
            cols = ", ".join(["batch_id", *columns])
            inserted = 0
            for row in fresh:
                cur = self._conn.execute(
                    f"INSERT OR IGNORE INTO {table} ({cols}) "
                    f"VALUES ({placeholders})",
                    (batch_id, *row),
                )
                inserted += cur.rowcount
        return IngestResult(
            kind, inserted, duplicates + len(fresh) - inserted, batch_id
        )

    # -- trial ingestion -----------------------------------------------
    _TRIAL_COLUMNS = (
        "commit_sha", "fingerprint", "spec_name", "publisher", "dataset",
        "epsilon", "k", "n", "seed", "ok", "seconds", "kl", "ks",
        "unit_mse", "unit_mae", "oracle_mse", "oracle_kind",
        "content_sha", "dedup_key",
    )

    def add_trials(
        self, rows: Iterable[TrialRow], source: str = "records"
    ) -> IngestResult:
        """Append trial observations (deduplicated; see module docs)."""
        rows = list(rows)
        commit = rows[0].commit if rows else "unknown"
        packed = [
            (
                r.commit, r.fingerprint, r.spec_name, r.publisher,
                r.dataset, r.epsilon, r.k, r.n, r.seed, int(r.ok),
                r.seconds, r.kl, r.ks, r.unit_mse, r.unit_mae,
                r.oracle_mse, r.oracle_kind, r.content_sha, r.dedup_key,
            )
            for r in rows
        ]
        return self._insert_unique(
            "trials", self._TRIAL_COLUMNS, packed, "journal", source,
            commit,
        )

    def ingest_journal(
        self,
        path: Union[str, Path],
        commit: Optional[str] = None,
        n_bins: int = 64,
        total: int = 50_000,
    ) -> IngestResult:
        """Ingest a checkpoint journal (later entries win per cell).

        ``n_bins``/``total`` drive offline dataset reconstruction for
        oracle anchoring; they default to the ``run`` CLI defaults and
        must match the flags of the sweep that wrote the journal for
        the oracle column to be exact (mismatches degrade to ``NULL``,
        never to a wrong anchor).  Trial rows only — see
        :meth:`ingest_journal_utility` for the per-workload table.
        The journal parse, datasets and data-independent oracles are
        the store's, shared with that pass (see :class:`_IngestCache`).
        """
        commit = commit if commit is not None else default_commit()
        cache = self._cache
        rows: List[TrialRow] = []
        for fingerprint, record, sha in cache.journal(path):
            histogram = cache.dataset(record.spec_name, n_bins, total)
            rows.append(cache.trial_row(
                record, fingerprint, commit, sha, histogram,
                cache.oracle(record, histogram),
            ))
        return self.add_trials(rows, source=str(path))

    def ingest_journal_utility(
        self,
        path: Union[str, Path],
        commit: Optional[str] = None,
        n_bins: int = 64,
        total: int = 50_000,
    ) -> IngestResult:
        """Derive per-workload utility rows from a journal (schema v3).

        Touches only the ``utility`` table, so it can re-process
        journals whose trial rows are already ingested — the engine
        behind ``history ingest --rebuild``.  Idempotent like every
        other ingest path.
        """
        commit = commit if commit is not None else default_commit()
        cache = self._cache
        rows: List[UtilityRow] = []
        for fingerprint, record, sha in cache.journal(path):
            histogram, workloads = cache.utility_context(
                record.spec_name, n_bins, total
            )
            rows.extend(cache.utility_rows(
                record, fingerprint, commit, sha, histogram, workloads,
                cache.oracle(record, histogram),
            ))
        return self.add_utility(rows, source=str(path))

    def record_rows(
        self,
        record: Any,
        fingerprint: str,
        commit: str,
        histogram: Any = None,
        workloads: "Optional[Dict[str, Any]]" = None,
    ) -> Tuple[TrialRow, List[UtilityRow]]:
        """A finished trial's trial row and utility rows, from one oracle
        and one content SHA, through this store's cache (the ``run
        --history`` path, which has each spec's dataset and workloads
        in memory)."""
        cache = self._cache
        sha = trial_content_sha(record)
        oracle = cache.oracle(record, histogram)
        return (
            cache.trial_row(record, fingerprint, commit, sha, histogram,
                            oracle),
            cache.utility_rows(record, fingerprint, commit, sha,
                               histogram, workloads, oracle),
        )

    # -- utility ingestion ---------------------------------------------
    _UTILITY_COLUMNS = (
        "commit_sha", "fingerprint", "spec_name", "family", "scenario",
        "publisher", "epsilon", "seed", "workload", "n", "total",
        "n_queries", "eff_queries", "mse", "mae", "scaled", "max_abs",
        "oracle_mse", "oracle_kind", "content_sha", "dedup_key",
    )

    def add_utility(
        self, rows: Iterable[UtilityRow], source: str = "records"
    ) -> IngestResult:
        """Append per-workload utility observations (deduplicated)."""
        rows = list(rows)
        commit = rows[0].commit if rows else "unknown"
        packed = [
            (
                r.commit, r.fingerprint, r.spec_name, r.family,
                r.scenario, r.publisher, r.epsilon, r.seed, r.workload,
                r.n, r.total, r.n_queries, r.eff_queries, r.mse, r.mae,
                r.scaled, r.max_abs, r.oracle_mse, r.oracle_kind,
                r.content_sha, r.dedup_key,
            )
            for r in rows
        ]
        return self._insert_unique(
            "utility", self._UTILITY_COLUMNS, packed, "utility", source,
            commit,
        )

    # -- bench ingestion -----------------------------------------------
    def ingest_bench_payload(
        self,
        payload: Dict[str, Any],
        bench_file: str,
        commit: Optional[str] = None,
    ) -> IngestResult:
        """Append one ``BENCH_*.json`` payload (see ``repro.perf.bench``)."""
        commit = commit if commit is not None else default_commit()
        profile = str(payload.get("profile", "unknown"))
        calibration = float(payload.get("calibration_seconds", 0.0))
        rows = []
        for key, entry in sorted(payload.get("entries", {}).items()):
            seconds = float(entry["seconds"])
            normalized = float(entry["normalized"])
            dedup = _content_sha({
                "commit": commit, "file": bench_file, "key": key,
                "seconds": seconds, "normalized": normalized,
                "calibration": calibration,
            })
            rows.append((
                commit, bench_file, profile, key, seconds, normalized,
                calibration, dedup,
            ))
        return self._insert_unique(
            "bench_entries",
            ("commit_sha", "bench_file", "profile", "key", "seconds",
             "normalized", "calibration", "dedup_key"),
            rows, "bench", bench_file, commit,
        )

    def ingest_bench(
        self, path: Union[str, Path], commit: Optional[str] = None
    ) -> IngestResult:
        path = Path(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        return self.ingest_bench_payload(payload, path.name, commit)

    # -- metrics ingestion ---------------------------------------------
    def ingest_metrics_payload(
        self,
        payload: Dict[str, Any],
        source: str,
        commit: Optional[str] = None,
    ) -> IngestResult:
        """Append the totals of one metrics-registry JSON rendering.

        Counters and gauges store their value; histograms store their
        ``_sum`` and ``_count`` (the buckets stay in the export file).
        """
        commit = commit if commit is not None else default_commit()
        rows = []

        def add(name: str, labels: Dict[str, Any], value: float) -> None:
            labels_text = json.dumps(labels, sort_keys=True)
            dedup = _content_sha({
                "commit": commit, "name": name, "labels": labels_text,
                "value": value,
            })
            rows.append((commit, name, labels_text, float(value), dedup))

        for name in sorted(payload):
            family = payload[name]
            if not isinstance(family, dict):
                continue
            for sample in family.get("samples", []):
                labels = sample.get("labels", {})
                if "value" in sample:
                    add(name, labels, sample["value"])
                else:
                    add(f"{name}_sum", labels, sample.get("sum", 0.0))
                    add(f"{name}_count", labels, sample.get("count", 0))
        return self._insert_unique(
            "metric_totals",
            ("commit_sha", "name", "labels", "value", "dedup_key"),
            rows, "metrics", source, commit,
        )

    def ingest_metrics(
        self, path: Union[str, Path], commit: Optional[str] = None
    ) -> IngestResult:
        path = Path(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        return self.ingest_metrics_payload(payload, path.name, commit)

    def ingest_registry(
        self, registry: Any, source: str = "registry",
        commit: Optional[str] = None,
    ) -> IngestResult:
        """Append a live :class:`repro.obs.metrics.MetricsRegistry`."""
        return self.ingest_metrics_payload(
            registry.render_json(), source, commit
        )

    # -- alerts --------------------------------------------------------
    def add_alerts(
        self,
        alerts: Sequence[Dict[str, Any]],
        source: str = "monitor",
        commit: Optional[str] = None,
    ) -> IngestResult:
        """Record fired straggler alerts (``ProgressMonitor.alerts``)."""
        commit = commit if commit is not None else default_commit()
        rows = []
        for alert in alerts:
            kind = str(alert.get("kind", "straggler"))
            spec = str(alert.get("spec", ""))
            seed = int(alert.get("seed", -1))
            age = float(alert.get("age_seconds", 0.0))
            threshold = float(alert.get("threshold", 0.0))
            dedup = _content_sha({
                "commit": commit, "kind": kind, "spec": spec,
                "seed": seed, "age": age, "threshold": threshold,
            })
            rows.append((commit, kind, spec, seed, age, threshold, dedup))
        return self._insert_unique(
            "alerts",
            ("commit_sha", "kind", "spec_name", "seed", "age_seconds",
             "threshold", "dedup_key"),
            rows, "alerts", source, commit,
        )

    # -- dispatch ------------------------------------------------------
    def ingest(
        self,
        path: Union[str, Path],
        commit: Optional[str] = None,
        n_bins: int = 64,
        total: int = 50_000,
    ) -> IngestResult:
        """Sniff ``path``'s type and ingest it (journal/bench/metrics)."""
        kind = sniff_source(path)
        if kind == "journal":
            return self.ingest_journal(
                path, commit=commit, n_bins=n_bins, total=total
            )
        if kind == "bench":
            return self.ingest_bench(path, commit=commit)
        return self.ingest_metrics(path, commit=commit)

    # -- queries -------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Row counts per table (dashboards, idempotency tests)."""
        out: Dict[str, int] = {}
        for table in ("batches", "trials", "bench_entries",
                      "metric_totals", "alerts", "utility"):
            row = self._conn.execute(
                f"SELECT COUNT(*) AS c FROM {table}"
            ).fetchone()
            out[table] = int(row["c"])
        return out

    def trial_cells(self) -> List[Tuple[str, str, float]]:
        """Distinct ``(spec_name, publisher, epsilon)`` cells, sorted."""
        rows = self._conn.execute(
            "SELECT DISTINCT spec_name, publisher, epsilon FROM trials "
            "ORDER BY spec_name, publisher, epsilon"
        ).fetchall()
        return [(r["spec_name"], r["publisher"], float(r["epsilon"]))
                for r in rows]

    def trial_series(
        self, spec_name: str, publisher: str, epsilon: float
    ) -> List[Dict[str, Any]]:
        """Per-batch aggregates for one cell, oldest batch first.

        Each point: batch/commit identity, seed counts, mean observed
        unit MSE/MAE, mean publish seconds, and the mean oracle
        prediction (``None`` when un-anchored), plus ``n``/``k`` hints.
        """
        rows = self._conn.execute(
            """
            SELECT batch_id, MIN(commit_sha) AS commit_sha,
                   SUM(ok) AS n_ok, COUNT(*) - SUM(ok) AS n_failed,
                   AVG(CASE WHEN ok THEN unit_mse END) AS mean_mse,
                   AVG(CASE WHEN ok THEN unit_mae END) AS mean_mae,
                   AVG(CASE WHEN ok THEN seconds END) AS mean_seconds,
                   AVG(CASE WHEN ok THEN oracle_mse END) AS oracle_mse,
                   MIN(oracle_kind) AS oracle_kind,
                   MAX(n) AS n, MAX(k) AS k
            FROM trials
            WHERE spec_name = ? AND publisher = ? AND epsilon = ?
            GROUP BY batch_id ORDER BY batch_id
            """,
            (spec_name, publisher, float(epsilon)),
        ).fetchall()
        return [dict(r) for r in rows]

    def utility_families(self) -> List[str]:
        """Distinct scenario families with utility rows, sorted."""
        rows = self._conn.execute(
            "SELECT DISTINCT family FROM utility ORDER BY family"
        ).fetchall()
        return [r["family"] for r in rows]

    def utility_cells(
        self, family: Optional[str] = None
    ) -> List[Tuple[str, str, str, float, str]]:
        """Distinct ``(family, scenario, publisher, ε, workload)`` cells."""
        sql = (
            "SELECT DISTINCT family, scenario, publisher, epsilon, "
            "workload FROM utility"
        )
        params: Tuple[Any, ...] = ()
        if family is not None:
            sql += " WHERE family = ?"
            params = (family,)
        sql += " ORDER BY family, scenario, publisher, epsilon, workload"
        rows = self._conn.execute(sql, params).fetchall()
        return [
            (r["family"], r["scenario"], r["publisher"],
             float(r["epsilon"]), r["workload"])
            for r in rows
        ]

    def utility_series(
        self,
        family: str,
        scenario: str,
        publisher: str,
        epsilon: float,
        workload: str,
    ) -> List[Dict[str, Any]]:
        """Per-batch aggregates for one utility cell, oldest first.

        Each point: batch/commit identity, seed count, mean observed
        MSE/MAE/scaled error, the mean oracle prediction (``None`` when
        un-anchored) and its kind, plus ``n``/``eff_queries`` hints for
        band sizing.
        """
        rows = self._conn.execute(
            """
            SELECT batch_id, MIN(commit_sha) AS commit_sha,
                   COUNT(*) AS n_ok,
                   AVG(mse) AS mean_mse, AVG(mae) AS mean_mae,
                   AVG(scaled) AS mean_scaled,
                   AVG(oracle_mse) AS oracle_mse,
                   MIN(oracle_kind) AS oracle_kind,
                   MAX(n) AS n, MAX(eff_queries) AS eff_queries
            FROM utility
            WHERE family = ? AND scenario = ? AND publisher = ?
              AND epsilon = ? AND workload = ?
            GROUP BY batch_id ORDER BY batch_id
            """,
            (family, scenario, publisher, float(epsilon), workload),
        ).fetchall()
        return [dict(r) for r in rows]

    def bench_keys(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT DISTINCT key FROM bench_entries ORDER BY key"
        ).fetchall()
        return [r["key"] for r in rows]

    def bench_series(self, key: str) -> List[Dict[str, Any]]:
        """Trajectory of one benchmark key, oldest batch first."""
        rows = self._conn.execute(
            """
            SELECT batch_id, commit_sha, bench_file, profile, seconds,
                   normalized, calibration
            FROM bench_entries WHERE key = ? ORDER BY batch_id, id
            """,
            (key,),
        ).fetchall()
        return [dict(r) for r in rows]

    def metric_series(self, name: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            """
            SELECT batch_id, commit_sha, labels, value
            FROM metric_totals WHERE name = ? ORDER BY batch_id, id
            """,
            (name,),
        ).fetchall()
        return [dict(r) for r in rows]

    def alert_rows(self) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            """
            SELECT batch_id, commit_sha, kind, spec_name, seed,
                   age_seconds, threshold
            FROM alerts ORDER BY batch_id, id
            """
        ).fetchall()
        return [dict(r) for r in rows]

    def prior_cell_stats(
        self,
        spec_name: str,
        publisher: str,
        epsilon: float,
        exclude_shas: Sequence[str] = (),
    ) -> Optional[Dict[str, Any]]:
        """Mean observed stats for a cell, excluding given content SHAs.

        Backs the run report's "vs. previous runs of this spec" section:
        the report excludes the journal's own rows by content hash, so
        the deltas compare against genuinely *prior* observations.
        """
        exclude = set(exclude_shas)
        rows = self._conn.execute(
            """
            SELECT content_sha, unit_mse, seconds FROM trials
            WHERE spec_name = ? AND publisher = ? AND epsilon = ?
              AND ok = 1
            """,
            (spec_name, publisher, float(epsilon)),
        ).fetchall()
        mses = [r["unit_mse"] for r in rows
                if r["content_sha"] not in exclude
                and r["unit_mse"] is not None]
        secs = [r["seconds"] for r in rows
                if r["content_sha"] not in exclude
                and r["seconds"] is not None]
        if not mses and not secs:
            return None
        return {
            "n_trials": max(len(mses), len(secs)),
            "mean_mse": sum(mses) / len(mses) if mses else None,
            "mean_seconds": sum(secs) / len(secs) if secs else None,
        }
