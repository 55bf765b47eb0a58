"""Crash-safe filesystem primitives shared by the robustness layer.

Two write disciplines cover every persistence need of the repo:

* :func:`atomic_write_text` — whole-file replacement.  The payload is
  written to a temporary file in the *same directory* (so the final
  ``os.replace`` is a same-filesystem rename, which POSIX guarantees to
  be atomic), fsynced, then renamed over the target.  A crash at any
  point leaves either the old file or the new file, never a torn mix.
  The tracked benchmark files (``BENCH_*.json``) and any rewritten
  artifact go through this.

* :class:`RecordLog` — the append-only log under the sweep journal
  and the serving ε ledger.  Each record is one schema-stamped JSON
  line, written with a single :func:`os.write` on an ``O_APPEND``
  descriptor, then fsynced, so a crash can only tear the final line;
  the reader skips and counts it, and the next append ends it first.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.exceptions import JournalError

__all__ = ["atomic_write_text", "RecordLog"]

PathLike = Union[str, Path]


def atomic_write_text(path: PathLike, text: str) -> None:
    """Replace ``path``'s contents with ``text`` atomically.

    Writes to a uniquely named sibling temp file, fsyncs it, and
    ``os.replace``s it over ``path``.  Readers never observe a partial
    file; a crash mid-write leaves the previous contents intact (plus,
    at worst, an orphaned ``.tmp`` sibling that the next write ignores).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class RecordLog:
    """Schema-versioned JSONL: one fsync'd ``O_APPEND`` write per record."""

    def __init__(self, path: PathLike, schema: int) -> None:
        self.path = Path(path)
        self.schema = schema

    def append(self, record: Dict[str, Any]) -> str:
        """Durably append ``record``; returns the line written.

        After a torn append (the last byte is not a newline) the write
        starts with one, so the fragment never swallows this record.
        """
        line = json.dumps({"schema": self.schema, **record})
        data = (line + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            str(self.path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        return line

    def read(self) -> Tuple[List[Dict[str, Any]], int]:
        """Every whole record in file order, and the count of torn lines.

        A line that is not a JSON object is torn (a crash artifact) and
        skipped; a whole record that lost only its newline counts.
        Another schema raises :class:`JournalError` (a version mismatch).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return [], 0
        records: List[Dict[str, Any]] = []
        torn = 0
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                torn += 1
            elif record.get("schema") != self.schema:
                raise JournalError(
                    f"{self.path} has schema {record.get('schema')!r}; "
                    f"expected {self.schema}"
                )
            else:
                records.append(record)
        return records, torn
