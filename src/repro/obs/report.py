"""Markdown run reports from checkpoint journals: ``repro report``.

``python -m repro report sweep.jsonl`` turns the append-only JSONL
journal a supervised sweep wrote (:mod:`repro.robust.journal`) into a
human-readable markdown document:

* **Overview** — cells, trial outcomes, aggregate wall-clock;
* **Per-publisher stage breakdown** — the span trees each worker
  serialized into ``meta["trace"]``, aggregated to ``calls / total /
  mean / share-of-trial`` per slash-joined stage path (this is the
  table that shows *where* NoiseFirst vs StructureFirst spend their
  compute: partition DP vs noise vs post-process);
* **Failure taxonomy** — quarantined :class:`FailedRecord` entries
  grouped by error class (see the taxonomy in ``docs/robustness.md``);
* **ε-ledger** — per-cell privacy spend composed through
  :mod:`repro.accounting` (sequential composition across a cell's
  successful trials, since every trial re-touches the same dataset).

The renderer is deterministic for a given journal (no timestamps, keys
sorted), so reports are golden-testable.  Heavy imports
(journal/runner/accounting) are deferred into the functions to keep
``repro.obs`` an import-light leaf package.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.obs.trace import stage_totals

__all__ = ["md_table", "render_report", "write_report"]


def md_table(headers: Sequence[str],
             rows: Sequence[Sequence[Any]]) -> List[str]:
    """GitHub-flavored markdown pipe table, one string per line."""
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    sep = "|" + "|".join(" --- " for _ in headers) + "|"
    body = ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return [head, sep, *body]


def _fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------

def _overview(records: List[Any], failures: List[Any],
              n_entries: int, n_specs: int) -> List[str]:
    publish_s = sum(r.seconds for r in records)
    eval_s = sum(
        float(r.meta.get("t_eval_seconds", r.meta.get("eval_seconds", 0.0)))
        for r in records
    )
    publishers = sorted({r.publisher for r in records}
                        | {f.publisher for f in failures})
    lines = [
        "## Overview",
        "",
        f"- journal entries: {n_entries} "
        f"({len(records) + len(failures)} unique cells; later entries win)",
        f"- specs: {n_specs}",
        f"- publishers: {', '.join(publishers) if publishers else '(none)'}",
        f"- trials: {len(records)} ok, {len(failures)} failed",
        f"- publish wall-clock: {_fmt_seconds(publish_s)}s total; "
        f"workload evaluation: {_fmt_seconds(eval_s)}s total",
    ]
    return lines


def _stage_breakdown(records: List[Any]) -> List[str]:
    """Per-publisher stage table from the journaled span trees."""
    lines = ["## Per-publisher stage breakdown", ""]
    by_publisher: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        tree = record.meta.get("trace")
        if isinstance(tree, dict):
            by_publisher.setdefault(record.publisher, []).append(tree)

    if not by_publisher:
        lines.append(
            "_No trace data in this journal (run with `--trace` to record "
            "per-stage span trees)._  Falling back to the coarse "
            "publish/evaluate split:"
        )
        lines.append("")
        coarse: Dict[str, Tuple[int, float, float]] = {}
        for r in records:
            n, pub, ev = coarse.get(r.publisher, (0, 0.0, 0.0))
            eval_s = float(
                r.meta.get("t_eval_seconds", r.meta.get("eval_seconds", 0.0))
            )
            coarse[r.publisher] = (n + 1, pub + r.seconds, ev + eval_s)
        rows = [
            (
                name, n, _fmt_seconds(pub), _fmt_seconds(ev),
                _fmt_seconds(pub / n), _fmt_seconds(ev / n),
            )
            for name, (n, pub, ev) in sorted(coarse.items())
        ]
        lines.extend(md_table(
            ["publisher", "trials", "publish s", "eval s",
             "mean publish s", "mean eval s"],
            rows,
        ))
        return lines

    rows: List[Tuple[str, ...]] = []
    for publisher in sorted(by_publisher):
        trees = by_publisher[publisher]
        merged: Dict[str, Tuple[int, float]] = {}
        root_total = 0.0
        for tree in trees:
            root_total += float(tree.get("seconds", 0.0))
            for path, (calls, seconds) in stage_totals(tree).items():
                c0, s0 = merged.get(path, (0, 0.0))
                merged[path] = (c0 + calls, s0 + seconds)
        for path in sorted(merged):
            calls, seconds = merged[path]
            depth = path.count("/")
            label = ("&nbsp;&nbsp;" * depth) + path.rsplit("/", 1)[-1]
            share = (seconds / root_total * 100.0) if root_total > 0 else 0.0
            rows.append((
                publisher if depth == 0 else "",
                label,
                str(calls),
                _fmt_seconds(seconds),
                _fmt_seconds(seconds / calls),
                f"{share:.1f}%",
            ))
    lines.extend(md_table(
        ["publisher", "stage", "calls", "total s", "mean s",
         "share of trial"],
        rows,
    ))
    lines.append("")
    lines.append(
        "_Stage paths are slash-joined span names (scheme: "
        "`docs/observability.md`); share is relative to the trial root "
        "span._"
    )
    return lines


def _failure_taxonomy(failures: List[Any]) -> List[str]:
    lines = ["## Failure taxonomy", ""]
    if not failures:
        lines.append("No quarantined trials — every cell completed.")
        return lines
    by_error: Dict[str, List[Any]] = {}
    for failed in failures:
        by_error.setdefault(failed.error, []).append(failed)
    rows = []
    for error in sorted(by_error):
        group = by_error[error]
        publishers = ", ".join(sorted({f.publisher for f in group}))
        attempts = sum(f.attempts for f in group)
        example = group[0].cause.replace("|", "\\|")[:120] or "(no cause)"
        rows.append((error, len(group), publishers, attempts, example))
    lines.extend(md_table(
        ["error", "count", "publishers", "total attempts", "example cause"],
        rows,
    ))
    lines.append("")
    lines.append(
        "_Error classes follow the failure taxonomy in "
        "`docs/robustness.md`; quarantined cells can be re-attempted with "
        "`python -m repro run --resume --retry-failed`._"
    )
    return lines


def _epsilon_ledger(records: List[Any]) -> List[str]:
    """Per-cell ε spend, composed through ``repro.accounting``."""
    from repro.accounting.ledger import Ledger, SpendRecord

    lines = ["## ε-ledger", ""]
    if not records:
        lines.append("No successful trials; nothing was spent.")
        return lines
    cells: Dict[Tuple[str, str, float], int] = {}
    for r in records:
        eps = float(r.meta.get("spec_epsilon", r.epsilon))
        key = (r.spec_name, r.publisher, eps)
        cells[key] = cells.get(key, 0) + 1
    rows = []
    grand = Ledger()
    for (spec_name, publisher, eps) in sorted(cells):
        n = cells[(spec_name, publisher, eps)]
        ledger = Ledger()
        for _ in range(n):
            spend = SpendRecord(epsilon=eps, purpose=f"{spec_name} trial")
            ledger.append(spend)
            grand.append(spend)
        rows.append((
            spec_name, publisher, f"{eps:g}", n,
            f"{ledger.total():g}",
        ))
    lines.extend(md_table(
        ["spec", "publisher", "ε per trial", "trials ok",
         "composed ε (sequential)"],
        rows,
    ))
    lines.append("")
    lines.append(
        f"Grand total across every journaled trial (sequential "
        f"composition): **ε = {grand.total():g}**.  Each trial "
        "re-queries the same dataset, so spends compose sequentially; "
        "see `docs/privacy.md` for the composition rules."
    )
    return lines


def _history_deltas(records: List[Any], history: Any) -> List[str]:
    """"vs. previous runs of this spec": accuracy + wall-clock deltas.

    Compares each cell's mean unit MSE and publish wall-clock against
    the mean of *prior* observations of the same
    ``(spec, publisher, ε)`` cell in the run-history store
    (:mod:`repro.obs.history`).  The journal's own rows are excluded by
    content hash, so ingesting this very journal first does not wash
    the deltas out.  Output is deterministic for a given store.
    """
    from repro.obs.history import HistoryStore, trial_content_sha

    lines = ["## History deltas", ""]
    owned = not isinstance(history, HistoryStore)
    store = HistoryStore(history) if owned else history
    try:
        cells: Dict[Tuple[str, str, float], List[Any]] = {}
        for r in records:
            key = (r.spec_name, r.publisher,
                   float(r.meta.get("spec_epsilon", r.epsilon)))
            cells.setdefault(key, []).append(r)
        rows = []
        for key in sorted(cells):
            spec_name, publisher, eps = key
            group = cells[key]
            shas = [trial_content_sha(r) for r in group]
            mse = sum(r.metric("unit", "mse") for r in group
                      if "unit" in r.workload_errors)
            n_mse = sum(1 for r in group if "unit" in r.workload_errors)
            mean_mse = mse / n_mse if n_mse else None
            mean_secs = sum(r.seconds for r in group) / len(group)
            prior = store.prior_cell_stats(
                spec_name, publisher, eps, exclude_shas=shas
            )
            if prior is None:
                rows.append((spec_name, f"{eps:g}",
                             _fmt_metric(mean_mse), "—",
                             _fmt_seconds(mean_secs), "—", 0))
                continue
            d_mse = _delta(mean_mse, prior.get("mean_mse"))
            d_secs = _delta(mean_secs, prior.get("mean_seconds"))
            rows.append((
                spec_name, f"{eps:g}", _fmt_metric(mean_mse), d_mse,
                _fmt_seconds(mean_secs), d_secs, prior["n_trials"],
            ))
        if not rows:
            lines.append("No successful trials to compare.")
            return lines
        lines.extend(md_table(
            ["cell", "ε", "mean unit MSE", "Δ vs history",
             "mean publish s", "Δ vs history", "prior trials"],
            rows,
        ))
        lines.append("")
        lines.append(
            "_Deltas compare this journal against the mean of prior "
            "observations of the same cell in the run-history store "
            "(`python -m repro history`); the journal's own rows are "
            "excluded by content hash._"
        )
    finally:
        if owned:
            store.close()
    return lines


def _fmt_metric(value: Any) -> str:
    if value is None:
        return "—"
    return f"{float(value):.6g}"


def _delta(current: Any, prior: Any) -> str:
    if current is None or prior is None or prior == 0:
        return "—"
    return f"{(float(current) / float(prior) - 1.0) * 100.0:+.1f}%"


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def render_report(
    journal: Union[str, Path, Any],
    history: Union[str, Path, Any, None] = None,
) -> str:
    """Render the markdown run report for ``journal``.

    ``journal`` is a path or a
    :class:`repro.robust.journal.CheckpointJournal`.  Later journal
    entries win per cell (same rule ``--resume`` uses), so a journal
    that healed a quarantine on a second pass reports the healed state.
    ``history`` (a path or :class:`repro.obs.history.HistoryStore`)
    appends the "vs. previous runs of this spec" delta section.
    """
    from repro.robust.journal import CheckpointJournal, record_from_payload
    from repro.robust.records import is_failed

    if not isinstance(journal, CheckpointJournal):
        journal = CheckpointJournal(journal)

    entries = journal.entries()
    latest = [record_from_payload(e["payload"]) for e in journal.latest()]
    records = [r for r in latest if not is_failed(r)]
    failures = [r for r in latest if is_failed(r)]
    records.sort(key=lambda r: (r.spec_name, r.publisher, r.seed))
    failures.sort(key=lambda r: (r.spec_name, r.publisher, r.seed))
    n_specs = len({(r.spec_name) for r in latest})

    sections: List[str] = [f"# Run report — `{journal.path.name}`", ""]
    if not entries:
        sections.append(
            "_Empty journal: no completed trials were recorded._"
        )
        return "\n".join(sections) + "\n"
    sections.extend(_overview(records, failures, len(entries), n_specs))
    sections.append("")
    sections.extend(_stage_breakdown(records))
    sections.append("")
    sections.extend(_failure_taxonomy(failures))
    sections.append("")
    sections.extend(_epsilon_ledger(records))
    if history is not None:
        sections.append("")
        sections.extend(_history_deltas(records, history))
    return "\n".join(sections) + "\n"


def write_report(journal: Union[str, Path, Any],
                 out: Union[str, Path],
                 history: Union[str, Path, Any, None] = None) -> Path:
    """Render and atomically write the report; returns the path."""
    from repro.robust.atomicio import atomic_write_text

    out = Path(out)
    atomic_write_text(out, render_report(journal, history=history))
    return out
