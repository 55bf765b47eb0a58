"""Trend dashboards from the run-history store: ``repro history dash``.

Renders the store's longitudinal trajectories as a deterministic
markdown (or HTML) document:

* **Accuracy trends** — one row per experiment cell with a unicode
  sparkline of the per-batch mean unit MSE, the latest observation,
  the oracle prediction, and the observed/oracle ratio;
* **Utility trends** — per scenario family (schema v3): unit-error
  trajectories with oracle-band verdict badges, plus
  NoiseFirst ↔ StructureFirst crossover-length badges per scenario;
* **Worst offenders** — cells ranked by how far their latest
  observation sits from the oracle anchor, and bench keys ranked by
  their latest-vs-reference slowdown;
* **Performance trends** — per bench key sparkline of
  calibration-normalized seconds with the latest delta;
* **Per-commit deltas** — mean accuracy/wall-clock movement between
  consecutive commits in the store;
* **Drift verdicts** — the current :mod:`repro.obs.drift` verdict per
  cell, plus straggler-alert and ingestion-batch summaries.

Determinism: the renderer never prints timestamps, batch ids are
monotonic by construction, floats are formatted with fixed precision,
and every table is sorted — the same store contents always render the
same bytes (snapshot-tested in ``tests/obs/test_dashboard.py``).
"""

from __future__ import annotations

import html as _html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.drift import DriftVerdict, detect_drift
from repro.obs.history import HistoryStore
from repro.obs.report import md_table

__all__ = [
    "render_dashboard",
    "sparkline",
    "write_dashboard",
]

#: Eight-level block characters; a constant series renders mid-level.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"

_STATUS_BADGE = {
    "ok": "✓ ok",
    "watch": "⚠ watch",
    "drift": "✗ drift",
    "no-data": "· no-data",
}


def sparkline(values: Sequence[float], width: int = 16) -> str:
    """Unicode sparkline of a numeric series (empty series -> ``""``).

    Series longer than ``width`` keep their most recent points; a
    constant series (single distinct value — zero range) renders flat
    at the middle level so "no movement" is visually distinct from
    "low".  ``None``/NaN/±inf entries are dropped rather than crashing
    the render; an all-degenerate series returns ``""``.
    """
    import math

    vals = [
        float(v) for v in values
        if v is not None and math.isfinite(float(v))
    ][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK_LEVELS[3] * len(vals)
    span = hi - lo
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1) + 0.5)
        idx = min(max(idx, 0), len(_SPARK_LEVELS) - 1)
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def _fmt(value: Optional[float], digits: int = 4) -> str:
    if value is None:
        return "—"
    return f"{float(value):.{digits}g}"


def _short_commit(sha: str) -> str:
    return sha[:10] if len(sha) > 10 else sha


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------

def _accuracy_section(store: HistoryStore) -> List[str]:
    lines = ["## Accuracy trends", ""]
    cells = store.trial_cells()
    if not cells:
        lines.append("_No trial history ingested yet._")
        return lines
    rows = []
    for spec_name, publisher, epsilon in cells:
        series = store.trial_series(spec_name, publisher, epsilon)
        mses = [p["mean_mse"] for p in series if p["mean_mse"] is not None]
        latest = series[-1]
        oracle = latest["oracle_mse"]
        ratio = None
        if oracle and latest["mean_mse"] is not None and oracle > 0:
            ratio = float(latest["mean_mse"]) / float(oracle)
        rows.append((
            spec_name,
            f"{epsilon:g}",
            len(series),
            sparkline(mses) or "—",
            _fmt(latest["mean_mse"]),
            _fmt(oracle),
            _fmt(ratio, digits=3),
            int(latest["n_ok"] or 0),
            int(latest["n_failed"] or 0),
        ))
    lines.extend(md_table(
        ["cell", "ε", "batches", "mean unit MSE trend", "latest",
         "oracle", "obs/oracle", "ok", "failed"],
        rows,
    ))
    lines.append("")
    lines.append(
        "_Sparklines plot per-batch mean unit MSE, oldest → newest; "
        "`oracle` is the closed-form expected MSE conditioned on the "
        "realized structure (`repro.verify.oracles`)._"
    )
    return lines


def _utility_section(store: HistoryStore,
                     verdicts: Sequence[DriftVerdict]) -> List[str]:
    """Per-family utility trends + crossover badges (v3 stores).

    Omitted entirely until utility rows are ingested, so pre-v3
    dashboards render byte-identically.
    """
    from repro.experiments.paper import crossover_rows

    families = store.utility_families()
    if not families:
        return []
    status_by_cell = {
        v.cell: v.status for v in verdicts if v.kind == "utility"
    }
    lines = ["## Utility trends", ""]
    for family in families:
        lines.append(f"### {family}")
        lines.append("")
        rows = []
        for fam, scen, pub, eps, wl in store.utility_cells(family):
            if wl != "unit":
                continue
            series = store.utility_series(fam, scen, pub, eps, wl)
            mses = [p["mean_mse"] for p in series
                    if p["mean_mse"] is not None]
            latest = series[-1]
            oracle = latest["oracle_mse"]
            ratio = None
            if oracle and latest["mean_mse"] is not None and oracle > 0:
                ratio = float(latest["mean_mse"]) / float(oracle)
            cell = f"{fam}/{scen} [{pub}, eps={eps:g}, {wl}]"
            status = status_by_cell.get(cell, "no-data")
            rows.append((
                scen, pub, f"{eps:g}", len(series),
                sparkline(mses) or "—",
                _fmt(latest["mean_mse"]), _fmt(oracle),
                _fmt(ratio, digits=3),
                _STATUS_BADGE.get(status, status),
            ))
        if rows:
            lines.extend(md_table(
                ["scenario", "publisher", "ε", "batches",
                 "unit MSE trend", "latest", "oracle", "obs/oracle",
                 "status"],
                rows,
            ))
            lines.append("")
        badges = [
            (scen, f"{eps:g}", lengths,
             "—" if crossover is None else str(crossover), verdict)
            for scen, eps, lengths, crossover, verdict
            in crossover_rows(store, family)
        ]
        if badges:
            lines.append(
                "NoiseFirst ↔ StructureFirst crossover by range length:"
            )
            lines.append("")
            lines.extend(md_table(
                ["scenario", "ε", "lengths compared", "crossover",
                 "badge"],
                badges,
            ))
            lines.append("")
    lines.append(
        "_One row per unit-workload utility cell (schema v3); `status` "
        "is the oracle-band utility verdict — range workloads are "
        "gated too but summarized by the crossover badges, which mark "
        "the query length where StructureFirst first beats NoiseFirst "
        "(the paper's headline effect)._"
    )
    return lines


def _worst_offenders(store: HistoryStore,
                     verdicts: Sequence[DriftVerdict]) -> List[str]:
    lines = ["## Worst offenders", ""]
    acc = [
        v for v in verdicts
        if v.kind == "accuracy" and v.ratio is not None
    ]
    acc.sort(key=lambda v: (-abs(_log_ratio(v.ratio)), v.cell))
    perf = [
        v for v in verdicts
        if v.kind == "perf" and v.ratio is not None
    ]
    perf.sort(key=lambda v: (-(v.ratio or 0.0), v.cell))
    if not acc and not perf:
        lines.append("_Nothing ranked yet (no anchored trajectories)._")
        return lines
    if acc:
        lines.append("### Accuracy (distance from oracle)")
        lines.append("")
        lines.extend(md_table(
            ["cell", "obs/oracle", "band", "status"],
            [
                (v.cell, _fmt(v.ratio, 3), f"±{_fmt(v.band, 2)}",
                 _STATUS_BADGE.get(v.status, v.status))
                for v in acc[:10]
            ],
        ))
        lines.append("")
    if perf:
        lines.append("### Performance (latest vs reference)")
        lines.append("")
        lines.extend(md_table(
            ["bench key", "latest/ref", "CUSUM", "status"],
            [
                (v.cell, _fmt(v.ratio, 3), _fmt(v.cusum, 3),
                 _STATUS_BADGE.get(v.status, v.status))
                for v in perf[:10]
            ],
        ))
    return lines


def _log_ratio(ratio: Optional[float]) -> float:
    import math

    if ratio is None or ratio <= 0:
        return 0.0
    return math.log(ratio)


def _perf_section(store: HistoryStore) -> List[str]:
    lines = ["## Performance trends", ""]
    keys = store.bench_keys()
    if not keys:
        lines.append("_No bench history ingested yet._")
        return lines
    rows = []
    for key in keys:
        series = store.bench_series(key)
        values = [float(p["normalized"]) for p in series]
        latest = values[-1]
        prev = values[-2] if len(values) > 1 else None
        delta = None
        if prev is not None and prev > 0:
            delta = (latest / prev - 1.0) * 100.0
        rows.append((
            key,
            len(values),
            sparkline(values) or "—",
            f"{latest:.3f}",
            "—" if delta is None else f"{delta:+.1f}%",
        ))
    lines.extend(md_table(
        ["bench key", "points", "normalized trend", "latest",
         "Δ vs previous"],
        rows,
    ))
    lines.append("")
    lines.append(
        "_Values are calibration-normalized seconds "
        "(`repro.perf.bench.machine_calibration`), so trajectories are "
        "comparable across machines._"
    )
    return lines


def _commit_deltas(store: HistoryStore) -> List[str]:
    lines = ["## Per-commit deltas", ""]
    rows = store._conn.execute(
        """
        SELECT MIN(batch_id) AS first_batch, commit_sha,
               AVG(CASE WHEN ok THEN unit_mse END) AS mean_mse,
               AVG(CASE WHEN ok THEN seconds END) AS mean_seconds,
               COUNT(*) AS n_trials
        FROM trials GROUP BY commit_sha ORDER BY first_batch
        """
    ).fetchall()
    if len(rows) < 1:
        lines.append("_No trial history ingested yet._")
        return lines
    table = []
    prev = None
    for row in rows:
        mse, secs = row["mean_mse"], row["mean_seconds"]
        d_mse = d_secs = "—"
        if prev is not None:
            if prev["mean_mse"] and mse is not None:
                d_mse = f"{(mse / prev['mean_mse'] - 1) * 100:+.1f}%"
            if prev["mean_seconds"] and secs is not None:
                d_secs = (
                    f"{(secs / prev['mean_seconds'] - 1) * 100:+.1f}%"
                )
        table.append((
            _short_commit(row["commit_sha"]), int(row["n_trials"]),
            _fmt(mse), d_mse, _fmt(secs), d_secs,
        ))
        prev = row
    lines.extend(md_table(
        ["commit", "trials", "mean unit MSE", "Δ MSE", "mean publish s",
         "Δ s"],
        table,
    ))
    return lines


def _verdict_section(verdicts: Sequence[DriftVerdict]) -> List[str]:
    lines = ["## Drift verdicts", ""]
    if not verdicts:
        lines.append("_No verdicts (empty store)._")
        return lines
    rows = []
    for v in sorted(verdicts, key=lambda v: (v.kind, v.cell)):
        rows.append((
            v.kind,
            v.cell,
            _STATUS_BADGE.get(v.status, v.status),
            "; ".join(v.details) if v.details else "—",
        ))
    lines.extend(md_table(["kind", "cell", "status", "details"], rows))
    lines.append("")
    counts: Dict[str, int] = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    summary = ", ".join(
        f"{counts[s]} {s}" for s in sorted(counts)
    )
    lines.append(f"**{summary}** — only `drift` fails the radar lane; "
                 "see `docs/observability.md` for the semantics.")
    return lines


def _serving_section(store: HistoryStore) -> List[str]:
    """Replay latency/throughput trajectories (``repro replay --history``).

    Rows join the three replay gauges on ``(batch_id, labels)`` so one
    line shows a whole replay run; the section is omitted entirely when
    no replay was ever ingested.
    """
    import json as json_mod

    series = {
        name: store.metric_series(name)
        for name in (
            "repro_replay_latency_p50_seconds",
            "repro_replay_latency_p99_seconds",
            "repro_replay_throughput_qps",
        )
    }
    if not any(series.values()):
        return []
    joined: "dict[tuple[int, str], dict]" = {}
    for name, rows in series.items():
        for row in rows:
            key = (row["batch_id"], row["labels"])
            entry = joined.setdefault(
                key, {"commit": row["commit_sha"], "labels": row["labels"]}
            )
            entry[name] = row["value"]
    table_rows = []
    for (_batch, labels), entry in sorted(joined.items()):
        try:
            manifest = json_mod.loads(labels).get("manifest", labels)
        except (ValueError, AttributeError):
            manifest = labels
        table_rows.append((
            _short_commit(entry["commit"]),
            manifest,
            _fmt(entry.get("repro_replay_latency_p50_seconds"), 5),
            _fmt(entry.get("repro_replay_latency_p99_seconds"), 5),
            _fmt(entry.get("repro_replay_throughput_qps"), 5),
        ))
    p50s = [r["value"]
            for r in series["repro_replay_latency_p50_seconds"]]
    lines = [
        "## Serving replay",
        "",
        f"- p50 trend: `{sparkline(p50s)}`" if p50s else "- no data",
        "",
    ]
    lines.extend(md_table(
        ["commit", "manifest", "p50 s", "p99 s", "q/s"],
        table_rows[-12:],
    ))
    return lines


#: Burn-rate badge thresholds (SRE convention): <= 1.0 spends the
#: error budget no faster than allowed; > 6.0 is page-worthy drift.
_SLO_WATCH_BURN = 1.0
_SLO_DRIFT_BURN = 6.0


def _serving_slo_section(store: HistoryStore) -> List[str]:
    """SLO burn rates scraped by ``repro replay --history``.

    One row per (replay run, objective) from the
    ``repro_serve_slo_burn_rate`` gauge; the verdict column applies
    the drift-radar thresholds (ok <= 1, watch <= 6, drift > 6).
    Omitted until a replay against an SLO-aware server is ingested.
    """
    import json as json_mod

    burns = store.metric_series("repro_serve_slo_burn_rate")
    if not burns:
        return []
    table_rows = []
    for row in burns[-18:]:
        try:
            labels = json_mod.loads(row["labels"])
        except (ValueError, TypeError):
            labels = {}
        burn = float(row["value"])
        if burn <= _SLO_WATCH_BURN:
            status = "ok"
        elif burn <= _SLO_DRIFT_BURN:
            status = "watch"
        else:
            status = "drift"
        table_rows.append((
            _short_commit(row["commit_sha"]),
            labels.get("manifest", row["labels"]),
            labels.get("objective", ""),
            _fmt(burn, 4),
            _STATUS_BADGE.get(status, status),
        ))
    lines = [
        "## Serving SLOs",
        "",
        f"- burn rate = bad fraction / (1 - target); "
        f"ok <= {_SLO_WATCH_BURN:g}, watch <= {_SLO_DRIFT_BURN:g}, "
        f"drift above that",
        "",
    ]
    lines.extend(md_table(
        ["commit", "manifest", "objective", "burn", "verdict"],
        table_rows,
    ))
    return lines


def _operations_section(store: HistoryStore) -> List[str]:
    lines = ["## Operations", ""]
    counts = store.counts()
    lines.append(
        f"- store rows: {counts['trials']} trials, "
        f"{counts['utility']} utility, "
        f"{counts['bench_entries']} bench entries, "
        f"{counts['metric_totals']} metric totals, "
        f"{counts['alerts']} alerts, {counts['batches']} batches "
        f"(schema v{store.schema_version})"
    )
    alerts = store.alert_rows()
    if alerts:
        lines.append("")
        lines.append("### Straggler alerts")
        lines.append("")
        lines.extend(md_table(
            ["commit", "spec", "seed", "age s", "threshold s"],
            [
                (_short_commit(a["commit_sha"]), a["spec_name"],
                 a["seed"], _fmt(a["age_seconds"], 3),
                 _fmt(a["threshold"], 3))
                for a in alerts
            ],
        ))
    totals = store.metric_series("repro_trials_total")
    if totals:
        lines.append("")
        lines.append("### Executor totals (latest batches)")
        lines.append("")
        lines.extend(md_table(
            ["commit", "labels", "value"],
            [
                (_short_commit(t["commit_sha"]), t["labels"],
                 _fmt(t["value"], 6))
                for t in totals[-10:]
            ],
        ))
    lines.extend(_serving_resilience_rows(store))
    return lines


def _serving_resilience_rows(store: HistoryStore) -> List[str]:
    """Shed / degraded / restart-recovery counters per replay run.

    Fed by ``repro replay --history``: the replay driver scrapes the
    target server's final ``/v1/stats`` and lands the
    ``repro_serve_shed/degraded/recovered_total`` families as gauges.
    Empty (and omitted) until a replay against a resilient server is
    ingested.
    """
    import json as json_mod

    rows: List[tuple] = []
    for name, event in (
        ("repro_serve_shed_total", "shed"),
        ("repro_serve_degraded_total", "degraded"),
        ("repro_serve_recovered_total", "recovered"),
    ):
        for row in store.metric_series(name)[-12:]:
            try:
                labels = json_mod.loads(row["labels"])
            except (ValueError, TypeError):
                labels = {}
            rows.append((
                _short_commit(row["commit_sha"]),
                labels.get("manifest", row["labels"]),
                event,
                labels.get("key", ""),
                _fmt(row["value"], 6),
            ))
    if not rows:
        return []
    lines = [
        "",
        "### Serving resilience (sheds / degraded / recoveries)",
        "",
    ]
    lines.extend(md_table(
        ["commit", "manifest", "event", "detail", "count"], rows,
    ))
    return lines


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def render_dashboard(
    store: Union[HistoryStore, str, Path],
    fmt: str = "md",
    title: Optional[str] = None,
) -> str:
    """Render the trend dashboard (``fmt`` = ``"md"`` or ``"html"``)."""
    if fmt not in ("md", "html"):
        raise ValueError(f"fmt must be 'md' or 'html', got {fmt!r}")
    owned = not isinstance(store, HistoryStore)
    if owned:
        store = HistoryStore(store)
    try:
        verdicts = detect_drift(store)
        name = title if title is not None else store.path.name
        sections: List[str] = [f"# Regression radar — `{name}`", ""]
        sections.extend(_accuracy_section(store))
        sections.append("")
        utility = _utility_section(store, verdicts)
        if utility:
            sections.extend(utility)
            sections.append("")
        sections.extend(_worst_offenders(store, verdicts))
        sections.append("")
        sections.extend(_perf_section(store))
        sections.append("")
        sections.extend(_commit_deltas(store))
        sections.append("")
        sections.extend(_verdict_section(verdicts))
        sections.append("")
        serving = _serving_section(store)
        if serving:
            sections.extend(serving)
            sections.append("")
        slo = _serving_slo_section(store)
        if slo:
            sections.extend(slo)
            sections.append("")
        sections.extend(_operations_section(store))
        text = "\n".join(sections) + "\n"
    finally:
        if owned:
            store.close()
    if fmt == "html":
        return _markdown_to_html(text)
    return text


def write_dashboard(
    store: Union[HistoryStore, str, Path],
    out: Union[str, Path],
    fmt: Optional[str] = None,
) -> Path:
    """Render and atomically write the dashboard; returns the path.

    ``fmt`` defaults from the output suffix (``.html`` selects HTML).
    """
    from repro.robust.atomicio import atomic_write_text

    out = Path(out)
    if fmt is None:
        fmt = "html" if out.suffix.lower() in (".html", ".htm") else "md"
    atomic_write_text(out, render_dashboard(store, fmt=fmt))
    return out


# ---------------------------------------------------------------------------
# Minimal markdown -> HTML (headings, tables, paragraphs)
# ---------------------------------------------------------------------------

def _markdown_to_html(markdown: str) -> str:
    """Tiny, deterministic subset-converter for the dashboard's markdown.

    Handles exactly what the renderer emits — ``#``/``##``/``###``
    headings, pipe tables, and paragraphs — so the HTML artifact CI
    uploads is viewable without a markdown renderer.  Inline code
    backticks become ``<code>``; everything is HTML-escaped first.
    """
    def inline(text: str) -> str:
        escaped = _html.escape(text, quote=False)
        out = []
        parts = escaped.split("`")
        for i, part in enumerate(parts):
            if i % 2 == 1:
                out.append(f"<code>{part}</code>")
            else:
                out.append(part)
        return "".join(out)

    body: List[str] = []
    lines = markdown.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            level = min(level, 6)
            body.append(
                f"<h{level}>{inline(line[level:].strip())}</h{level}>"
            )
            i += 1
            continue
        if line.startswith("|"):
            table = []
            while i < len(lines) and lines[i].startswith("|"):
                table.append(lines[i])
                i += 1
            body.append("<table>")
            for j, row in enumerate(table):
                if j == 1 and set(row.replace("|", "").strip()) <= \
                        set("- :"):
                    continue
                cells = [c.strip() for c in row.strip("|").split("|")]
                tag = "th" if j == 0 else "td"
                body.append(
                    "<tr>" + "".join(
                        f"<{tag}>{inline(c)}</{tag}>" for c in cells
                    ) + "</tr>"
                )
            body.append("</table>")
            continue
        body.append(f"<p>{inline(line.strip())}</p>")
        i += 1
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        "<title>Regression radar</title>\n"
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:2px 8px;text-align:left}"
        "</style></head>\n<body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )
