"""``repro paper``: a repro-paper publication pipeline over the radar.

Renders everything a write-up needs — markdown + LaTeX tables and
SVG crossover figures — straight from the run-history SQLite store
(:mod:`repro.obs.history`), so the numbers in the paper are exactly the
numbers the regression radar gates on.  The pipeline is:

* **deterministic** — same store, same bytes.  No timestamps, sorted
  iteration everywhere, fixed float formatting (shared with
  :mod:`repro.experiments.tables`), hand-rolled SVG (no plotting
  dependency);
* **error-isolated** — each table/figure generator runs inside its own
  firewall; one malformed cell degrades that artifact to a listed
  failure instead of killing the build (the ProjectScylla
  ``generate_tables.py`` shape);
* **self-describing** — ``paper.md`` assembles the tables inline with
  figure links and a failure appendix, so the output directory is a
  reviewable artifact on its own.

Layout under ``--out``::

    paper.md                      the assembled document
    tables/<name>.md              one markdown file per table
    tables/<name>.tex             the same table as a booktabs float
    figures/crossover-<family>.svg

See ``docs/evaluation.md`` for how scenario runs populate the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

from repro.experiments.tables import (
    Table,
    render_latex,
    render_markdown,
)
from repro.obs.history import HistoryStore

__all__ = [
    "PaperResult",
    "crossover_curves",
    "crossover_figure_svg",
    "crossover_rows",
    "generate_paper",
    "paper_tables",
]


# ---------------------------------------------------------------------------
# Data extraction
# ---------------------------------------------------------------------------

def _latest_mse(store: HistoryStore, cell: Tuple) -> "float | None":
    series = store.utility_series(*cell)
    points = [p for p in series if p["mean_mse"] is not None]
    return float(points[-1]["mean_mse"]) if points else None


def crossover_curves(
    store: HistoryStore, family: str
) -> "Dict[Tuple[str, float], List[Tuple[int, float, float]]]":
    """NoiseFirst/StructureFirst error per range length, one curve pair
    per (scenario, ε) with both publishers present.

    Returns ``{(scenario, eps): [(length, nf_mse, sf_mse), ...]}`` with
    lengths ascending; ``unit`` counts as length 1.  This is the data
    behind both the crossover table and the per-family figure — the
    paper's headline effect (NoiseFirst wins short queries,
    StructureFirst wins long ones) read directly off the store.
    """
    by_cell: Dict[Tuple[str, float], Dict[int, Dict[str, float]]] = {}
    for fam, scen, pub, eps, wl in store.utility_cells(family):
        if pub not in ("noisefirst", "structurefirst"):
            continue
        if wl == "unit":
            length = 1
        elif wl.startswith("len-"):
            try:
                length = int(wl[4:])
            except ValueError:
                continue
        else:
            continue
        mse = _latest_mse(store, (fam, scen, pub, eps, wl))
        if mse is None:
            continue
        by_cell.setdefault((scen, eps), {}) \
            .setdefault(length, {})[pub] = mse
    curves: Dict[Tuple[str, float], List[Tuple[int, float, float]]] = {}
    for key, lengths in sorted(by_cell.items()):
        pairs = [
            (l, d["noisefirst"], d["structurefirst"])
            for l, d in sorted(lengths.items())
            if "noisefirst" in d and "structurefirst" in d
        ]
        if pairs:
            curves[key] = pairs
    return curves


def _crossover_length(
    pairs: "List[Tuple[int, float, float]]"
) -> "int | None":
    """Smallest compared length where StructureFirst is ahead."""
    for length, nf, sf in pairs:
        if sf < nf:
            return length
    return None


def crossover_rows(
    store: HistoryStore, family: str
) -> "List[Tuple[str, float, str, int | None, str]]":
    """One row per curve pair of :func:`crossover_curves`: ``(scenario,
    eps, lengths compared, crossover length or None, verdict)``.

    The crossover table of ``repro paper`` and the crossover badges of
    ``repro history dash`` both print these rows.
    """
    rows = []
    for (scen, eps), pairs in crossover_curves(store, family).items():
        crossover = _crossover_length(pairs)
        if crossover is None:
            verdict = f"NoiseFirst ahead through len {pairs[-1][0]}"
        elif crossover == pairs[0][0]:
            verdict = "StructureFirst ahead at every length"
        else:
            verdict = f"crossover at len {crossover}"
        lengths = ", ".join(str(l) for l, _, _ in pairs)
        rows.append((scen, eps, lengths, crossover, verdict))
    return rows


# ---------------------------------------------------------------------------
# Table builders (each: store -> Table; registered for error isolation)
# ---------------------------------------------------------------------------

def _scenario_utility_table(store: HistoryStore) -> Table:
    table = Table(
        title="Scenario utility (unit workload)",
        headers=["family", "scenario", "publisher", "eps", "batches",
                 "mean MSE", "oracle", "obs/oracle"],
        notes="latest batch per cell; oracle is the closed-form "
              "expected MSE of the publisher configuration",
    )
    for family in store.utility_families():
        for fam, scen, pub, eps, wl in store.utility_cells(family):
            if wl != "unit":
                continue
            series = store.utility_series(fam, scen, pub, eps, wl)
            points = [p for p in series if p["mean_mse"] is not None]
            if not points:
                continue
            latest = points[-1]
            mse = float(latest["mean_mse"])
            oracle = latest["oracle_mse"]
            ratio = mse / float(oracle) if oracle else None
            table.add_row(
                fam, scen, pub, f"{eps:g}", len(series), mse,
                float(oracle) if oracle else "—",
                ratio if ratio is not None else "—",
            )
    return table


def _workload_regime_table(store: HistoryStore) -> Table:
    table = Table(
        title="Utility by workload regime",
        headers=["family", "scenario", "publisher", "eps", "workload",
                 "mean MSE", "oracle", "obs/oracle"],
        notes="every (scenario, publisher, eps, workload) cell in the "
              "store — the appendix-grade dump behind the summaries",
    )
    for fam, scen, pub, eps, wl in store.utility_cells():
        series = store.utility_series(fam, scen, pub, eps, wl)
        points = [p for p in series if p["mean_mse"] is not None]
        if not points:
            continue
        latest = points[-1]
        mse = float(latest["mean_mse"])
        oracle = latest["oracle_mse"]
        ratio = mse / float(oracle) if oracle else None
        table.add_row(
            fam, scen, pub, f"{eps:g}", wl, mse,
            float(oracle) if oracle else "—",
            ratio if ratio is not None else "—",
        )
    return table


def _crossover_table(store: HistoryStore) -> Table:
    table = Table(
        title="NoiseFirst ↔ StructureFirst crossover by range length",
        headers=["family", "scenario", "eps", "lengths compared",
                 "crossover", "verdict"],
        notes="smallest compared range length where StructureFirst's "
              "mean MSE beats NoiseFirst's (unit queries count as "
              "length 1) — the paper's headline effect",
    )
    for family in store.utility_families():
        for scen, eps, lengths, crossover, verdict in crossover_rows(
                store, family):
            table.add_row(
                family, scen, f"{eps:g}", lengths,
                "—" if crossover is None else crossover,
                verdict,
            )
    return table


def _sweep_accuracy_table(store: HistoryStore) -> Table:
    table = Table(
        title="Sweep accuracy trajectories",
        headers=["cell", "publisher", "eps", "batches", "mean MSE",
                 "oracle", "obs/oracle"],
        notes="latest batch per sweep trial cell, oracle-anchored "
              "where a closed form exists",
    )
    for spec_name, publisher, epsilon in store.trial_cells():
        series = store.trial_series(spec_name, publisher, epsilon)
        points = [p for p in series if p["mean_mse"] is not None]
        if not points:
            continue
        latest = points[-1]
        mse = float(latest["mean_mse"])
        oracle = latest["oracle_mse"]
        ratio = mse / float(oracle) if oracle else None
        table.add_row(
            spec_name, publisher, f"{epsilon:g}", len(series), mse,
            float(oracle) if oracle else "—",
            ratio if ratio is not None else "—",
        )
    return table


def _bench_table(store: HistoryStore) -> Table:
    table = Table(
        title="Performance benchmarks (calibration-normalized)",
        headers=["key", "points", "latest", "median"],
        notes="seconds normalized by the per-host calibration loop; "
              "trajectories feed the perf CUSUM",
    )
    for key in store.bench_keys():
        values = [float(p["normalized"]) for p in store.bench_series(key)]
        ordered = sorted(values)
        mid = len(ordered) // 2
        median = ordered[mid] if len(ordered) % 2 else \
            0.5 * (ordered[mid - 1] + ordered[mid])
        table.add_row(key, len(values), values[-1], median)
    return table


#: Registered table builders, rendered in this order.  Each runs inside
#: its own error firewall in :func:`generate_paper`.
_TABLE_BUILDERS: "Dict[str, Callable[[HistoryStore], Table]]" = {
    "scenario_utility": _scenario_utility_table,
    "crossover": _crossover_table,
    "workload_regimes": _workload_regime_table,
    "sweep_accuracy": _sweep_accuracy_table,
    "bench": _bench_table,
}


def paper_tables(store: HistoryStore) -> "Dict[str, Table]":
    """All registered tables, built without the file-writing pipeline."""
    return {name: build(store) for name, build in _TABLE_BUILDERS.items()}


# ---------------------------------------------------------------------------
# Figures: hand-rolled deterministic SVG
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_ML, _MR, _MT, _MB = 64, 160, 36, 48  # margins: left right top bottom
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
           "#e377c2")


def _log2(x: float) -> float:
    import math

    return math.log2(x)


def _log10(x: float) -> float:
    import math

    return math.log10(max(x, 1e-300))


def crossover_figure_svg(
    family: str,
    curves: "Dict[Tuple[str, float], List[Tuple[int, float, float]]]",
) -> str:
    """One log-log SVG: mean MSE vs range length, NF solid / SF dashed.

    Each (scenario, ε) pair contributes two polylines in a shared
    color; the crossover point (first length where StructureFirst is
    ahead) is marked with a circle.  Pure string assembly with fixed
    precision, so the figure is byte-deterministic.
    """
    lengths = sorted({l for pairs in curves.values()
                      for l, _, _ in pairs})
    values = [v for pairs in curves.values()
              for _, nf, sf in pairs for v in (nf, sf) if v > 0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<title>NoiseFirst vs StructureFirst — {family}</title>',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_ML}" y="22" font-family="monospace" '
        f'font-size="14">{family}: mean MSE vs range length</text>',
    ]
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB
    if not lengths or not values:
        parts.append(
            f'<text x="{_ML}" y="{_SVG_H // 2}" font-family="monospace" '
            f'font-size="12">no crossover data ingested</text></svg>'
        )
        return "\n".join(parts) + "\n"

    x_lo, x_hi = _log2(lengths[0]), _log2(lengths[-1])
    y_lo, y_hi = _log10(min(values)), _log10(max(values))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(length: float) -> float:
        return _ML + (_log2(length) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value: float) -> float:
        return _MT + (y_hi - _log10(value)) / (y_hi - y_lo) * plot_h

    # Axes + tick labels.
    parts.append(
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" '
        f'y2="{_MT + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" '
        f'stroke="black"/>'
    )
    for length in lengths:
        x = sx(length)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT + plot_h}" x2="{x:.1f}" '
            f'y2="{_MT + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MT + plot_h + 18}" '
            f'font-family="monospace" font-size="10" '
            f'text-anchor="middle">{length}</text>'
        )
    decade = int(_log10(min(values)) // 1)
    while decade <= y_hi:
        if y_lo <= decade:
            y = sy(10.0 ** decade)
            parts.append(
                f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" '
                f'y2="{y:.1f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{_ML - 8}" y="{y + 3:.1f}" '
                f'font-family="monospace" font-size="10" '
                f'text-anchor="end">1e{decade}</text>'
            )
        decade += 1
    parts.append(
        f'<text x="{_ML + plot_w // 2}" y="{_SVG_H - 8}" '
        f'font-family="monospace" font-size="11" '
        f'text-anchor="middle">range length (log2)</text>'
    )

    # Curves: NF solid, SF dashed, one color per (scenario, eps).
    legend_y = _MT + 8
    for i, ((scen, eps), pairs) in enumerate(sorted(curves.items())):
        color = _COLORS[i % len(_COLORS)]
        nf_pts = " ".join(
            f"{sx(l):.1f},{sy(nf):.1f}" for l, nf, _ in pairs
        )
        sf_pts = " ".join(
            f"{sx(l):.1f},{sy(sf):.1f}" for l, _, sf in pairs
        )
        parts.append(
            f'<polyline points="{nf_pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<polyline points="{sf_pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.5" '
            f'stroke-dasharray="5,3"/>'
        )
        crossover = _crossover_length(pairs)
        if crossover is not None:
            sf_at = next(sf for l, _, sf in pairs if l == crossover)
            parts.append(
                f'<circle cx="{sx(crossover):.1f}" '
                f'cy="{sy(sf_at):.1f}" r="4" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        label = f"{scen} eps={eps:g}"
        if crossover is not None:
            label += f" (x@{crossover})"
        parts.append(
            f'<line x1="{_ML + plot_w + 8}" y1="{legend_y - 4}" '
            f'x2="{_ML + plot_w + 28}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_ML + plot_w + 32}" y="{legend_y}" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )
        legend_y += 14
    parts.append(
        f'<text x="{_ML + plot_w + 8}" y="{legend_y + 4}" '
        f'font-family="monospace" font-size="10">solid=NF '
        f'dashed=SF o=crossover</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass
class PaperResult:
    """Outcome of one ``repro paper`` build."""

    out_dir: Path
    written: List[Path] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _write(path: Path, text: str, result: PaperResult) -> None:
    from repro.robust.atomicio import atomic_write_text

    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, text)
    result.written.append(path)


def generate_paper(
    db: Union[str, Path, HistoryStore],
    out_dir: Union[str, Path],
) -> PaperResult:
    """Render every registered table and figure from the history store.

    Error-isolated: a builder that raises contributes a
    ``(artifact, error)`` entry to ``result.failures`` and the build
    continues; a builder with no rows lands in ``result.skipped`` and
    writes nothing, keeping the output directory free of empty shells.
    """
    out = Path(out_dir)
    result = PaperResult(out_dir=out)
    own_store = not isinstance(db, HistoryStore)
    store = HistoryStore(db) if own_store else db
    try:
        sections: List[str] = [
            "# Reproduction report — DP histogram publication",
            "",
            "Rendered by `repro paper` from the run-history store; "
            "every number below is radar-gated (see "
            "docs/evaluation.md).",
            "",
        ]
        for name, build in _TABLE_BUILDERS.items():
            try:
                table = build(store)
                if not table.rows:
                    result.skipped.append(name)
                    continue
                _write(out / "tables" / f"{name}.md",
                       render_markdown(table), result)
                _write(out / "tables" / f"{name}.tex",
                       render_latex(table), result)
                sections.append(render_markdown(table))
            except Exception as exc:
                result.failures.append((f"table:{name}", repr(exc)))

        figure_lines: List[str] = []
        try:
            families = store.utility_families()
        except Exception as exc:
            families = []
            result.failures.append(("figures", repr(exc)))
        for family in families:
            try:
                curves = crossover_curves(store, family)
                if not curves:
                    result.skipped.append(f"figure:{family}")
                    continue
                rel = Path("figures") / f"crossover-{family}.svg"
                _write(out / rel, crossover_figure_svg(family, curves),
                       result)
                figure_lines.append(
                    f"![crossover {family}]({rel.as_posix()})"
                )
            except Exception as exc:
                result.failures.append((f"figure:{family}", repr(exc)))
        if figure_lines:
            sections.append("## Crossover figures")
            sections.append("")
            sections.extend(figure_lines)
            sections.append("")
        if result.skipped:
            sections.append(
                "_No data for: " + ", ".join(sorted(result.skipped))
                + "._"
            )
            sections.append("")
        if result.failures:
            sections.append("## Generation failures")
            sections.append("")
            for artifact, error in result.failures:
                sections.append(f"- `{artifact}`: {error}")
            sections.append("")
        _write(out / "paper.md", "\n".join(sections), result)
    finally:
        if own_store:
            store.close()
    return result
