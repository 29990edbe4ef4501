"""ASCII rendering of tables, histograms and matrices.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers format them for terminals and text logs,
and :func:`metrics_table` flattens an evaluated grid into such rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.llm.profiles import MODEL_PROFILES
from repro.workloads.statistics import CorrelationMatrix, Histogram

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.evalfw.accumulate import CellResult


def render_table(rows: Sequence[dict[str, object]], title: str = "") -> str:
    """Render dict-rows as an aligned ASCII table.

    Headers are the union of the keys of *all* rows (first-seen order),
    so a column that only appears in a later row is still rendered —
    earlier rows show it blank.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    headers: list[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    table: list[list[str]] = [headers]
    for row in rows:
        table.append([_fmt(row.get(header, "")) for header in headers])
    widths = [
        max(len(line[col]) for line in table) for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(table[0], widths)))
    lines.append(separator)
    for line in table[1:]:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(line, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_histogram(hist: Histogram, title: str = "", width: int = 40) -> str:
    """Render a histogram as labeled ASCII bars."""
    lines = [title or hist.property_name]
    peak = max(hist.counts) if hist.counts else 1
    label_width = max((len(label) for label in hist.labels), default=4)
    for label, count in zip(hist.labels, hist.counts):
        bar = "#" * max(1 if count else 0, round(count / max(peak, 1) * width))
        lines.append(f"  {label.rjust(label_width)} | {str(count).rjust(4)} {bar}")
    return "\n".join(lines)


def render_matrix(matrix: CorrelationMatrix, title: str = "") -> str:
    """Render a correlation matrix with short property headers."""
    short = [name.replace("_count", "").replace("_level", "") for name in matrix.properties]
    width = max(len(name) for name in short) + 1
    lines = []
    if title:
        lines.append(title)
    lines.append(" " * width + " ".join(name.rjust(6) for name in short))
    for name, row in zip(short, matrix.values):
        cells = " ".join(f"{value:6.2f}" for value in row)
        lines.append(f"{name.rjust(width)}{cells}")
    return "\n".join(lines)


def render_breakdown(breakdown, title: str = "") -> str:
    """Render a property-vs-outcome breakdown (Figure 6/8/10-12 style)."""
    lines = [title or breakdown.property_name]
    lines.append("  cell |    n |    avg | median")
    lines.append("  -----+------+--------+-------")
    for cell_name in ("TP", "TN", "FP", "FN"):
        stats = breakdown.cells[cell_name]
        lines.append(
            f"  {cell_name.rjust(4)} | {str(stats.count).rjust(4)} | "
            f"{stats.average:6.2f} | {stats.median:6.2f}"
        )
    return "\n".join(lines)


def metrics_table(
    grid: dict[tuple[str, str], "CellResult"],
    kind: str = "binary",
) -> list[dict[str, object]]:
    """Flatten a grid into printable rows (model x workload metrics).

    ``kind`` selects ``binary`` (P/R/F1), ``typed`` (weighted P/R/F1) or
    ``location`` (MAE / hit rate).
    """
    rows: list[dict[str, object]] = []
    by_model: dict[str, dict[str, "CellResult"]] = {}
    for (model, workload), cell in grid.items():
        by_model.setdefault(model, {})[workload] = cell
    for profile in MODEL_PROFILES:
        if profile.name not in by_model:
            continue
        row: dict[str, object] = {"Model": profile.display_name}
        for workload, cell in by_model[profile.name].items():
            if kind in ("binary", "typed"):
                metrics = cell.binary if kind == "binary" else cell.typed
                row[f"{workload}.Prec"] = metrics.precision
                row[f"{workload}.Rec"] = metrics.recall
                row[f"{workload}.F1"] = metrics.f1
            elif kind == "location":
                metrics = cell.location
                row[f"{workload}.MAE"] = metrics.mae
                row[f"{workload}.HR"] = metrics.hit_rate
            else:
                raise ValueError(f"unknown metrics kind {kind!r}")
        rows.append(row)
    return rows
