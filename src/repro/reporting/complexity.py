"""Accuracy-vs-complexity breakdowns for synthetic workload grids.

The synthetic family generates queries in named complexity strata
(``repro.workloads.synthetic``), and every :class:`TaskInstance` carries
its source query's measured properties — so a grid over a synthetic
workload supports two breakdowns the fixed paper workloads cannot:

* **per-stratum accuracy** — one row per generation stratum (recovered
  from the instance's source query id), one column per model: how does
  accuracy degrade as the generator dials up joins, nesting,
  aggregation, set operators or predicate width?
* **per-property scaling curves** — accuracy bucketed by a measured
  syntactic property (join_count, nestedness, predicate_count,
  word_count), the paper's Figures 6/8/11/12 axis generalised to
  arbitrarily scalable instance counts.

Both are pure functions of evaluated grids; ``repro report`` appends
them to a bundle's ``report.md`` whenever the recorded run touched a
synthetic workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.tasks.base import TaskInstance
from repro.workloads.synthetic import is_synthetic, stratum_of_query_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.evalfw.accumulate import CellResult
    from repro.reporting.html import GridMap

#: Properties charted as scaling curves, with their bucket edges.
PROPERTY_BUCKETS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("join_count", (0, 1, 2, 3)),
    ("nestedness", (0, 1, 2, 3)),
    ("predicate_count", (0, 2, 4, 7)),
    ("word_count", (0, 15, 30, 60)),
)


def _bucket_label(edges: Sequence[int], index: int) -> str:
    low = edges[index]
    if index + 1 < len(edges):
        high = edges[index + 1] - 1
        return str(low) if high == low else f"{low}-{high}"
    return f"{low}+"


def _bucket_index(edges: Sequence[int], value: float) -> int:
    for index in range(len(edges) - 1, -1, -1):
        if value >= edges[index]:
            return index
    return 0


def _accuracy(
    cell: "CellResult", selector: Callable[[TaskInstance], bool]
) -> Optional[tuple[float, int]]:
    """(accuracy, n) over the selected labeled instances, or None."""
    correct = total = 0
    for instance, answer in zip(cell.dataset.instances, cell.answers):
        if instance.label is None or not selector(instance):
            continue
        total += 1
        if answer.predicted is not None and bool(answer.predicted) == bool(
            instance.label
        ):
            correct += 1
    if total == 0:
        return None
    return correct / total, total


def _cells_by_model(
    grid: dict[tuple[str, str], "CellResult"], workload: str
) -> list[tuple[str, "CellResult"]]:
    """(model, cell) pairs for one workload, in grid insertion order."""
    return [
        (model, cell)
        for (model, cell_workload), cell in grid.items()
        if cell_workload == workload
    ]


def stratum_rows(
    grid: dict[tuple[str, str], "CellResult"], workload: str
) -> list[dict[str, object]]:
    """Per-stratum accuracy rows (stratum x models) for one cell group.

    Strata come back in first-seen dataset order, which matches the
    profile's declared sweep order; instances whose source query id does
    not carry a stratum (non-synthetic sources) are ignored.
    """
    cells = _cells_by_model(grid, workload)
    if not cells:
        return []
    strata: list[str] = []
    for instance in cells[0][1].dataset.instances:
        stratum = stratum_of_query_id(instance.source_query_id)
        if stratum is not None and stratum not in strata:
            strata.append(stratum)
    rows: list[dict[str, object]] = []
    for stratum in strata:
        row = _model_accuracy_row(
            {"stratum": stratum},
            cells,
            lambda i, s=stratum: stratum_of_query_id(i.source_query_id) == s,
        )
        if row is not None:
            rows.append(row)
    return rows


def _model_accuracy_row(
    head: dict[str, object],
    cells: list[tuple[str, "CellResult"]],
    selector: Callable[[TaskInstance], bool],
) -> Optional[dict[str, object]]:
    """``head`` + an ``n`` column + one accuracy column per model."""
    measurements = [
        (model, _accuracy(cell, selector)) for model, cell in cells
    ]
    present = [(m, acc) for m, acc in measurements if acc is not None]
    if not present:
        return None
    row = dict(head)
    row["n"] = present[0][1][1]
    for model, (accuracy, _) in present:
        row[model] = round(accuracy, 3)
    return row


def property_rows(
    grid: dict[tuple[str, str], "CellResult"],
    workload: str,
    property_name: str,
    edges: Sequence[int],
) -> list[dict[str, object]]:
    """Accuracy-by-property-bucket rows for one cell group."""
    cells = _cells_by_model(grid, workload)
    rows: list[dict[str, object]] = []
    for index in range(len(edges)):
        row = _model_accuracy_row(
            {property_name: _bucket_label(edges, index)},
            cells,
            lambda i, b=index: _bucket_index(edges, i.props.value(property_name))
            == b,
        )
        if row is not None:
            rows.append(row)
    return rows


def _markdown_table(rows: list[dict[str, object]]) -> list[str]:
    headers: list[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "---|" * len(headers),
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(str(row.get(h, "-")) for h in headers) + " |"
        )
    return lines


def synthetic_workloads(grids: "GridMap") -> list[str]:
    """Distinct synthetic workload names present in the grids, ordered."""
    seen: list[str] = []
    for grid in grids.values():
        for _, workload in grid:
            if is_synthetic(workload) and workload not in seen:
                seen.append(workload)
    return seen


def render_complexity_section(grids: "GridMap") -> list[str]:
    """The accuracy-vs-complexity Markdown section for a report bundle.

    Empty when no grid touches a synthetic workload, so paper-only run
    bundles are byte-identical with or without this renderer.
    """
    workloads = synthetic_workloads(grids)
    if not workloads:
        return []
    lines: list[str] = ["## Accuracy vs complexity (synthetic strata)", ""]
    for workload in workloads:
        for task, grid in grids.items():
            per_stratum = stratum_rows(grid, workload)
            if not per_stratum:
                continue
            lines.append(f"### `{task}` on `{workload}` — per stratum")
            lines.append("")
            lines += _markdown_table(per_stratum)
            lines.append("")
            for property_name, edges in PROPERTY_BUCKETS:
                curve = property_rows(grid, workload, property_name, edges)
                if len(curve) < 2:  # a flat sweep has no curve to show
                    continue
                lines.append(
                    f"#### `{task}` accuracy by `{property_name}`"
                )
                lines.append("")
                lines += _markdown_table(curve)
                lines.append("")
    return lines if len(lines) > 2 else []
