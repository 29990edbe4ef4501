"""Per-transform-family accuracy breakdowns for rewrite grids.

Rewrite-task instances carry their chain provenance in ``label_type``:
positives hold the "+"-joined catalog families of the applied chain,
negatives the counter-transform type.  That makes family accuracy a
pure function of an evaluated grid — one row per catalog family
(counting every positive whose chain touches the family), plus a
negatives row so lopsided verdicts are visible — rendered into the
report bundle whenever the run touched a ``synthetic:rewrite``
workload, exactly like the complexity section for synthetic strata.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.reporting.complexity import (
    _cells_by_model,
    _markdown_table,
    _model_accuracy_row,
)
from repro.tasks.base import REWRITE_TASKS, TaskInstance
from repro.workloads.synthetic import is_rewrite_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.evalfw.accumulate import CellResult
    from repro.reporting.html import GridMap


def instance_families(instance: TaskInstance) -> tuple[str, ...]:
    """The catalog families behind one rewrite instance.

    ``rewrite_equivalence`` positives carry the chain in ``label_type``
    (negatives carry the counter-transform type, so they report as no
    family); ``rewrite_speedup`` instances — all of which are built from
    equivalent chains — carry it as a ``families=`` token in ``detail``
    regardless of the speedup label.
    """
    if instance.label_type:
        if not instance.is_positive:
            return ()
        return tuple(instance.label_type.split("+"))
    for token in (instance.detail or "").split():
        if token.startswith("families="):
            return tuple(token[len("families=") :].split("+"))
    return ()


def family_rows(
    grid: dict[tuple[str, str], "CellResult"], workload: str
) -> list[dict[str, object]]:
    """Per-family accuracy rows (family x models) for one cell group.

    Families come back in first-seen dataset order; the final
    ``(negatives)`` row covers the counter-transform pairs, so a model
    that answers "equivalent" to everything scores visibly low there.
    """
    cells = _cells_by_model(grid, workload)
    if not cells:
        return []
    families: list[str] = []
    for instance in cells[0][1].dataset.instances:
        for family in instance_families(instance):
            if family not in families:
                families.append(family)
    rows: list[dict[str, object]] = []
    for family in families:
        row = _model_accuracy_row(
            {"family": family},
            cells,
            lambda i, f=family: f in instance_families(i),
        )
        if row is not None:
            rows.append(row)
    negatives = _model_accuracy_row(
        {"family": "(negatives)"},
        cells,
        lambda i: not i.is_positive,
    )
    if negatives is not None:
        rows.append(negatives)
    return rows


def rewrite_workloads(grids: "GridMap") -> list[str]:
    """Distinct rewrite workload names present in the grids, ordered."""
    seen: list[str] = []
    for grid in grids.values():
        for _, workload in grid:
            if is_rewrite_workload(workload) and workload not in seen:
                seen.append(workload)
    return seen


def render_rewrite_section(grids: "GridMap") -> list[str]:
    """The per-family accuracy Markdown section for a report bundle.

    Empty when no rewrite-task grid touches a rewrite workload, so every
    other bundle stays byte-identical with or without this renderer.
    """
    workloads = rewrite_workloads(grids)
    if not workloads:
        return []
    lines: list[str] = ["## Accuracy by rewrite family", ""]
    for workload in workloads:
        for task, grid in grids.items():
            if task not in REWRITE_TASKS:
                continue
            per_family = family_rows(grid, workload)
            if not per_family:
                continue
            lines.append(f"### `{task}` on `{workload}` — per family")
            lines.append("")
            lines += _markdown_table(per_family)
            lines.append("")
    return lines if len(lines) > 2 else []
