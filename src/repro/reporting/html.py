"""Self-contained HTML dashboard renderer.

Writes a dependency-free bundle (inline CSS, no JavaScript, no external
assets) under ``<out>/html/``: an ``index.html`` overview plus one page
per task.  Metric tables come from the :class:`RunRecord`; when the
evaluated grids are also supplied, task pages additionally show per-cell
confusion matrices and the failure-taxonomy breakdowns from
:mod:`repro.evalfw.failure_analysis` (FN share per injected error/token
type, word-count-vs-outcome stats).
"""

from __future__ import annotations

import html as html_escape_module
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.reporting.formatting import (
    format_location_pair,
    format_metric_triple,
    format_ref_triple,
    run_metadata_rows,
)
from repro.reporting.paper_refs import (
    PAPER_TABLE_LABELS,
    paper_binary,
    paper_location,
    paper_typed,
)
from repro.reporting.run_record import CellRecord, RunRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evalfw.accumulate import CellResult

#: ``{task: {(model, workload): CellResult}}`` — the optional live grids.
GridMap = dict[str, dict[tuple[str, str], "CellResult"]]

#: Which label taxonomy drives the FN-share table of each task.
_TAXONOMY_TASKS = ("syntax_error", "miss_token")

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 72rem;
       color: #1a1a2e; line-height: 1.45; padding: 0 1rem; }
h1, h2, h3 { color: #16213e; }
table { border-collapse: collapse; margin: 0.75rem 0 1.5rem; }
th, td { border: 1px solid #c9d1d9; padding: 0.3rem 0.65rem; text-align: right; }
th { background: #eef2f7; }
td:first-child, th:first-child { text-align: left; }
.nav a { margin-right: 1rem; }
.good { color: #1a7f37; }
.bad { color: #b42318; }
.muted { color: #667085; }
.confusion td.hit { background: #e6f4ea; }
.confusion td.miss { background: #fdecea; }
footer { margin-top: 2.5rem; font-size: 0.85rem; color: #667085; }
"""


def _esc(value: object) -> str:
    return html_escape_module.escape(str(value))


def _page(title: str, body: str, nav: str = "") -> str:
    return (
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>\n"
        f"<body><nav class=\"nav\">{nav}</nav>\n<h1>{_esc(title)}</h1>\n"
        f"{body}\n<footer>Generated by <code>repro report</code> — "
        "Evaluating SQL Understanding in Large Language Models (EDBT 2025) "
        "reproduction.</footer></body></html>\n"
    )


def _nav(record: RunRecord, current: Optional[str] = None) -> str:
    links = ["<a href=\"index.html\">overview</a>"]
    for task in record.tasks():
        if task == current:
            links.append(f"<strong>{_esc(task)}</strong>")
        else:
            links.append(f"<a href=\"task_{_esc(task)}.html\">{_esc(task)}</a>")
    return " ".join(links)


def _metadata_table(record: RunRecord) -> str:
    rows = [("run id", record.run_id), *run_metadata_rows(record)]
    body = "".join(
        f"<tr><td>{_esc(k)}</td><td>{_esc(v)}</td></tr>" for k, v in rows
    )
    return f"<table><tbody>{body}</tbody></table>"


def _delta_span(delta: Optional[float]) -> str:
    if delta is None:
        return "<td class=\"muted\">-</td>"
    css = "good" if delta >= 0 else "bad"
    return f"<td class=\"{css}\">{delta:+.2f}</td>"


def _overview_table(record: RunRecord) -> str:
    header = (
        "<tr><th>Task</th><th>Workload</th><th>Model</th><th>n</th>"
        "<th>P</th><th>R</th><th>F1</th><th>paper F1</th><th>ΔF1</th>"
        "<th>source</th></tr>"
    )
    rows = []
    for cell in record.cells:
        reference = paper_binary(cell.task, cell.model_display, cell.workload)
        f1 = cell.metrics.get("binary.f1")
        delta = (
            f1 - reference[2] if reference is not None and f1 is not None else None
        )
        paper_td = (
            f"<td>{reference[2]:.2f}</td>"
            if reference is not None
            else "<td class=\"muted\">-</td>"
        )
        precision = cell.metrics.get("binary.precision")
        recall = cell.metrics.get("binary.recall")
        rows.append(
            f"<tr><td>{_esc(cell.task)}</td><td>{_esc(cell.workload)}</td>"
            f"<td>{_esc(cell.model_display)}</td><td>{cell.instances}</td>"
            f"<td>{'-' if precision is None else f'{precision:.2f}'}</td>"
            f"<td>{'-' if recall is None else f'{recall:.2f}'}</td>"
            f"<td>{'-' if f1 is None else f'{f1:.2f}'}</td>"
            + paper_td
            + _delta_span(delta)
            + f"<td>{'cache' if cell.cached else 'computed'}</td></tr>"
        )
    return f"<table><thead>{header}</thead><tbody>{''.join(rows)}</tbody></table>"


def _task_metric_table(record: RunRecord, task: str) -> str:
    header = (
        "<tr><th>Model</th><th>Workload</th><th>n</th><th>ours P/R/F1</th>"
        "<th>paper P/R/F1</th><th>typed P/R/F1</th><th>paper typed</th>"
        "<th>MAE/HR</th><th>paper MAE/HR</th></tr>"
    )
    rows = []
    for cell in record.cells:
        if cell.task != task:
            continue
        reference = paper_binary(task, cell.model_display, cell.workload)
        typed_ref = paper_typed(task, cell.model_display, cell.workload)
        loc_ref = paper_location(task, cell.model_display, cell.workload)
        rows.append(
            f"<tr><td>{_esc(cell.model_display)}</td><td>{_esc(cell.workload)}</td>"
            f"<td>{cell.instances}</td><td>{format_metric_triple(cell, 'binary')}</td>"
            f"<td>{format_ref_triple(reference)}</td>"
            f"<td>{format_metric_triple(cell, 'typed')}</td>"
            f"<td>{format_ref_triple(typed_ref)}</td>"
            f"<td>{format_location_pair(cell)}</td>"
            f"<td>{format_ref_triple(loc_ref)}</td></tr>"
        )
    return f"<table><thead>{header}</thead><tbody>{''.join(rows)}</tbody></table>"


def _confusion_matrix(cell: CellRecord) -> str:
    c = cell.confusion
    if not c:
        return ""
    return (
        f"<h4>{_esc(cell.model_display)} on {_esc(cell.workload)}</h4>"
        "<table class=\"confusion\"><thead>"
        "<tr><th></th><th>pred +</th><th>pred −</th></tr></thead><tbody>"
        f"<tr><td>truth +</td><td class=\"hit\">{c.get('tp', 0)}</td>"
        f"<td class=\"miss\">{c.get('fn', 0)}</td></tr>"
        f"<tr><td>truth −</td><td class=\"miss\">{c.get('fp', 0)}</td>"
        f"<td class=\"hit\">{c.get('tn', 0)}</td></tr>"
        "</tbody></table>"
    )


def _taxonomy_section(
    task: str,
    grid: dict[tuple[str, str], "CellResult"],
    display_names: dict[str, str],
) -> str:
    """FN-share-by-type and word-count-vs-outcome tables for one task."""
    from repro.corrupt.missing_tokens import TOKEN_TYPES
    from repro.corrupt.syntax_errors import ERROR_TYPES
    from repro.evalfw.failure_analysis import (
        property_breakdown,
        type_failure_profile,
    )

    taxonomy = ERROR_TYPES if task == "syntax_error" else TOKEN_TYPES
    parts = ["<h3>Failure taxonomy — FN share by injected type</h3>"]
    header = "<tr><th>Model / workload</th>" + "".join(
        f"<th>{_esc(t)}</th>" for t in taxonomy
    ) + "<th>FN total</th></tr>"
    rows = []
    breakdown_parts = ["<h3>word_count per confusion cell</h3>"]
    for (model, workload), cell in sorted(grid.items()):
        label = display_names.get(model, model)
        profile = type_failure_profile(
            cell.dataset.instances, cell.answers, taxonomy
        )
        rows.append(
            f"<tr><td>{_esc(label)} / {_esc(workload)}</td>"
            + "".join(
                f"<td>{profile.fn_share.get(t, 0.0):.2f}</td>" for t in taxonomy
            )
            + f"<td>{profile.fn_total}</td></tr>"
        )
        breakdown = property_breakdown(
            cell.dataset.instances, cell.answers, "word_count"
        )
        cells = "".join(
            f"<td>{breakdown.cells[name].average:.1f} ({breakdown.cells[name].count})</td>"
            for name in ("TP", "TN", "FP", "FN")
        )
        breakdown_parts.append(
            f"<tr><td>{_esc(label)} / {_esc(workload)}</td>{cells}</tr>"
        )
    parts.append(
        f"<table><thead>{header}</thead><tbody>{''.join(rows)}</tbody></table>"
    )
    breakdown_header = (
        "<tr><th>Model / workload</th><th>TP avg (n)</th><th>TN avg (n)</th>"
        "<th>FP avg (n)</th><th>FN avg (n)</th></tr>"
    )
    parts.append(
        breakdown_parts[0]
        + f"<table><thead>{breakdown_header}</thead><tbody>"
        + "".join(breakdown_parts[1:])
        + "</tbody></table>"
    )
    return "".join(parts)


def _failures_table(record: RunRecord) -> str:
    verb = "skipped" if record.on_cell_error == "skip" else "degraded"
    header = (
        "<tr><th>Model</th><th>Task</th><th>Workload</th><th>Error</th>"
        "<th>Attempts</th><th>Message</th></tr>"
    )
    rows = []
    for failure in record.failures:
        message = failure.message
        if len(message) > 160:
            message = message[:157] + "..."
        rows.append(
            f"<tr><td>{_esc(failure.model)}</td><td>{_esc(failure.task)}</td>"
            f"<td>{_esc(failure.workload)}</td>"
            f"<td><code>{_esc(failure.error_class)}</code></td>"
            f"<td>{failure.attempts}</td><td>{_esc(message)}</td></tr>"
        )
    return (
        "<h2>Degraded cells</h2>"
        f"<p class=\"bad\">{len(record.failures)} cell(s) {verb} under "
        f"<code>--on-cell-error {_esc(record.on_cell_error)}</code> — these "
        "are explicit gaps in the tables above, not zeros.</p>"
        f"<table><thead>{header}</thead><tbody>{''.join(rows)}</tbody></table>"
    )


def write_html_dashboard(
    record: RunRecord,
    out_dir: Path,
    grids: Optional[GridMap] = None,
) -> list[Path]:
    """Write ``index.html`` + per-task pages; returns the written paths."""
    html_dir = Path(out_dir)
    html_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    body = (
        "<h2>Run</h2>"
        + _metadata_table(record)
        + (_failures_table(record) if record.failures else "")
        + "<h2>All cells</h2>"
        + _overview_table(record)
    )
    index = html_dir / "index.html"
    index.write_text(
        _page(f"Run {record.run_id}", body, _nav(record)), encoding="utf-8"
    )
    written.append(index)

    for task in record.tasks():
        label = PAPER_TABLE_LABELS.get(task, "")
        sections = [
            f"<p class=\"muted\">Paper reference: {_esc(label) or 'n/a'}.</p>",
            "<h2>Metrics</h2>",
            _task_metric_table(record, task),
        ]
        sections.append("<h2>Confusion matrices</h2>")
        for cell in record.cells:
            if cell.task == task:
                sections.append(_confusion_matrix(cell))
        grid = (grids or {}).get(task)
        if grid and task in _TAXONOMY_TASKS:
            display_names = {
                cell.model: cell.model_display for cell in record.cells
            }
            sections.append(_taxonomy_section(task, grid, display_names))
        page = html_dir / f"task_{task}.html"
        page.write_text(
            _page(f"Task {task}", "".join(sections), _nav(record, current=task)),
            encoding="utf-8",
        )
        written.append(page)
    return written
