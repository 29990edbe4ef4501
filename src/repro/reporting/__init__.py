"""Reporting layer: run records and multi-format report bundles.

Sits downstream of the engine: every grid evaluation can be persisted
as a :class:`RunRecord` (config fingerprint + per-cell metrics + timing
+ cache statistics) under ``results/runs/``, and any stored record can
be rendered — with zero model calls on a warm cache — into a report
bundle of paper-style Markdown tables, a self-contained HTML dashboard
and machine-readable JSON, or compared against another run to flag
metric regressions.

Entry points: ``repro report``, ``repro runs list|show`` (see
:mod:`repro.cli`), or programmatically:

* :func:`record_from_engine` / :class:`RunRecordStore` — persist runs;
* :func:`write_report_bundle` — Markdown + HTML + JSON bundle;
* :func:`compare_runs` — align two runs, flag regressions.
"""

from repro.reporting.bundle import (
    ReportBundle,
    report_json_payload,
    write_report_bundle,
)
from repro.reporting.compare import (
    DEFAULT_THRESHOLD,
    MetricDelta,
    RunComparison,
    compare_runs,
    render_comparison,
)
from repro.reporting.complexity import (
    property_rows,
    render_complexity_section,
    stratum_rows,
)
from repro.reporting.rewrite import family_rows, render_rewrite_section
from repro.reporting.html import write_html_dashboard
from repro.reporting.markdown import render_markdown_report
from repro.reporting.paper_refs import (
    PAPER_TABLE_LABELS,
    paper_binary,
    paper_f1_delta,
    paper_location,
    paper_typed,
)
from repro.reporting.run_record import (
    LOWER_IS_BETTER,
    RECORD_VERSION,
    CellRecord,
    RunRecord,
    RunRecordStore,
    cell_record_from_result,
    record_from_engine,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "LOWER_IS_BETTER",
    "PAPER_TABLE_LABELS",
    "RECORD_VERSION",
    "CellRecord",
    "MetricDelta",
    "ReportBundle",
    "RunComparison",
    "RunRecord",
    "RunRecordStore",
    "cell_record_from_result",
    "compare_runs",
    "paper_binary",
    "paper_f1_delta",
    "paper_location",
    "paper_typed",
    "property_rows",
    "record_from_engine",
    "family_rows",
    "render_comparison",
    "render_complexity_section",
    "render_markdown_report",
    "render_rewrite_section",
    "stratum_rows",
    "report_json_payload",
    "write_html_dashboard",
    "write_report_bundle",
]
