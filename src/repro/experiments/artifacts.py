"""One experiment function per paper artifact (tables 1-7, figures 1-12,
section 4.5 case study).

Every function takes an :class:`~repro.engine.ExperimentEngine` (so
datasets and workloads are shared and cached, and grid evaluation is
chunked across worker processes and served from the on-disk result
cache when its :class:`~repro.engine.EngineConfig` says so) and returns
an :class:`ExperimentResult` whose ``text`` prints the same rows/series
the paper reports, with paper reference values alongside where
available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.corrupt.missing_tokens import TOKEN_TYPES
from repro.corrupt.syntax_errors import ERROR_TYPES
from repro.engine.core import ExperimentEngine
from repro.evalfw.accumulate import CellResult
from repro.evalfw.failure_analysis import property_breakdown, type_failure_profile
from repro.evalfw.report import (
    metrics_table,
    render_breakdown,
    render_histogram,
    render_matrix,
    render_table,
)
from repro.experiments import paper_values as paper
from repro.llm.profiles import MODEL_PROFILES
from repro.tasks.explanation import explanation_overlap_f1
from repro.tasks.skills import render_skill_table
from repro.workloads import (
    CASE_STUDY_QUERIES,
    correlation_matrix,
    figure_histograms,
    workload_stats,
)
from repro.workloads.base import DISPLAY_NAMES, ORIGINAL_SIZES
from repro.workloads.statistics import Histogram


@dataclass
class ExperimentResult:
    """Output of one artifact reproduction."""

    artifact: str
    title: str
    text: str
    data: dict = field(default_factory=dict)


def _paper_triplet(reference, key) -> str:
    triple = reference.get(key)
    if triple is None:
        return "-"
    return "/".join(f"{value:.2f}" for value in triple)


def _grid_rows_with_paper(
    grid: dict[tuple[str, str], CellResult],
    kind: str,
    reference: dict[tuple[str, str], tuple],
) -> list[dict[str, object]]:
    rows = metrics_table(grid, kind)
    workloads = sorted({workload for _, workload in grid})
    for row in rows:
        display = str(row["Model"])
        for workload in workloads:
            row[f"{workload}.paper(P/R/F1)"] = _paper_triplet(
                reference, (display, workload)
            )
    return rows


# ---------------------------------------------------------------------------
# Table 1 and workload statistics (Table 2, Figures 1-5)
# ---------------------------------------------------------------------------


def table1_skill_map(engine: ExperimentEngine) -> ExperimentResult:
    rows = render_skill_table()
    return ExperimentResult(
        artifact="table1",
        title="Table 1: skill-to-SQL-task mapping",
        text=render_table(rows, "Table 1: Skill-to-SQL task mapping"),
        data={"rows": rows},
    )


def table2_workload_stats(engine: ExperimentEngine) -> ExperimentResult:
    rows = []
    for name in ("sdss", "sqlshare", "join_order", "spider"):
        stats = workload_stats(engine.workload(name))
        row = stats.as_row()
        row["original"] = ORIGINAL_SIZES[name]
        reference = paper.PAPER_TABLE2.get(DISPLAY_NAMES[name], {})
        row["paper.agg_yes"] = reference.get("agg_yes", "-")
        rows.append(row)
    return ExperimentResult(
        artifact="table2",
        title="Table 2: workload statistics overview",
        text=render_table(rows, "Table 2: Workload statistics overview"),
        data={"rows": rows},
    )


def _figure_stats(engine: ExperimentEngine, name: str, artifact: str) -> ExperimentResult:
    workload = engine.workload(name)
    histograms = figure_histograms(workload)
    blocks = [
        render_histogram(hist, f"{DISPLAY_NAMES[name]} {prop}")
        for prop, hist in histograms.items()
    ]
    return ExperimentResult(
        artifact=artifact,
        title=f"{artifact}: {DISPLAY_NAMES[name]} statistics",
        text="\n\n".join(blocks),
        data={prop: hist.as_dict() for prop, hist in histograms.items()},
    )


def fig1_sdss_stats(engine: ExperimentEngine) -> ExperimentResult:
    return _figure_stats(engine, "sdss", "fig1")


def fig2_sqlshare_stats(engine: ExperimentEngine) -> ExperimentResult:
    return _figure_stats(engine, "sqlshare", "fig2")


def fig3_joinorder_stats(engine: ExperimentEngine) -> ExperimentResult:
    return _figure_stats(engine, "join_order", "fig3")


def fig4_correlations(engine: ExperimentEngine) -> ExperimentResult:
    blocks = []
    data = {}
    for name in ("sdss", "sqlshare", "join_order"):
        matrix = correlation_matrix(engine.workload(name))
        blocks.append(
            render_matrix(matrix, f"Figure 4 ({DISPLAY_NAMES[name]}): Pearson correlations")
        )
        strong = matrix.strong_pairs(0.7)
        blocks.append(
            "strong pairs (|r| >= 0.7): "
            + (
                ", ".join(f"{a}~{b}: {v:.2f}" for a, b, v in strong)
                or "(none)"
            )
        )
        data[name] = {"matrix": matrix.values, "strong": strong}
    return ExperimentResult(
        artifact="fig4",
        title="Figure 4: pairwise property correlations",
        text="\n\n".join(blocks),
        data=data,
    )


def fig5_elapsed_time(engine: ExperimentEngine) -> ExperimentResult:
    workload = engine.workload("sdss")
    buckets = [
        ("0-100", 0, 100),
        ("100-200", 100, 200),
        ("200-300", 200, 300),
        ("300-400", 300, 400),
        ("400-500", 400, 500),
        ("500+", 500, math.inf),
    ]
    counts = {label: 0 for label, _, _ in buckets}
    for query in workload:
        for label, low, high in buckets:
            if low <= query.elapsed_ms < high:
                counts[label] += 1
                break
    hist = Histogram(
        property_name="elapsed_ms",
        labels=[label for label, _, _ in buckets],
        counts=[counts[label] for label, _, _ in buckets],
    )
    text = render_histogram(hist, "Figure 5: elapsed time of sampled SDSS queries (ms)")
    text += "\npaper:      " + "  ".join(
        f"{k}={v}" for k, v in paper.PAPER_FIG5.items()
    )
    return ExperimentResult(
        artifact="fig5",
        title="Figure 5: SDSS elapsed-time distribution",
        text=text,
        data={"histogram": hist.as_dict(), "paper": paper.PAPER_FIG5},
    )


# ---------------------------------------------------------------------------
# Model evaluation tables (3-7)
# ---------------------------------------------------------------------------


def table3_syntax_error(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("syntax_error")
    binary_rows = _grid_rows_with_paper(grid, "binary", paper.PAPER_TABLE3_BINARY)
    typed_rows = _grid_rows_with_paper(grid, "typed", paper.PAPER_TABLE3_TYPED)
    text = (
        render_table(binary_rows, "Table 3 (top): syntax_error")
        + "\n\n"
        + render_table(typed_rows, "Table 3 (bottom): syntax_error_type")
    )
    return ExperimentResult(
        artifact="table3",
        title="Table 3: syntax error detection",
        text=text,
        data={"binary": binary_rows, "typed": typed_rows, "grid": grid},
    )


def fig6_syntax_wordcount(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("syntax_error", workloads=("sdss",))
    blocks = []
    data = {}
    for model in ("llama3", "gemini"):
        cell = grid[(model, "sdss")]
        breakdown = property_breakdown(
            cell.dataset.instances, cell.answers, "word_count"
        )
        blocks.append(
            render_breakdown(
                breakdown,
                f"Figure 6: word_count vs outcome — {cell.model} on SDSS",
            )
        )
        data[model] = {
            cell_name: (stats.average, stats.median, stats.count)
            for cell_name, stats in breakdown.cells.items()
        }
    return ExperimentResult(
        artifact="fig6",
        title="Figure 6: word_count and syntax_error failures",
        text="\n\n".join(blocks),
        data=data,
    )


def fig7_syntax_type_fn(engine: ExperimentEngine) -> ExperimentResult:
    blocks = []
    shares: dict[str, dict[str, float]] = {}
    miss_rates: dict[str, dict[str, float]] = {}
    for workload in ("sdss", "sqlshare", "join_order"):
        grid = engine.run_task("syntax_error", workloads=(workload,))
        rows = []
        for profile in MODEL_PROFILES:
            cell = grid[(profile.name, workload)]
            failure = type_failure_profile(
                cell.dataset.instances, cell.answers, ERROR_TYPES
            )
            row = {"Model": profile.display_name}
            row.update(failure.fn_share)
            rows.append(row)
            key = f"{profile.name}/{workload}"
            shares[key] = failure.fn_share
            miss_rates[key] = failure.miss_rate
        blocks.append(
            render_table(
                rows, f"Figure 7 ({DISPLAY_NAMES[workload]}): FN share by error type"
            )
        )
    return ExperimentResult(
        artifact="fig7",
        title="Figure 7: FN composition by syntax-error type",
        text="\n\n".join(blocks),
        data={"shares": shares, "miss_rates": miss_rates},
    )


def table4_miss_token(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("miss_token")
    binary_rows = _grid_rows_with_paper(grid, "binary", paper.PAPER_TABLE4_BINARY)
    typed_rows = _grid_rows_with_paper(grid, "typed", paper.PAPER_TABLE4_TYPED)
    text = (
        render_table(binary_rows, "Table 4 (top): miss_token")
        + "\n\n"
        + render_table(typed_rows, "Table 4 (bottom): miss_token_type")
    )
    return ExperimentResult(
        artifact="table4",
        title="Table 4: missing token detection",
        text=text,
        data={"binary": binary_rows, "typed": typed_rows, "grid": grid},
    )


def fig8_miss_token_failures(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("miss_token", workloads=("sqlshare",))
    panels = (
        ("gpt35", "word_count"),
        ("gemini", "predicate_count"),
        ("gemini", "nestedness"),
        ("mistral", "table_count"),
    )
    blocks = []
    data = {}
    for model, prop in panels:
        cell = grid[(model, "sqlshare")]
        breakdown = property_breakdown(cell.dataset.instances, cell.answers, prop)
        blocks.append(
            render_breakdown(
                breakdown, f"Figure 8: {prop} vs outcome — {model} on SQLShare"
            )
        )
        data[f"{model}/{prop}"] = {
            cell_name: (stats.average, stats.count)
            for cell_name, stats in breakdown.cells.items()
        }
    return ExperimentResult(
        artifact="fig8",
        title="Figure 8: miss_token failures vs syntactic properties",
        text="\n\n".join(blocks),
        data=data,
    )


def fig9_token_type_fn(engine: ExperimentEngine) -> ExperimentResult:
    blocks = []
    data = {}
    for workload in ("sdss", "sqlshare", "join_order"):
        grid = engine.run_task("miss_token", workloads=(workload,))
        rows = []
        for profile in MODEL_PROFILES:
            cell = grid[(profile.name, workload)]
            failure = type_failure_profile(
                cell.dataset.instances, cell.answers, TOKEN_TYPES
            )
            row = {"Model": profile.display_name}
            row.update(failure.fn_share)
            rows.append(row)
            data[f"{profile.name}/{workload}"] = failure.fn_share
        blocks.append(
            render_table(
                rows,
                f"Figure 9 ({DISPLAY_NAMES[workload]}): FN share by token type",
            )
        )
    return ExperimentResult(
        artifact="fig9",
        title="Figure 9: FN composition by missing-token type",
        text="\n\n".join(blocks),
        data={"shares": data},
    )


def table5_token_loc(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("miss_token")
    rows = metrics_table(grid, "location")
    for row in rows:
        display = str(row["Model"])
        for workload in ("sdss", "sqlshare", "join_order"):
            reference = paper.PAPER_TABLE5_LOCATION.get((display, workload))
            row[f"{workload}.paper(MAE/HR)"] = (
                f"{reference[0]:.2f}/{reference[1]:.2f}" if reference else "-"
            )
    return ExperimentResult(
        artifact="table5",
        title="Table 5: missing-token location (MAE / hit rate)",
        text=render_table(rows, "Table 5: miss_token_loc"),
        data={"rows": rows, "grid": grid},
    )


def table6_performance(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("performance_pred")
    rows = metrics_table(grid, "binary")
    for row in rows:
        reference = paper.PAPER_TABLE6.get(str(row["Model"]))
        row["paper(P/R/F1)"] = (
            "/".join(f"{v:.2f}" for v in reference) if reference else "-"
        )
    return ExperimentResult(
        artifact="table6",
        title="Table 6: query performance prediction",
        text=render_table(rows, "Table 6: performance_pred (SDSS)"),
        data={"rows": rows, "grid": grid},
    )


def fig10_perf_failures(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("performance_pred")
    cell = grid[("mistral", "sdss")]
    blocks = []
    data = {}
    for prop in ("word_count", "column_count"):
        breakdown = property_breakdown(cell.dataset.instances, cell.answers, prop)
        blocks.append(
            render_breakdown(
                breakdown, f"Figure 10: {prop} vs outcome — MistralAI performance_pred"
            )
        )
        data[prop] = {
            cell_name: (stats.average, stats.count)
            for cell_name, stats in breakdown.cells.items()
        }
    return ExperimentResult(
        artifact="fig10",
        title="Figure 10: MistralAI performance_pred failures",
        text="\n\n".join(blocks),
        data=data,
    )


def table7_query_equiv(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("query_equiv")
    binary_rows = _grid_rows_with_paper(grid, "binary", paper.PAPER_TABLE7_BINARY)
    typed_rows = _grid_rows_with_paper(grid, "typed", paper.PAPER_TABLE7_TYPED)
    text = (
        render_table(binary_rows, "Table 7 (top): query_equiv")
        + "\n\n"
        + render_table(typed_rows, "Table 7 (bottom): query_equiv_type")
    )
    return ExperimentResult(
        artifact="table7",
        title="Table 7: query equivalence",
        text=text,
        data={"binary": binary_rows, "typed": typed_rows, "grid": grid},
    )


def fig11_equiv_wordcount(engine: ExperimentEngine) -> ExperimentResult:
    panels = (("gpt35", "sdss"), ("llama3", "join_order"))
    blocks = []
    data = {}
    for model, workload in panels:
        grid = engine.run_task("query_equiv", workloads=(workload,))
        cell = grid[(model, workload)]
        breakdown = property_breakdown(
            cell.dataset.instances, cell.answers, "word_count"
        )
        blocks.append(
            render_breakdown(
                breakdown,
                f"Figure 11: word_count vs outcome — {model} on {DISPLAY_NAMES[workload]}",
            )
        )
        data[f"{model}/{workload}"] = {
            cell_name: (stats.average, stats.count)
            for cell_name, stats in breakdown.cells.items()
        }
    return ExperimentResult(
        artifact="fig11",
        title="Figure 11: word_count and query_equiv failures",
        text="\n\n".join(blocks),
        data=data,
    )


def fig12_equiv_predicates(engine: ExperimentEngine) -> ExperimentResult:
    panels = (("gemini", "sdss"), ("mistral", "join_order"))
    blocks = []
    data = {}
    for model, workload in panels:
        grid = engine.run_task("query_equiv", workloads=(workload,))
        cell = grid[(model, workload)]
        breakdown = property_breakdown(
            cell.dataset.instances, cell.answers, "predicate_count"
        )
        blocks.append(
            render_breakdown(
                breakdown,
                f"Figure 12: predicate_count vs outcome — {model} on "
                f"{DISPLAY_NAMES[workload]}",
            )
        )
        data[f"{model}/{workload}"] = {
            cell_name: (stats.average, stats.count)
            for cell_name, stats in breakdown.cells.items()
        }
    return ExperimentResult(
        artifact="fig12",
        title="Figure 12: predicate_count and query_equiv failures",
        text="\n\n".join(blocks),
        data=data,
    )


# ---------------------------------------------------------------------------
# Section 4.5 case study
# ---------------------------------------------------------------------------


def case_query_explanation(engine: ExperimentEngine) -> ExperimentResult:
    grid = engine.run_task("query_exp")
    blocks = []
    summary_rows = []
    data: dict[str, object] = {}
    # Aggregate explanation fidelity per model.
    for profile in MODEL_PROFILES:
        cell = grid[(profile.name, "spider")]
        scores = [
            explanation_overlap_f1(instance.gold_text, answer.explanation)
            for instance, answer in zip(cell.dataset.instances, cell.answers)
        ]
        flawed = sum(1 for answer in cell.answers if answer.flaws)
        summary_rows.append(
            {
                "Model": profile.display_name,
                "overlapF1": round(sum(scores) / len(scores), 3),
                "flawed%": round(100 * flawed / len(cell.answers), 1),
            }
        )
    blocks.append(
        render_table(summary_rows, "query_exp: explanation fidelity per model")
    )
    # The Q15-Q18 case study, verbatim queries.
    case_texts = {sql for _, sql, _ in CASE_STUDY_QUERIES}
    case_blocks = []
    for profile in MODEL_PROFILES:
        cell = grid[(profile.name, "spider")]
        for instance, answer in zip(cell.dataset.instances, cell.answers):
            if instance.payload["query"] in case_texts and answer.flaws:
                case_blocks.append(
                    f"[{profile.display_name}] {instance.payload['query'][:70]}...\n"
                    f"  gold : {instance.gold_text}\n"
                    f"  model: {answer.explanation}\n"
                    f"  flaws: {', '.join(answer.flaws)}"
                )
    if case_blocks:
        blocks.append("Section 4.5 case-study failures:\n" + "\n\n".join(case_blocks))
    data["summary"] = summary_rows
    return ExperimentResult(
        artifact="case45",
        title="Section 4.5: query explanation case study",
        text="\n\n".join(blocks),
        data=data,
    )
