"""Evaluation framework: metrics, confusion analysis, cell results, reports.

It sits below the engine and imports nothing from it: the engine folds
every evaluated cell into a :class:`CellResult` from here, and the
experiments and the execution layer render its grids with these helpers.
"""

from repro.evalfw.accumulate import CellResult
from repro.evalfw.confusion import (
    FN,
    FP,
    OUTCOMES,
    TN,
    TP,
    group_by_outcome,
    outcome,
    outcome_of,
)
from repro.evalfw.failure_analysis import (
    OutcomeStats,
    PropertyBreakdown,
    TypeFailureProfile,
    property_breakdown,
    type_failure_profile,
)
from repro.evalfw.metrics import (
    BinaryMetrics,
    LocationMetrics,
    WeightedMetrics,
    binary_metrics,
    location_metrics,
    mean,
    median,
    weighted_metrics,
)
from repro.evalfw.report import (
    metrics_table,
    render_breakdown,
    render_histogram,
    render_matrix,
    render_table,
)

__all__ = [
    "binary_metrics",
    "weighted_metrics",
    "location_metrics",
    "BinaryMetrics",
    "WeightedMetrics",
    "LocationMetrics",
    "mean",
    "median",
    "outcome",
    "outcome_of",
    "group_by_outcome",
    "OUTCOMES",
    "TP",
    "TN",
    "FP",
    "FN",
    "property_breakdown",
    "type_failure_profile",
    "PropertyBreakdown",
    "OutcomeStats",
    "TypeFailureProfile",
    "CellResult",
    "metrics_table",
    "render_table",
    "render_histogram",
    "render_matrix",
    "render_breakdown",
]
