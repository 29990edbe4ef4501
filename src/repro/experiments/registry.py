"""Registry mapping artifact ids to experiment functions.

Every experiment function takes an :class:`~repro.engine.ExperimentEngine`,
so the whole paper grid inherits one engine configuration — pass
``ExperimentEngine(EngineConfig(workers=N, cache_dir=...))`` and all
tables/figures evaluate through the work queue and the result cache.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.core import ExperimentEngine
from repro.experiments import artifacts
from repro.experiments.artifacts import ExperimentResult

#: artifact id -> (description, function).
EXPERIMENTS: dict[str, tuple[str, Callable[[ExperimentEngine], ExperimentResult]]] = {
    "table1": ("Skill-to-task mapping", artifacts.table1_skill_map),
    "table2": ("Workload statistics overview", artifacts.table2_workload_stats),
    "fig1": ("SDSS statistics histograms", artifacts.fig1_sdss_stats),
    "fig2": ("SQLShare statistics histograms", artifacts.fig2_sqlshare_stats),
    "fig3": ("Join-Order statistics histograms", artifacts.fig3_joinorder_stats),
    "fig4": ("Pairwise property correlations", artifacts.fig4_correlations),
    "fig5": ("SDSS elapsed-time distribution", artifacts.fig5_elapsed_time),
    "table3": ("syntax_error accuracy", artifacts.table3_syntax_error),
    "fig6": ("word_count vs syntax_error failures", artifacts.fig6_syntax_wordcount),
    "fig7": ("FN share by syntax-error type", artifacts.fig7_syntax_type_fn),
    "table4": ("miss_token accuracy", artifacts.table4_miss_token),
    "fig8": ("miss_token failures vs properties", artifacts.fig8_miss_token_failures),
    "fig9": ("FN share by missing-token type", artifacts.fig9_token_type_fn),
    "table5": ("miss_token_loc MAE and hit rate", artifacts.table5_token_loc),
    "table6": ("performance_pred accuracy", artifacts.table6_performance),
    "fig10": ("MistralAI performance_pred failures", artifacts.fig10_perf_failures),
    "table7": ("query_equiv accuracy", artifacts.table7_query_equiv),
    "fig11": ("word_count vs query_equiv failures", artifacts.fig11_equiv_wordcount),
    "fig12": (
        "predicate_count vs query_equiv failures",
        artifacts.fig12_equiv_predicates,
    ),
    "case45": ("Query-explanation case study", artifacts.case_query_explanation),
}

ARTIFACT_IDS: tuple[str, ...] = tuple(EXPERIMENTS)

#: Artifacts that read every cell's (instance, answer) pairs.  A
#: streamed cell (``--chunk-size``) keeps only metric counts, so these
#: run on the materialised path only.
PER_INSTANCE_ARTIFACTS: frozenset[str] = frozenset(
    {"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "case45"}
)


def run_experiment(artifact: str, engine: ExperimentEngine) -> ExperimentResult:
    """Run one artifact reproduction on the caller's engine."""
    try:
        _, function = EXPERIMENTS[artifact]
    except KeyError:
        raise KeyError(
            f"unknown artifact {artifact!r}; expected one of {sorted(EXPERIMENTS)}"
        ) from None
    return function(engine)
