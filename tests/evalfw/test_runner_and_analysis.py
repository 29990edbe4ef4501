"""End-to-end engine tests and the paper's headline invariants."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine import EngineConfig, ExperimentEngine
from repro.evalfw import (
    FN,
    TP,
    group_by_outcome,
    metrics_table,
    outcome,
    property_breakdown,
    type_failure_profile,
)
from repro.llm.profiles import MODEL_PROFILES


@pytest.fixture(scope="module")
def engine():
    return ExperimentEngine(EngineConfig(seed=0))


@pytest.fixture(scope="module")
def syntax_grid(engine):
    return engine.run_task("syntax_error")


@pytest.fixture(scope="module")
def perf_grid(engine):
    return engine.run_task("performance_pred")


class TestOutcomes:
    def test_outcome_mapping(self):
        assert outcome(True, True) == "TP"
        assert outcome(True, False) == "FN"
        assert outcome(False, True) == "FP"
        assert outcome(False, False) == "TN"
        assert outcome(True, None) == "FN"
        assert outcome(False, None) == "FP"  # unextractable = wrong

    def test_group_by_outcome_partitions(self, syntax_grid):
        cell = syntax_grid[("gpt4", "sdss")]
        groups = group_by_outcome(cell.dataset.instances, cell.answers)
        total = sum(len(members) for members in groups.values())
        assert total == len(cell.dataset)


class TestHeadlineInvariants:
    """The paper's top-line findings must hold in the reproduction."""

    def test_gpt4_best_f1_everywhere(self, syntax_grid):
        for workload in ("sdss", "sqlshare", "join_order"):
            scores = {
                model.name: syntax_grid[(model.name, workload)].binary.f1
                for model in MODEL_PROFILES
            }
            assert scores["gpt4"] == max(scores.values()), (workload, scores)

    def test_precision_geq_recall_for_detection(self, syntax_grid):
        """Models are conservative error detectors (section 4.1)."""
        holds = 0
        total = 0
        for (model, workload), cell in syntax_grid.items():
            metrics = cell.binary
            total += 1
            if metrics.precision >= metrics.recall - 0.02:
                holds += 1
        assert holds / total >= 0.85

    def test_recall_geq_precision_for_performance(self, perf_grid):
        """Positive bias in runtime prediction (section 4.3)."""
        holds = sum(
            1
            for cell in perf_grid.values()
            if cell.binary.recall >= cell.binary.precision - 0.02
        )
        assert holds >= 4  # at least 4 of 5 models

    def test_mistral_low_precision_high_recall_perf(self, perf_grid):
        metrics = perf_grid[("mistral", "sdss")].binary
        assert metrics.recall > 0.8
        assert metrics.precision < 0.6  # paper: 0.47

    def test_type_task_harder_than_binary(self, engine, syntax_grid):
        """Multi-class F1 <= binary F1 for nearly every cell (section 4.1)."""
        wins = 0
        total = 0
        for cell in syntax_grid.values():
            total += 1
            if cell.typed.f1 <= cell.binary.f1 + 0.03:
                wins += 1
        assert wins / total >= 0.9

    def test_gemini_struggles_on_sqlshare_syntax(self, syntax_grid):
        gemini = syntax_grid[("gemini", "sqlshare")].binary
        gpt4 = syntax_grid[("gpt4", "sqlshare")].binary
        assert gemini.recall < 0.65  # paper: 0.53
        assert gpt4.recall - gemini.recall > 0.3


class TestFailureAnalysis:
    def test_word_count_breakdown_shape(self, syntax_grid):
        """Figure 6: FN queries are longer than TP queries for weak models."""
        cell = syntax_grid[("llama3", "sdss")]
        breakdown = property_breakdown(
            cell.dataset.instances, cell.answers, "word_count"
        )
        assert breakdown.cells[TP].count > 0
        assert breakdown.cells[FN].count > 0
        assert breakdown.positives_trend() > 0  # FN avg > TP avg

    def test_breakdown_counts_sum(self, syntax_grid):
        cell = syntax_grid[("gemini", "sdss")]
        breakdown = property_breakdown(
            cell.dataset.instances, cell.answers, "word_count"
        )
        total = sum(stats.count for stats in breakdown.cells.values())
        assert total == len(cell.dataset)

    def test_fn_composition_sdss_mismatches_dominate(self, syntax_grid):
        """Figure 7a: type mismatches are the hardest SDSS error types."""
        from repro.corrupt import ERROR_TYPES

        cell = syntax_grid[("gpt35", "sdss")]
        profile = type_failure_profile(
            cell.dataset.instances, cell.answers, ERROR_TYPES
        )
        mismatch_rate = (
            profile.miss_rate["nested-mismatch"]
            + profile.miss_rate["condition-mismatch"]
        )
        easy_rate = profile.miss_rate["aggr-attr"] + profile.miss_rate["aggr-having"]
        assert mismatch_rate > easy_rate

    def test_fn_share_sums_to_one(self, syntax_grid):
        from repro.corrupt import ERROR_TYPES

        cell = syntax_grid[("gemini", "sdss")]
        profile = type_failure_profile(
            cell.dataset.instances, cell.answers, ERROR_TYPES
        )
        if profile.fn_total:
            assert sum(profile.fn_share.values()) == pytest.approx(1.0, abs=0.01)


class TestRunnerMechanics:
    def test_dataset_caching(self, engine):
        first = engine.dataset("syntax_error", "sdss")
        second = engine.dataset("syntax_error", "sdss")
        assert first is second

    def test_cell_answers_align(self, syntax_grid):
        for cell in syntax_grid.values():
            assert len(cell.answers) == len(cell.dataset)

    def test_metrics_table_rows(self, syntax_grid):
        rows = metrics_table(syntax_grid, "binary")
        assert len(rows) == 5
        assert rows[0]["Model"] == "GPT4"
        assert "sdss.F1" in rows[0]

    def test_metrics_table_unknown_kind(self, syntax_grid):
        with pytest.raises(ValueError):
            metrics_table(syntax_grid, "exotic")

    def test_reproducible_across_runners(self):
        first = ExperimentEngine(EngineConfig(seed=3, max_instances=40))
        second = ExperimentEngine(EngineConfig(seed=3, max_instances=40))
        cell_a = first.run_cell("gpt4", "syntax_error", "sdss")
        cell_b = second.run_cell("gpt4", "syntax_error", "sdss")
        assert [a.predicted for a in cell_a.answers] == [
            b.predicted for b in cell_b.answers
        ]


class TestLayering:
    def test_evalfw_does_not_import_the_engine(self):
        """evalfw sits below the engine: importing it loads no engine code."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        check = "import sys, repro.evalfw; assert 'repro.engine.core' not in sys.modules"
        subprocess.run([sys.executable, "-c", check], env=env, check=True)
