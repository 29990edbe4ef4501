"""Experiment registry and artifact output tests."""

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.experiments import ARTIFACT_IDS, EXPERIMENTS, run_experiment


@pytest.fixture(scope="module")
def engine():
    return ExperimentEngine(EngineConfig(seed=0))


class TestRegistry:
    def test_every_paper_artifact_present(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "case45",
        }
        assert set(ARTIFACT_IDS) == expected

    def test_unknown_artifact_raises(self, engine):
        with pytest.raises(KeyError):
            run_experiment("table99", engine)

    def test_descriptions_nonempty(self):
        for _, (description, _) in EXPERIMENTS.items():
            assert description


class TestWorkloadArtifacts:
    def test_table2_rows(self, engine):
        result = run_experiment("table2", engine)
        assert "SDSS" in result.text
        rows = result.data["rows"]
        assert rows[0]["sampled"] == 285
        assert rows[0]["agg_yes"] == 21

    def test_fig1_histograms(self, engine):
        result = run_experiment("fig1", engine)
        assert set(result.data) == {
            "query_type", "word_count", "table_count",
            "predicate_count", "nestedness",
        }
        assert sum(result.data["word_count"].values()) == 285

    def test_fig4_strong_pairs(self, engine):
        result = run_experiment("fig4", engine)
        strong = dict()
        for a, b, v in result.data["sdss"]["strong"]:
            strong[(a, b)] = v
        assert ("char_count", "word_count") in strong

    def test_fig5_bimodal(self, engine):
        result = run_experiment("fig5", engine)
        hist = result.data["histogram"]
        assert hist["0-100"] > 200
        assert hist["500+"] >= 15
        assert hist["200-300"] + hist["300-400"] < 20

    def test_table1_static(self, engine):
        result = run_experiment("table1", engine)
        assert "Recognition" in result.text


class TestEvaluationArtifacts:
    def test_table3_has_paper_columns(self, engine):
        result = run_experiment("table3", engine)
        row = result.data["binary"][0]
        assert row["Model"] == "GPT4"
        assert "sdss.paper(P/R/F1)" in row
        assert row["sdss.paper(P/R/F1)"] == "0.98/0.95/0.97"

    def test_table6_gpt4_near_paper(self, engine):
        result = run_experiment("table6", engine)
        gpt4 = result.data["rows"][0]
        assert abs(gpt4["sdss.F1"] - 0.90) < 0.1  # paper: 0.90

    def test_fig6_breakdowns_present(self, engine):
        result = run_experiment("fig6", engine)
        assert "llama3" in result.data
        assert "FN" in result.data["llama3"]

    def test_fig7_shares(self, engine):
        result = run_experiment("fig7", engine)
        shares = result.data["shares"]
        assert "gemini/sdss" in shares

    def test_case45_summary(self, engine):
        result = run_experiment("case45", engine)
        rows = result.data["summary"]
        by_model = {row["Model"]: row["overlapF1"] for row in rows}
        assert by_model["GPT4"] > by_model["Gemini"]
