"""Accuracy-vs-complexity breakdown: rows, rendering, bundle wiring."""

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.reporting.complexity import (
    property_rows,
    render_complexity_section,
    stratum_rows,
    synthetic_workloads,
)

WORKLOAD = "synthetic:default:n=4"


@pytest.fixture(scope="module")
def grids():
    engine = ExperimentEngine(EngineConfig(max_instances=30))
    try:
        cell = engine.run_cell("gpt4", "syntax_error", WORKLOAD)
        other = engine.run_cell("gemini", "syntax_error", WORKLOAD)
    finally:
        engine.close()
    return {"syntax_error": {("gpt4", WORKLOAD): cell, ("gemini", WORKLOAD): other}}


class TestRows:
    def test_stratum_rows_cover_dataset_strata_in_order(self, grids):
        rows = stratum_rows(grids["syntax_error"], WORKLOAD)
        assert rows, "expected at least one stratum row"
        strata = [row["stratum"] for row in rows]
        assert strata == sorted(set(strata), key=strata.index)
        for row in rows:
            assert 0.0 <= row["gpt4"] <= 1.0
            assert 0.0 <= row["gemini"] <= 1.0
            assert row["n"] > 0

    def test_property_rows_bucket_all_instances(self, grids):
        rows = property_rows(
            grids["syntax_error"], WORKLOAD, "join_count", (0, 1, 2, 3)
        )
        assert rows
        total = sum(row["n"] for row in rows)
        cell = grids["syntax_error"][("gpt4", WORKLOAD)]
        assert total == len(cell.dataset.instances)

    def test_rows_empty_for_unknown_workload(self, grids):
        assert stratum_rows(grids["syntax_error"], "sdss") == []


class TestRendering:
    def test_section_lists_stratum_table(self, grids):
        lines = render_complexity_section(grids)
        text = "\n".join(lines)
        assert "## Accuracy vs complexity" in text
        assert f"`syntax_error` on `{WORKLOAD}`" in text
        assert "| stratum | n | gpt4 | gemini |" in text
        assert "accuracy by `join_count`" in text

    def test_section_empty_without_synthetic_workloads(self, grids):
        cellmap = grids["syntax_error"]
        relabeled = {
            ("gpt4", "sdss"): cellmap[("gpt4", WORKLOAD)],
        }
        assert render_complexity_section({"syntax_error": relabeled}) == []
        assert synthetic_workloads({"syntax_error": relabeled}) == []


class TestBundleWiring:
    def test_bundle_report_md_gains_section(self, grids, tmp_path):
        from repro.reporting.bundle import write_report_bundle
        from tests.reporting.fixtures import make_record

        record = make_record()
        bundle = write_report_bundle(record, tmp_path, grids)
        text = bundle.markdown.read_text(encoding="utf-8")
        assert "## Accuracy vs complexity (synthetic strata)" in text

    def test_bundle_without_grids_is_unchanged(self, tmp_path):
        from repro.reporting.bundle import write_report_bundle
        from tests.reporting.fixtures import make_record

        record = make_record()
        bundle = write_report_bundle(record, tmp_path)
        text = bundle.markdown.read_text(encoding="utf-8")
        assert "Accuracy vs complexity" not in text
