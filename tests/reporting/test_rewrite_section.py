"""Per-rewrite-family breakdown: rows, rendering, bundle and record wiring."""

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.reporting.rewrite import (
    family_rows,
    instance_families,
    render_rewrite_section,
    rewrite_workloads,
)
from repro.reporting.run_record import RunRecord, record_from_engine
from repro.tasks import REWRITE_EQUIVALENCE, REWRITE_SPEEDUP
from repro.rewrite.catalog import REWRITE_FAMILIES, catalog_fingerprint

WORKLOAD = "synthetic:rewrite:n=4"


@pytest.fixture(scope="module")
def engine():
    engine = ExperimentEngine(EngineConfig(max_instances=20))
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def grids(engine):
    cells = {}
    for task in (REWRITE_EQUIVALENCE, REWRITE_SPEEDUP):
        cells[task] = {
            ("gpt4", WORKLOAD): engine.run_cell("gpt4", task, WORKLOAD),
            ("gemini", WORKLOAD): engine.run_cell("gemini", task, WORKLOAD),
        }
    return cells


class TestRows:
    def test_family_rows_cover_catalog_families_plus_negatives(self, grids):
        rows = family_rows(grids[REWRITE_EQUIVALENCE], WORKLOAD)
        assert rows
        families = [row["family"] for row in rows]
        assert families[-1] == "(negatives)"
        for family in families[:-1]:
            assert family in REWRITE_FAMILIES
        for row in rows:
            assert row["n"] > 0
            assert 0.0 <= row["gpt4"] <= 1.0
            assert 0.0 <= row["gemini"] <= 1.0

    def test_speedup_families_come_from_detail(self, grids):
        cell = grids[REWRITE_SPEEDUP][("gpt4", WORKLOAD)]
        tagged = [
            instance
            for instance in cell.dataset.instances
            if instance_families(instance)
        ]
        # Every speedup instance is built from an equivalent chain, so
        # every one carries its families (via the detail field).
        assert len(tagged) == len(cell.dataset.instances)
        for instance in tagged:
            for family in instance_families(instance):
                assert family in REWRITE_FAMILIES

    def test_rows_empty_for_other_workloads(self, grids):
        assert family_rows(grids[REWRITE_EQUIVALENCE], "sdss") == []


class TestRendering:
    def test_section_lists_per_family_tables(self, grids):
        lines = render_rewrite_section(grids)
        text = "\n".join(lines)
        assert "## Accuracy by rewrite family" in text
        assert f"`{REWRITE_EQUIVALENCE}` on `{WORKLOAD}`" in text
        assert f"`{REWRITE_SPEEDUP}` on `{WORKLOAD}`" in text
        assert "(negatives)" in text

    def test_section_empty_without_rewrite_workloads(self, grids):
        cellmap = grids[REWRITE_EQUIVALENCE]
        relabeled = {("gpt4", "sdss"): cellmap[("gpt4", WORKLOAD)]}
        assert render_rewrite_section({REWRITE_EQUIVALENCE: relabeled}) == []
        assert rewrite_workloads({REWRITE_EQUIVALENCE: relabeled}) == []


class TestRecordProvenance:
    def test_record_from_engine_stamps_the_catalog_fingerprint(
        self, engine, grids
    ):
        record = record_from_engine(engine, artifacts=[])
        assert record.rewrite_catalog == catalog_fingerprint()
        restored = RunRecord.from_dict(record.to_dict())
        assert restored.rewrite_catalog == record.rewrite_catalog

    def test_records_without_rewrite_cells_stay_unstamped(self):
        other = ExperimentEngine(EngineConfig(max_instances=10))
        try:
            other.run_cell("gpt4", "syntax_error", "synthetic:default:n=2")
            record = record_from_engine(other, artifacts=[])
        finally:
            other.close()
        assert record.rewrite_catalog == ""
