"""RunRecord schema round-trips and the on-disk store."""

import dataclasses
import json
import threading

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.reporting.run_record import (
    RECORD_VERSION,
    CellRecord,
    RunRecord,
    RunRecordStore,
    cell_record_from_result,
    new_run_id,
    record_from_engine,
)
from tests.reporting.fixtures import make_cell_record, make_cell_result, make_record


class TestCellRecordFromResult:
    def test_flattens_binary_metrics_and_confusion(self):
        result = make_cell_result()
        record = cell_record_from_result(
            result, model_display="GPT4", cached=False, seconds=0.5
        )
        assert record.key == ("gpt4", "syntax_error", "sdss")
        assert record.instances == 5
        assert set(record.confusion) == {"tp", "tn", "fp", "fn"}
        assert sum(record.confusion.values()) == 5
        assert record.metrics["binary.f1"] == pytest.approx(result.binary.f1)
        assert record.metrics["typed.f1"] == pytest.approx(result.typed.f1)
        assert record.metrics["location.mae"] == pytest.approx(
            result.location.mae
        )

    def test_typed_and_location_gated_on_dataset(self):
        result = make_cell_result(with_types=False, with_positions=False)
        record = cell_record_from_result(
            result, model_display="GPT4", cached=True, seconds=None
        )
        assert not any(k.startswith("typed.") for k in record.metrics)
        assert not any(k.startswith("location.") for k in record.metrics)
        assert not any(k.startswith("explanation.") for k in record.metrics)
        assert record.cached
        assert record.seconds is None

    def test_explanation_metrics_for_gold_text_datasets(self):
        import dataclasses

        result = make_cell_result(task="query_exp", with_types=False)
        result.dataset.instances = [
            dataclasses.replace(
                instance, label=None, gold_text="count the movies per year"
            )
            for instance in result.dataset.instances
        ]
        result.answers = [
            dataclasses.replace(
                answer,
                predicted=None,
                explanation="count the movies",
                flaws=("context-loss",) if i == 0 else (),
            )
            for i, answer in enumerate(result.answers)
        ]
        record = cell_record_from_result(
            result, model_display="GPT4", cached=False, seconds=0.1
        )
        # No boolean labels: binary metrics and confusion are absent...
        assert not any(k.startswith("binary.") for k in record.metrics)
        assert record.confusion == {}
        # ...but explanation fidelity is recorded.
        assert 0.0 < record.metrics["explanation.overlap_f1"] <= 1.0
        assert record.metrics["explanation.flawed_rate"] == pytest.approx(0.2)


class TestRoundTrip:
    def test_cell_record_dict_round_trip(self):
        original = make_record().cells[0]
        assert CellRecord.from_dict(original.as_dict()) == original

    def test_run_record_dict_round_trip(self, fixture_record):
        assert RunRecord.from_dict(fixture_record.to_dict()) == fixture_record

    def test_run_record_json_round_trip(self, fixture_record):
        text = fixture_record.to_json()
        assert json.loads(text)["version"] == RECORD_VERSION
        assert RunRecord.from_json(text) == fixture_record

    def test_version_mismatch_rejected(self, fixture_record):
        data = fixture_record.to_dict()
        data["version"] = RECORD_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            RunRecord.from_dict(data)


class TestAccessors:
    def test_tasks_and_workloads_first_seen_order(self, fixture_record):
        assert fixture_record.tasks() == ["syntax_error", "miss_token"]
        assert fixture_record.workloads("miss_token") == ["sqlshare"]

    def test_cell_lookup(self, fixture_record):
        cell = fixture_record.cell("gemini", "miss_token", "sqlshare")
        assert cell is not None and cell.model_display == "Gemini"
        assert fixture_record.cell("gpt4", "query_equiv", "sdss") is None

    def test_with_identity_keeps_metrics_takes_identity(self, fixture_record):
        import dataclasses

        other = dataclasses.replace(
            make_record(run_id="other-run"),
            workers=8,
            cache_dir="/elsewhere",
            total_seconds=99.0,
        )
        merged = fixture_record.with_identity(other)
        assert merged.run_id == "other-run"
        assert merged.cells == fixture_record.cells
        # The recorded run's configuration and timing travel with its id.
        assert merged.workers == 8
        assert merged.cache_dir == "/elsewhere"
        assert merged.total_seconds == 99.0


class TestRunId:
    def test_sortable_and_content_sensitive(self):
        a = new_run_id("2026-01-01T00:00:00Z", "a")
        b = new_run_id("2026-01-02T00:00:00Z", "a")
        assert a < b
        assert new_run_id("2026-01-01T00:00:00Z", "b") != a


class TestStore:
    def test_save_load_latest(self, tmp_path, fixture_record):
        store = RunRecordStore(tmp_path / "runs")
        path = store.save(fixture_record)
        assert path.is_file()
        assert store.load(fixture_record.run_id) == fixture_record
        assert store.latest() == fixture_record

    def test_prefix_and_path_lookup(self, tmp_path, fixture_record):
        store = RunRecordStore(tmp_path / "runs")
        path = store.save(fixture_record)
        assert store.load(fixture_record.run_id[:8]) == fixture_record
        assert store.load(str(path)) == fixture_record

    def test_ambiguous_prefix_raises(self, tmp_path):
        store = RunRecordStore(tmp_path / "runs")
        store.save(make_record(run_id="20260101T000000-aaaa"))
        store.save(make_record(run_id="20260101T000000-bbbb"))
        with pytest.raises(KeyError, match="ambiguous"):
            store.load("20260101T000000")

    def test_missing_raises_and_empty_store(self, tmp_path):
        store = RunRecordStore(tmp_path / "runs")
        assert store.run_ids() == []
        assert store.latest() is None
        with pytest.raises(KeyError, match="no run record"):
            store.load("nope")

    def test_records_sorted_oldest_first(self, tmp_path):
        store = RunRecordStore(tmp_path / "runs")
        newer = make_record(run_id="20260202T000000-bbbb")
        older = make_record(run_id="20260101T000000-aaaa")
        store.save(newer)
        store.save(older)
        assert [r.run_id for r in store.records()] == [
            older.run_id,
            newer.run_id,
        ]
        assert store.latest().run_id == newer.run_id


class TestConcurrentSaveAndLoad:
    def test_reader_never_sees_a_torn_record(self, tmp_path, monkeypatch):
        """A thread loading a record while another thread saves it
        reads the old record or the new one, never part of one."""
        record = dataclasses.replace(
            make_record(),
            cells=tuple(make_cell_record(model=f"m{i}") for i in range(400)),
        )
        # Serialise once, so the writer spends its time writing.
        text = record.to_json()
        monkeypatch.setattr(RunRecord, "to_json", lambda self: text)
        store = RunRecordStore(tmp_path / "runs")
        store.save(record)
        saving = threading.Event()
        saving.set()
        errors: list[Exception] = []
        loads = 0

        def read() -> None:
            nonlocal loads
            while saving.is_set():
                try:
                    assert store.load(record.run_id) == record
                except Exception as error:  # noqa: BLE001 - collected
                    errors.append(error)
                loads += 1

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for _ in range(200):
                store.save(record)
        finally:
            saving.clear()
            reader.join()
        assert loads > 0
        assert errors == []
        assert store.run_ids() == [record.run_id]


class TestAnalysisCacheStats:
    def test_stats_round_trip(self, fixture_record):
        import dataclasses

        stats = {"raw_parses": 123, "parse_hits": 4567, "parse_misses": 123}
        record = dataclasses.replace(
            fixture_record, analysis_cache_stats=stats
        )
        revived = RunRecord.from_dict(record.to_dict())
        assert revived.analysis_cache_stats == stats
        assert revived == record
        assert RunRecord.from_json(record.to_json()) == record

    def test_absent_stats_default_to_empty(self, fixture_record):
        data = fixture_record.to_dict()
        data.pop("analysis_cache_stats", None)
        assert RunRecord.from_dict(data).analysis_cache_stats == {}

    def test_record_from_engine_snapshots_live_counters(self, tmp_path):
        from repro.sql import analysis_cache

        analysis_cache.clear_caches()
        engine = ExperimentEngine(EngineConfig(max_instances=4, cache_dir=tmp_path / "c"))
        texts = [f"SELECT c{i} FROM t{i}" for i in range(3)]
        for text in texts + texts:  # 3 misses, then 3 hits
            analysis_cache.try_parse_cached(text)
        engine.run_cell("gpt4", "syntax_error", "sdss")
        record = record_from_engine(engine)
        engine.close()
        stats = record.analysis_cache_stats
        assert set(stats) == set(
            analysis_cache.CacheCounters().as_dict()
        )
        # The record snapshots this process's live memo counters.
        assert stats["raw_parses"] >= len(texts)
        assert stats["parse_hits"] >= len(texts)
        # Every memo miss runs exactly one raw parse — the provenance
        # counters must agree with each other.
        assert stats["parse_misses"] == stats["raw_parses"]
        analysis_cache.clear_caches()

    def test_runs_in_one_process_count_only_their_own_work(self):
        """Consecutive runs in one process (as ``repro serve`` runs jobs)
        split the process's memo counters between their records instead
        of each record carrying every earlier run's work."""
        from repro.sql import analysis_cache

        analysis_cache.clear_caches()
        analysis_cache.try_parse_cached("SELECT before_any_run FROM t")
        start = analysis_cache.counters()
        records = []
        for seed in (1, 2):
            engine = ExperimentEngine(EngineConfig(seed=seed, max_instances=4))
            engine.run_cell("gpt4", "miss_token", "sdss")
            engine.run_cell("gpt4", "query_exp", "spider")
            records.append(record_from_engine(engine).analysis_cache_stats)
            engine.close()
        total = analysis_cache.counters().since(start).as_dict()
        first, second = records
        assert first["raw_parses"] > 0 and first["raw_tokenizes"] > 0
        for key, value in total.items():
            assert first[key] + second[key] == value, key
        analysis_cache.clear_caches()


class TestRecordFromEngine:
    def test_runner_snapshot_and_cached_provenance(self, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = ExperimentEngine(EngineConfig(max_instances=6, cache_dir=cache_dir))
        engine.run_cell("gpt4", "performance_pred", "sdss")
        record = record_from_engine(engine, artifacts=("table6",), total_seconds=1.0)
        engine.close()
        assert record.run_id
        assert record.artifacts == ("table6",)
        assert len(record.cells) == 1
        cell = record.cells[0]
        assert cell.key == ("gpt4", "performance_pred", "sdss")
        assert not cell.cached
        assert cell.seconds is not None
        assert "binary.f1" in cell.metrics
        assert record.computed_cells == 1 and record.cached_cells == 0

        # A second engine over the same cache serves the cell warm, and
        # the record's provenance says so.
        warm = ExperimentEngine(EngineConfig(max_instances=6, cache_dir=cache_dir))
        warm.run_cell("gpt4", "performance_pred", "sdss")
        warm_record = record_from_engine(warm)
        warm.close()
        assert warm_record.cells[0].cached
        assert warm_record.computed_cells == 0
        assert warm_record.cached_cells == 1
        # Metrics identical either way — the cache is invisible to math.
        assert warm_record.cells[0].metrics == cell.metrics

    def test_counters_count_distinct_cells_not_repeat_serves(self, tmp_path):
        # Two artifacts sharing a grid re-serve its cells from the
        # cache within one run; the record must still report the cell
        # as computed-once, not as cached.
        engine = ExperimentEngine(EngineConfig(max_instances=4, cache_dir=tmp_path / "c"))
        engine.run_cell("gpt4", "performance_pred", "sdss")
        engine.run_cell("gpt4", "performance_pred", "sdss")  # repeat serve
        record = record_from_engine(engine)
        engine.close()
        assert len(record.cells) == 1
        assert record.computed_cells == 1
        assert record.cached_cells == 0
        assert not record.cells[0].cached

    def test_prompt_variant_reserve_resets_provenance(self, tmp_path):
        from repro.prompts.templates import TUNED_PROMPTS

        # Re-asking the same cell under a different prompt is a new
        # experiment: the record must carry the new serve's provenance,
        # not the first prompt's.
        import dataclasses as dc

        tuned = TUNED_PROMPTS["performance_pred"]
        variant = dc.replace(tuned, name="variant", quality=0.5)
        warmer = ExperimentEngine(EngineConfig(max_instances=4, cache_dir=tmp_path / "c"))
        warmer.run_cell("gpt4", "performance_pred", "sdss")
        warmer.close()
        # Fresh engine: default prompt serves warm from disk, then the
        # variant prompt misses the cache and is computed — the record
        # must reflect the variant serve (results holds it), not the
        # earlier cached sighting of the same cell.
        engine = ExperimentEngine(EngineConfig(max_instances=4, cache_dir=tmp_path / "c"))
        engine.run_cell("gpt4", "performance_pred", "sdss")
        engine.run_cell(
            "gpt4", "performance_pred", "sdss", prompt=variant
        )
        record = record_from_engine(engine)
        engine.close()
        assert len(record.cells) == 1
        assert not record.cells[0].cached  # the variant serve was computed
        assert record.computed_cells == 1 and record.cached_cells == 0

    def test_paper_model_order_in_cells(self):
        engine = ExperimentEngine(EngineConfig(max_instances=3))
        engine.run_task("performance_pred")
        record = record_from_engine(engine)
        engine.close()
        assert [cell.model for cell in record.cells] == [
            "gpt4", "gpt35", "llama3", "mistral", "gemini",
        ]


class TestProvenance:
    """origin / client_id: how a run entered the system."""

    def test_defaults_to_cli_with_no_client(self, fixture_record):
        assert fixture_record.origin == "cli"
        assert fixture_record.client_id == ""

    def test_service_provenance_round_trips(self, tmp_path):
        import dataclasses

        record = dataclasses.replace(
            make_record(), origin="service", client_id="bench-ci"
        )
        data = record.to_dict()
        assert data["origin"] == "service"
        assert data["client_id"] == "bench-ci"
        assert RunRecord.from_dict(data) == record

        store = RunRecordStore(tmp_path)
        path = store.save(record)
        loaded = store.load(record.run_id)
        assert loaded.origin == "service"
        assert loaded.client_id == "bench-ci"
        assert json.loads(path.read_text())["origin"] == "service"

    def test_legacy_records_read_as_cli(self, fixture_record):
        data = fixture_record.to_dict()
        del data["origin"]
        del data["client_id"]
        loaded = RunRecord.from_dict(data)
        assert loaded.origin == "cli" and loaded.client_id == ""

    def test_with_identity_transfers_provenance(self, fixture_record):
        import dataclasses

        stored = dataclasses.replace(
            make_record(run_id="20260101T000001-svcsvc00"),
            origin="service",
            client_id="alice",
        )
        regenerated = fixture_record.with_identity(stored)
        assert regenerated.run_id == stored.run_id
        assert regenerated.origin == "service"
        assert regenerated.client_id == "alice"
        # Metrics stay the regenerated ones, untouched.
        assert regenerated.cells == fixture_record.cells
