"""Journal tests: atomic state files, manifest round-trip, id scheme."""

from __future__ import annotations

import json

import pytest

from repro.lifecycle import (
    CELL_COMMITTED,
    CELL_DEGRADED,
    CELL_IN_FLIGHT,
    CELL_PENDING,
    CellFailure,
    JournalError,
    RunJournal,
)
from repro.lifecycle.journal import cell_descriptor, cell_id_for
from repro.lifecycle.layout import new_run_id
from repro.reporting import run_record

CONFIG = {"workload": "sdss", "artifacts": ["syntax_error"], "seed": 0}


class TestRunId:
    def test_matches_reporting_run_id_scheme(self, tmp_path):
        # Journals and run records name runs with one helper, so a
        # journalled run and its record can share an id.
        created = "2026-08-08T01:02:03Z"
        journal = RunJournal.begin(tmp_path, CONFIG, created_at=created)
        assert journal.run_id == new_run_id(created, json.dumps(CONFIG, sort_keys=True))
        assert run_record.new_run_id is new_run_id

    def test_sortable_and_content_addressed(self):
        a = new_run_id("2026-08-08T01:02:03Z", "a")
        b = new_run_id("2026-08-09T01:02:03Z", "a")
        assert a < b
        assert new_run_id("2026-08-08T01:02:03Z", "b") != a


class TestBeginAndLoad:
    def test_begin_persists_manifest(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG, created_at="2026-08-08T00:00:00Z")
        loaded = RunJournal.load(tmp_path, journal.run_id)
        assert loaded.run_id == journal.run_id
        assert loaded.config == CONFIG
        assert loaded.created_at == "2026-08-08T00:00:00Z"

    def test_load_by_unique_prefix(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG)
        loaded = RunJournal.load(tmp_path, journal.run_id[:10])
        assert loaded.run_id == journal.run_id

    def test_load_ambiguous_prefix_raises(self, tmp_path):
        RunJournal.begin(tmp_path, CONFIG, created_at="2026-08-08T00:00:00Z")
        RunJournal.begin(tmp_path, {"other": 1}, created_at="2026-08-08T00:00:01Z")
        with pytest.raises(JournalError, match="ambiguous"):
            RunJournal.load(tmp_path, "20260808")

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no run journal"):
            RunJournal.load(tmp_path, "nope")

    def test_version_mismatch_raises(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG)
        manifest_path = journal.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(JournalError, match="version"):
            RunJournal.load(tmp_path, journal.run_id)


class TestCellStates:
    def test_state_machine_round_trip(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG)
        cell = cell_descriptor("gpt4", "syntax_error", "sdss")
        journal.record(cell, CELL_PENDING)
        journal.record(cell, CELL_IN_FLIGHT)
        journal.record(cell, CELL_COMMITTED)
        entries = journal.cells()
        assert len(entries) == 1
        assert entries[0].state == CELL_COMMITTED
        assert entries[0].key == ("gpt4", "syntax_error", "sdss")
        assert journal.states() == {CELL_COMMITTED: 1}

    def test_failure_round_trip(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG)
        cell = cell_descriptor("gpt4", "syntax_error", "sdss")
        try:
            raise RuntimeError("endpoint down")
        except RuntimeError as exc:
            failure = CellFailure.from_exception(
                "gpt4", "syntax_error", "sdss", exc, attempts=3
            )
        journal.record(cell, CELL_DEGRADED, failure=failure)
        (entry,) = journal.cells()
        assert entry.failure is not None
        assert entry.failure.error_class == "RuntimeError"
        assert entry.failure.message == "endpoint down"
        assert entry.failure.attempts == 3
        assert "RuntimeError" in entry.failure.traceback
        assert list(journal.iter_failures()) == [entry.failure]

    def test_unknown_state_rejected(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG)
        with pytest.raises(ValueError, match="unknown cell state"):
            journal.record(cell_descriptor("m", "t", "w"), "exploded")

    def test_no_temp_files_survive(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG)
        journal.record(cell_descriptor("m", "t", "w"), CELL_PENDING)
        leftovers = [p for p in journal.root.rglob("*.tmp.*")]
        assert leftovers == []

    def test_corrupt_cell_file_is_skipped(self, tmp_path):
        journal = RunJournal.begin(tmp_path, CONFIG)
        journal.record(cell_descriptor("m", "t", "w"), CELL_COMMITTED)
        bad = journal.root / "cells" / "deadbeefdeadbeef.json"
        bad.write_text("{not json")
        assert len(journal.cells()) == 1

    def test_cell_id_is_stable(self):
        descriptor = cell_descriptor("gpt4", "syntax_error", "sdss")
        assert cell_id_for(descriptor) == cell_id_for(dict(descriptor))
