"""End-to-end crash-safety: chaos runs through the real CLI.

The contract under test is the tentpole invariant: a run interrupted
mid-grid (deterministically, via a chaos-plan signal riding the
cell-commit hook) resumes with ``repro run --resume`` to **metrics
byte-identical** to an uninterrupted run — on the materialised path and
the streaming path — and every fault either recovers cleanly or fails
with a named error.  No partial cache writes, no silently wrong rows.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.lifecycle import EXIT_INTERRUPTED, RunJournal
from repro.reporting.run_record import RunRecordStore

SPEC = "synthetic:setops:n=6"


def run(tmp_path, *extra: str, spec: str = SPEC) -> int:
    return main(
        [
            "run",
            "syntax_error",
            "--workload",
            spec,
            "--max-instances",
            "6",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--runs-dir",
            str(tmp_path / "runs"),
            *extra,
        ]
    )


def metrics_of(tmp_path) -> dict:
    record = RunRecordStore(tmp_path / "runs").latest()
    assert record is not None
    return {
        (c.model, c.task, c.workload): dict(c.metrics) for c in record.cells
    }


class TestInterruptAndResume:
    def _interrupt_resume_roundtrip(self, tmp_path, *extra: str):
        clean_dir = tmp_path / "clean"
        chaos_dir = tmp_path / "chaos"
        assert run(clean_dir, *extra) == 0
        reference = metrics_of(clean_dir)

        code = run(chaos_dir, "--chaos", "sigterm:after-cells=2", *extra)
        assert code == EXIT_INTERRUPTED
        journal_ids = [
            p.parent.parent.name
            for p in (chaos_dir / "runs").glob("*/journal/manifest.json")
        ]
        assert len(journal_ids) == 1
        journal = RunJournal.load(chaos_dir / "runs", journal_ids[0])
        states = journal.states()
        assert states.get("committed", 0) >= 2
        assert states.get("committed", 0) < len(reference)
        # The interrupted attempt must not have persisted a RunRecord.
        assert RunRecordStore(chaos_dir / "runs").run_ids() == []

        assert (
            main(
                [
                    "run",
                    "--resume",
                    journal.run_id,
                    "--runs-dir",
                    str(chaos_dir / "runs"),
                ]
            )
            == 0
        )
        resumed = RunRecordStore(chaos_dir / "runs").latest()
        assert resumed.run_id == journal.run_id
        assert metrics_of(chaos_dir) == reference
        assert journal.states() == {"committed": len(reference)}

    def test_materialised_path_resumes_byte_identical(self, tmp_path):
        self._interrupt_resume_roundtrip(tmp_path)

    def test_streaming_path_resumes_byte_identical(self, tmp_path):
        self._interrupt_resume_roundtrip(tmp_path, "--chunk-size", "3")

    def test_resume_serves_committed_cells_from_cache(self, tmp_path, capsys):
        assert (
            run(tmp_path, "--chaos", "sigint:after-cells=2")
            == EXIT_INTERRUPTED
        )
        err = capsys.readouterr().err
        assert "interrupted by SIGINT" in err
        assert "--resume" in err
        (manifest,) = (tmp_path / "runs").glob("*/journal/manifest.json")
        run_id = manifest.parent.parent.name
        assert (
            main(
                ["run", "--resume", run_id, "--runs-dir", str(tmp_path / "runs")]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "[resume]" in err
        record = RunRecordStore(tmp_path / "runs").latest()
        assert record.cached_cells >= 2  # committed cells were warm hits

    def test_resume_rejects_grid_flags(self, tmp_path, capsys):
        assert run(tmp_path) == 0
        (manifest,) = (tmp_path / "runs").glob("*/journal/manifest.json")
        run_id = manifest.parent.parent.name
        assert (
            main(
                [
                    "run",
                    "syntax_error",
                    "--resume",
                    run_id,
                    "--runs-dir",
                    str(tmp_path / "runs"),
                ]
            )
            == 2
        )
        assert "journal manifest" in capsys.readouterr().err

    def test_resume_unknown_run_id_fails_loudly(self, tmp_path, capsys):
        assert (
            main(["run", "--resume", "nope", "--runs-dir", str(tmp_path)]) == 2
        )
        assert "no run journal" in capsys.readouterr().err

    def test_no_record_run_is_not_resumable(self, tmp_path, capsys):
        assert (
            main(
                ["run", "--resume", "x", "--no-record", "--runs-dir", str(tmp_path)]
            )
            == 2
        )
        assert "--no-record" in capsys.readouterr().err


class TestResumeOlderJournal:
    def test_journal_carrying_shard_size_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """A journal written while the shard plan still existed: its
        manifest carries ``shard_size``, which resume ignores."""
        fixture = Path(__file__).parents[1] / "fixtures" / "journals"
        shutil.copytree(fixture, tmp_path / "runs")
        (manifest,) = (tmp_path / "runs").glob("*/journal/manifest.json")
        assert json.loads(manifest.read_text())["config"]["shard_size"] == 16
        run_id = manifest.parent.parent.name
        monkeypatch.chdir(tmp_path)  # the manifest's cache_dir is relative
        assert main(["run", "--resume", run_id, "--runs-dir", "runs"]) == 0
        clean = tmp_path / "clean"
        assert (
            main(
                [
                    "run",
                    "table6",
                    "--max-instances",
                    "40",
                    "--cache-dir",
                    str(clean / "cache"),
                    "--runs-dir",
                    str(clean / "runs"),
                ]
            )
            == 0
        )
        reference = metrics_of(clean)
        assert metrics_of(tmp_path) == reference
        journal = RunJournal.load(tmp_path / "runs", run_id)
        assert journal.states() == {"committed": len(reference)}


class TestResumeRebuildsTheRun:
    def test_resume_rebuilds_an_equal_engine_config(self, tmp_path):
        """Every knob goes into the manifest and comes back out of it."""
        from repro import execution

        request = execution.RunRequest(
            artifacts=("syntax_error", "miss_token"),
            workload=SPEC,
            seed=5,
            workers=2,
            chunk_size=16,
            cache_dir=tmp_path / "cache",
            runs_dir=tmp_path / "runs",
            max_instances=7,
            max_concurrency=4,
            rps=50.0,
            on_cell_error="degrade",
            request_timeout=5.0,
            cell_deadline=30.0,
            breaker_threshold=3,
        )
        prepared = execution.prepare_run(request)
        journal = execution.begin_journal(prepared, request.runs_dir)
        _, resumed = execution.prepare_resume(request.runs_dir, journal.run_id)
        assert resumed.engine_config == prepared.engine_config
        assert (resumed.wanted, resumed.workload_name) == (
            prepared.wanted,
            prepared.workload_name,
        )
        assert resumed.fingerprint() == prepared.fingerprint()

    def test_null_max_concurrency_of_older_journals_means_the_default(self):
        from repro.engine import EngineConfig

        fixture = Path(__file__).parents[1] / "fixtures" / "journals"
        (manifest,) = fixture.glob("*/journal/manifest.json")
        config = EngineConfig.from_dict(json.loads(manifest.read_text())["config"])
        assert config.max_concurrency == EngineConfig().max_concurrency
        assert config.max_instances == 40 and config.cache_dir == Path("cache")


class TestSameFailuresAtEveryWorkerSetting:
    def test_degraded_cells_keep_their_error_class(self, tmp_path, capsys):
        """The worker ships a backend failure back as itself, so the
        queue records what the in-process loop records.  Every faulty
        request id here belongs to join_order, so its five cells
        degrade (retry backoff makes each cost about a second)."""
        outcomes = []
        for label, extra in (
            ("workers1", ("--workers", "1")),
            ("workers2", ("--workers", "2")),
            ("chunked", ("--workers", "2", "--chunk-size", "8")),
        ):
            base = tmp_path / label
            code = main(
                [
                    "run",
                    "table3",
                    "--max-instances",
                    "4",
                    "--chaos",
                    "flaky:rate=0.2:kind=500:fail_attempts=9",
                    "--on-cell-error",
                    "degrade",
                    "--cache-dir",
                    str(base / "cache"),
                    "--runs-dir",
                    str(base / "runs"),
                    *extra,
                ]
            )
            assert code == 0
            record = RunRecordStore(base / "runs").latest()
            failures = sorted(
                (f.model, f.task, f.workload, f.error_class)
                for f in record.failures
            )
            outcomes.append(
                (capsys.readouterr().out, failures, metrics_of(base))
            )
        _, failures, committed = outcomes[0]
        assert len(failures) == 5 and len(committed) == 10
        assert {f[3] for f in failures} == {"TransientBackendError"}
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]


class TestFlakyRecovery:
    def test_flaky_run_recovers_to_identical_metrics(self, tmp_path):
        clean_dir = tmp_path / "clean"
        flaky_dir = tmp_path / "flaky"
        assert run(clean_dir) == 0
        assert run(flaky_dir, "--chaos", "flaky:rate=0.4:kind=429") == 0
        assert metrics_of(flaky_dir) == metrics_of(clean_dir)

    def test_terminal_faults_fail_policy_fail(self, tmp_path, capsys):
        # fail_attempts beyond the retry budget makes faulty requests
        # terminal; the default policy aborts the run.
        code = run(
            tmp_path, "--chaos", "flaky:rate=0.5:kind=500:fail_attempts=9"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "run failed: TransientBackendError" in err
        assert "--resume" in err  # committed cells stay resumable

    def test_terminal_faults_degrade_and_complete(self, tmp_path):
        assert (
            run(
                tmp_path,
                "--chaos",
                "flaky:rate=0.5:kind=500:fail_attempts=9",
                "--on-cell-error",
                "degrade",
            )
            == 0
        )
        record = RunRecordStore(tmp_path / "runs").latest()
        assert record.on_cell_error == "degrade"
        assert record.failures  # structured gaps, not silence
        failure = record.failures[0]
        assert failure.error_class == "TransientBackendError"
        assert "chaos" in failure.message
        journal = RunJournal.load(tmp_path / "runs", record.run_id)
        states = journal.states()
        assert states.get("degraded", 0) == len(record.failures)
        assert (
            states.get("degraded", 0) + states.get("committed", 0)
            == len(record.failures) + len(record.cells)
        )

    def test_degraded_cells_render_in_report(self, tmp_path):
        assert (
            run(
                tmp_path,
                "--chaos",
                "flaky:rate=0.5:kind=500:fail_attempts=9",
                "--on-cell-error",
                "degrade",
            )
            == 0
        )
        from repro.reporting.markdown import render_markdown_report

        record = RunRecordStore(tmp_path / "runs").latest()
        report = render_markdown_report(record)
        assert "## Degraded cells" in report
        assert "TransientBackendError" in report
        assert "not** zeros" in report


class TestKillWorker:
    def test_killed_worker_chunk_is_redispatched(self, tmp_path):
        clean_dir = tmp_path / "clean"
        chaos_dir = tmp_path / "chaos"
        streaming = ("--chunk-size", "3", "--workers", "2")
        assert run(clean_dir, *streaming) == 0
        assert (
            run(chaos_dir, "--chaos", "kill-worker:chunk=1", *streaming) == 0
        )
        assert metrics_of(chaos_dir) == metrics_of(clean_dir)
        record = RunRecordStore(chaos_dir / "runs").latest()
        assert record.stream_stats.get("redispatched", 0) >= 1

    def test_kill_worker_reaches_the_materialised_pool(self, tmp_path):
        def run_table6(base, *extra):
            return main(
                [
                    "run",
                    "table6",
                    "--workers",
                    "2",
                    "--cache-dir",
                    str(base / "cache"),
                    "--runs-dir",
                    str(base / "runs"),
                    *extra,
                ]
            )

        assert run_table6(tmp_path / "clean") == 0
        assert run_table6(tmp_path / "chaos", "--chaos", "kill-worker:chunk=1") == 0
        assert metrics_of(tmp_path / "chaos") == metrics_of(tmp_path / "clean")
        record = RunRecordStore(tmp_path / "chaos" / "runs").latest()
        assert record.stream_stats["redispatched"] >= 1

    def test_persistent_poison_surfaces_named_error(self, tmp_path, capsys):
        code = run(
            tmp_path,
            "--chaos",
            "poison:chunk=0:once=false",
            "--chunk-size",
            "3",
            "--workers",
            "2",
        )
        assert code == 1
        assert "run failed: Stream" in capsys.readouterr().err


class TestCorruptSegment:
    def test_corrupt_segment_recomputes_cleanly(self, tmp_path):
        assert run(tmp_path) == 0
        reference = metrics_of(tmp_path)
        # Second run: chaos corrupts one committed segment up front; the
        # cache layer must detect it and recompute, never serve garbage.
        assert run(tmp_path, "--chaos", "corrupt-segment") == 0
        assert metrics_of(tmp_path) == reference
        record = RunRecordStore(tmp_path / "runs").latest()
        assert record.computed_cells >= 1


class TestManifestRoundTrip:
    def test_manifest_preserves_chaos_backend(self, tmp_path):
        assert run(tmp_path, "--chaos", "flaky:rate=0.4:kind=timeout") == 0
        (manifest_path,) = (tmp_path / "runs").glob("*/journal/manifest.json")
        manifest = json.loads(manifest_path.read_text())
        backend = manifest["config"]["backend"]
        assert backend["name"] == "chaos"
        assert backend["options"]["inner"] == "simulated"
        assert backend["options"]["kind"] == "timeout"
        assert manifest["config"]["chaos"] == "flaky:rate=0.4:kind=timeout"
