"""End-to-end service lifecycle over a real TCP socket.

The acceptance contract: a grid submitted over HTTP produces a
RunRecord and report whose metrics are **byte-identical** to the same
grid run through ``repro run``, N concurrent identical submissions
cost exactly one evaluation, and progress is observable both by
polling and by SSE.
"""

from __future__ import annotations

import http.client
import threading
from urllib.parse import urlsplit

import pytest

from repro.engine.cache import ResultCache
from repro.reporting.run_record import RunRecordStore
from repro.server import ServiceError
from repro.server.jobs import JOB_CANCELLED, JOB_DONE

from tests.server.harness import (
    GRID,
    cli_reference_metrics,
    client_for,
    config_for,
    metrics_of,
    serve,
)


class TestLifecycle:
    def test_submit_to_report_matches_cli_run(self, tmp_path):
        reference = cli_reference_metrics(tmp_path)
        config = config_for(tmp_path / "svc")
        with serve(config) as server:
            client = client_for(server, client_id="alice")
            job = client.submit(GRID)
            assert job["state"] == "queued" and not job["deduped"]
            done = client.wait(job["job_id"], timeout=300)
            assert done["state"] == JOB_DONE, done.get("error")
            assert done["run_id"]

            # The HTTP-submitted run is the CLI run, byte for byte.
            assert metrics_of(config.runs_dir) == reference

            # Provenance: the record knows it came through the service.
            record = RunRecordStore(config.runs_dir).load(done["run_id"])
            assert record.origin == "service"
            assert record.client_id == "alice"

            # Progress events captured the full engine narrative.
            events = [e["event"] for e in done["events"]]
            assert "started" in events and "done" in events
            assert events.count("cell") == len(reference)

            # The report bundle regenerates from the warm cache: zero
            # model invocations, markdown in the payload, files on disk.
            report = client.report(done["job_id"])
            assert report["computed_cells"] == 0
            assert report["cached_cells"] == len(reference)
            assert report["run_id"] == done["run_id"]
            assert "syntax_error" in report["markdown"]
            for path in report["paths"].values():
                assert path.startswith(str(config.reports_dir))

    def test_sse_stream_replays_and_terminates(self, tmp_path):
        config = config_for(tmp_path)
        with serve(config) as server:
            client = client_for(server)
            job = client.submit(GRID)
            frames = list(client.events(job["job_id"]))
            names = [f["event"] for f in frames]
            assert names[-1] == "end"
            assert frames[-1]["data"]["state"] == JOB_DONE
            assert "started" in names and "cell" in names
            # Metric tables stream through as text events.
            texts = [
                f["data"]["text"] for f in frames if f["event"] == "text"
            ]
            assert any("syntax_error metrics" in t for t in texts)
            # Replay: a late subscriber sees history from any cursor.
            replay = list(client.events(job["job_id"], since=2))
            assert [f.get("id") for f in replay[:-1]] == list(
                range(2, 2 + len(replay) - 1)
            )

    def test_polling_since_cursor(self, tmp_path):
        config = config_for(tmp_path)
        with serve(config) as server:
            client = client_for(server)
            job = client.submit(GRID)
            done = client.wait(job["job_id"], timeout=300)
            total = len(done["events"])
            tail = client.job(job["job_id"], since=total - 2)["events"]
            assert [e["seq"] for e in tail] == [total - 2, total - 1]

    def test_invalid_grid_is_rejected_not_enqueued(self, tmp_path):
        config = config_for(tmp_path)
        with serve(config) as server:
            client = client_for(server)
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"artifacts": ["no-such-artifact"]})
            assert excinfo.value.status == 400
            assert "unknown artifacts" in str(excinfo.value)
            with pytest.raises(ServiceError) as excinfo:
                client.submit({**GRID, "mystery": 1})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.submit({**GRID, "shard_size": 8})
            assert excinfo.value.status == 400
            assert "shard_size" in str(excinfo.value)
            malformed = {
                "workload": 5,
                "strata": 5,
                "chaos": 5,
                "fixtures_dir": 5,
                "record_fixtures": "false",
                "workers": 0,
            }
            for field, value in malformed.items():
                with pytest.raises(ServiceError) as excinfo:
                    client.submit({**GRID, field: value})
                assert excinfo.value.status == 400, field
                assert field in str(excinfo.value)
            assert client.jobs() == []

    def test_unknown_job_404(self, tmp_path):
        config = config_for(tmp_path)
        with serve(config) as server:
            client = client_for(server)
            with pytest.raises(ServiceError) as excinfo:
                client.job("nope")
            assert excinfo.value.status == 404


class TestCacheEndpoint:
    def test_serves_manifests_and_refuses_malformed_keys(self, tmp_path):
        config = config_for(tmp_path)
        # A file a path traversal out of the cache dir would reach.
        (tmp_path / "secret.json").write_text('{"secret": "not a cache entry"}')
        with serve(config) as server:
            client = client_for(server)
            done = client.wait(client.submit(GRID)["job_id"], timeout=300)
            assert done["state"] == JOB_DONE, done.get("error")
            key = ResultCache(config.cache_dir).entries()[0].parent.name
            entry = client.cache_entry(key)
            assert entry["key"] == key
            assert entry["manifest"]["kind"] == "cells"
            assert entry["manifest"]["total"] > 0
            with pytest.raises(ServiceError) as excinfo:
                client.cache_entry("0" * 64)
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client.cache_entry(key.upper())
            assert excinfo.value.status == 400
            # Sent raw, so no client normalises the dot segments away.
            url = urlsplit(server.url)
            connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
            try:
                connection.request("GET", "/v1/cache/../secret")
                response = connection.getresponse()
                body = response.read().decode("utf-8")
            finally:
                connection.close()
            assert response.status == 400
            assert "not a cache entry" not in body


class TestConcurrentDedup:
    def test_n_simultaneous_submissions_one_evaluation(self, tmp_path):
        """Five clients race identical grids; the engine runs once.

        Proved by the server's own compute counters: cells_computed
        equals the grid size (each cell evaluated exactly once) and
        jobs_executed is 1, while every client gets the same job id.
        """
        config = config_for(tmp_path)
        with serve(config) as server:
            clients = [
                client_for(server, client_id=f"racer-{i}") for i in range(5)
            ]
            barrier = threading.Barrier(len(clients))
            results: list[dict] = []
            errors: list[Exception] = []

            def submit(client) -> None:
                try:
                    barrier.wait()
                    results.append(client.submit(GRID))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(c,)) for c in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(results) == 5
            job_ids = {r["job_id"] for r in results}
            assert len(job_ids) == 1, "duplicates must attach to one job"
            assert sum(not r["deduped"] for r in results) == 1

            client = clients[0]
            done = client.wait(job_ids.pop(), timeout=300)
            assert done["state"] == JOB_DONE
            assert done["submissions"] == 5

            health = client.health()
            cells = len(metrics_of(config.runs_dir))
            assert health["stats"]["jobs_executed"] == 1
            assert health["stats"]["cells_computed"] == cells
            assert health["stats"]["dedup_hits"] == 4

    def test_submission_after_completion_attaches_without_rerun(
        self, tmp_path
    ):
        config = config_for(tmp_path)
        with serve(config) as server:
            client = client_for(server)
            job = client.submit(GRID)
            client.wait(job["job_id"], timeout=300)
            computed = client.health()["stats"]["cells_computed"]
            again = client.submit(GRID)
            assert again["deduped"] and again["job_id"] == job["job_id"]
            assert again["state"] == JOB_DONE
            assert client.health()["stats"]["cells_computed"] == computed


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        config = config_for(tmp_path, max_concurrent_jobs=1)
        with serve(config) as server:
            client = client_for(server)
            first = client.submit(GRID)
            # A different grid queues behind the running first job.
            second = client.submit({**GRID, "seed": 7})
            assert second["job_id"] != first["job_id"]
            cancelled = client.cancel(second["job_id"])
            assert cancelled["state"] == JOB_CANCELLED
            with pytest.raises(ServiceError) as excinfo:
                client.cancel(second["job_id"])
            assert excinfo.value.status == 409
            assert client.wait(first["job_id"], timeout=300)["state"] == (
                JOB_DONE
            )


class TestRunsCliSurface:
    def test_runs_list_and_show_surface_service_origin(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        config = config_for(tmp_path)
        with serve(config) as server:
            client = client_for(server, client_id="svc-client")
            job = client.submit(GRID)
            done = client.wait(job["job_id"], timeout=300)
        assert (
            main(["runs", "list", "--runs-dir", str(config.runs_dir)]) == 0
        )
        out = capsys.readouterr().out
        assert "service" in out
        assert (
            main(
                [
                    "runs",
                    "show",
                    done["run_id"],
                    "--runs-dir",
                    str(config.runs_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "origin   : service (client: svc-client)" in out
