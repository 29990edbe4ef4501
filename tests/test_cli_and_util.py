"""CLI and utility tests."""

import pytest

from repro.cli import main
from repro.util import derive_rng, derive_seed


class TestUtil:
    def test_derive_seed_stable(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_derive_seed_sensitive_to_parts(self):
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a", 1) != derive_seed("b", 1)

    def test_derive_seed_order_matters(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_no_concatenation_ambiguity(self):
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_derive_rng_reproducible_stream(self):
        first = [derive_rng("x").random() for _ in range(3)]
        second = [derive_rng("x").random() for _ in range(3)]
        assert first == second


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig12" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "SDSS" in out
        assert "285" in out

    def test_run_single_artifact(self, tmp_path, capsys):
        assert main(
            ["run", "table1", "--runs-dir", str(tmp_path / "runs")]
        ) == 0
        out = capsys.readouterr().out
        assert "Recognition" in out

    def test_run_writes_report_files(self, tmp_path, capsys):
        assert main(
            [
                "run", "table2",
                "--out", str(tmp_path),
                "--runs-dir", str(tmp_path / "runs"),
            ]
        ) == 0
        report = tmp_path / "table2.txt"
        assert report.exists()
        assert "SDSS" in report.read_text()

    def test_run_no_record_skips_run_record(self, tmp_path, capsys):
        assert main(
            [
                "run", "table1", "--no-record",
                "--runs-dir", str(tmp_path / "runs"),
            ]
        ) == 0
        assert not (tmp_path / "runs").exists()

    def test_run_unknown_artifact_fails(self, capsys):
        assert main(["run", "table99"]) == 2
        assert "unknown artifacts" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_retired_shard_size_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--shard-size", "7"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shard-size" in capsys.readouterr().err

    def test_retired_shard_size_payload_key_is_rejected(self, tmp_path):
        from repro.execution import RunRequestError, request_from_payload

        with pytest.raises(RunRequestError, match="unknown run request keys: shard_size"):
            request_from_payload(
                {"artifacts": ["table1"], "shard_size": 8},
                cache_dir=tmp_path,
                runs_dir=tmp_path,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("workload", 5, "workload must be a string, got 5"),
            ("strata", ["dialect"], "strata must be a string"),
            ("chaos", 1.5, "chaos must be a string, got 1.5"),
            ("fixtures_dir", 7, "fixtures_dir must be a string, got 7"),
            ("record_fixtures", "false", "record_fixtures must be true or false"),
            ("on_cell_error", 5, "on_cell_error must be a string, got 5"),
            (
                "backend_options",
                {"timeout": [1]},
                r"backend_options.timeout must be a string or a number, got \[1\]",
            ),
            (
                "backend_options",
                {"rate": True},
                "backend_options.rate must be a string or a number, got True",
            ),
        ],
    )
    def test_malformed_payload_field_is_rejected(self, tmp_path, field, value, message):
        from repro.execution import RunRequestError, request_from_payload

        with pytest.raises(RunRequestError, match=message):
            request_from_payload(
                {"artifacts": ["table1"], field: value},
                cache_dir=tmp_path,
                runs_dir=tmp_path,
            )

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("workers", 0, "--workers must be >= 1, got 0"),
            ("max_concurrency", 0, "--max-concurrency must be >= 1, got 0"),
            ("rps", 0, "--rps must be > 0, got 0.0"),
            ("max_instances", 0, "--max-instances must be >= 1, got 0"),
            ("chunk_size", -1, "--chunk-size must be >= 0, got -1"),
            ("request_timeout", 0, "--request-timeout must be > 0, got 0.0"),
            ("cell_deadline", -1, "--cell-deadline must be > 0, got -1.0"),
            ("breaker_threshold", -1, "--breaker-threshold must be >= 0, got -1"),
        ],
    )
    def test_bad_knob_payload_is_rejected_like_the_flag(
        self, tmp_path, capsys, knob, value, message
    ):
        from repro.execution import RunRequestError, prepare_run, request_from_payload

        request = request_from_payload(
            {"artifacts": ["table1"], knob: value},
            cache_dir=tmp_path,
            runs_dir=tmp_path,
        )
        with pytest.raises(RunRequestError) as excinfo:
            prepare_run(request)
        assert str(excinfo.value) == message
        flag = "--" + knob.replace("_", "-")
        assert main(["run", "table1", flag, str(value)]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_bad_on_cell_error_payload_gets_the_engine_message(self, tmp_path):
        from repro.execution import RunRequestError, prepare_run, request_from_payload

        request = request_from_payload(
            {"artifacts": ["table1"], "on_cell_error": "x"},
            cache_dir=tmp_path,
            runs_dir=tmp_path,
        )
        with pytest.raises(RunRequestError) as excinfo:
            prepare_run(request)
        assert str(excinfo.value) == (
            "--on-cell-error must be one of ('fail', 'skip', 'degrade'), got 'x'"
        )

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"backend": "openai_compat"}, "openai_compat needs a base_url option"),
            (
                {
                    "backend": "openai_compat",
                    "backend_options": {"base_url": "http://x/v1", "timeout": "soon"},
                },
                "backend option timeout='soon' is not a number",
            ),
            (
                {"backend": "chaos", "backend_options": {"rate": "5"}},
                r"chaos rate must be in \(0, 1\], got 5.0",
            ),
            (
                {"backend": "chaos", "backend_options": {"kind": "404"}},
                "chaos kind must be 429, 500 or timeout",
            ),
            (
                {"backend": "chaos", "backend_options": {"inner": "quantum"}},
                "^unknown backend 'quantum'; expected one of",
            ),
        ],
    )
    def test_unbuildable_backend_is_rejected_when_prepared(
        self, tmp_path, payload, message
    ):
        from repro.execution import RunRequestError, prepare_run, request_from_payload

        request = request_from_payload(
            {"artifacts": ["table6"], **payload},
            cache_dir=tmp_path,
            runs_dir=tmp_path,
        )
        with pytest.raises(RunRequestError, match=message):
            prepare_run(request)

    @pytest.mark.parametrize(
        "flags, line",
        [
            (
                ["--backend", "openai_compat"],
                "openai_compat needs a base_url option "
                "(e.g. --backend-opt base_url=http://localhost:8000/v1)",
            ),
            (
                ["--backend", "chaos", "--backend-opt", "rate=5"],
                "chaos rate must be in (0, 1], got 5.0",
            ),
        ],
    )
    def test_run_rejects_unbuildable_backend_as_usage_error(
        self, tmp_path, capsys, flags, line
    ):
        argv = [
            "run", "table6", "--max-instances", "2", *flags,
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "runs").exists()

    def test_backends_list(self, capsys):
        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "openai_compat" in out
        assert "replay" in out

    def test_run_rejects_unknown_backend(self, capsys):
        assert main(["run", "table1", "--backend", "quantum"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_run_rejects_bad_backend_opt(self, capsys):
        assert main(
            ["run", "table1", "--backend-opt", "not-a-pair"]
        ) == 2
        assert "backend-opt" in capsys.readouterr().err

    def test_run_rejects_replay_flags_without_replay_backend(self, capsys):
        # --record-fixtures on the default backend would silently record
        # nothing while still changing every cell cache key.
        assert main(["run", "table1", "--record-fixtures"]) == 2
        assert "--backend replay" in capsys.readouterr().err
        assert main(["run", "table1", "--fixtures-dir", "fx"]) == 2
        assert "--backend replay" in capsys.readouterr().err

    def test_run_rejects_bad_dispatch_knobs(self, capsys):
        assert main(["run", "table1", "--max-concurrency", "0"]) == 2
        assert "--max-concurrency" in capsys.readouterr().err
        assert main(["run", "table1", "--rps", "-2"]) == 2
        assert "--rps" in capsys.readouterr().err

    def test_run_record_and_replay_fixtures(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        common = [
            "run", "table6",
            "--max-instances", "10",
            "--no-cache", "--no-record",
            "--fixtures-dir", str(fixtures),
        ]
        assert main(common + ["--backend", "replay", "--record-fixtures"]) == 0
        recorded = capsys.readouterr().out
        assert fixtures.is_dir()
        # Replay the same artifact fully offline from the fixtures.
        assert main(common + ["--backend", "replay"]) == 0
        replayed = capsys.readouterr().out
        assert replayed == recorded
        # And the simulated output is byte-identical to the replay.
        assert main(
            [
                "run", "table6", "--max-instances", "10",
                "--no-cache", "--no-record",
            ]
        ) == 0
        assert capsys.readouterr().out == replayed

    def test_run_rejects_bad_max_instances(self, capsys):
        assert main(["run", "table6", "--max-instances", "0"]) == 2
        assert "--max-instances" in capsys.readouterr().err

    def test_report_on_recording_run_replays_instead_of_rerecording(
        self, tmp_path, capsys
    ):
        fixtures = tmp_path / "fixtures"
        runs = tmp_path / "runs"
        cache = tmp_path / "cache"
        assert main(
            [
                "run", "table6", "--max-instances", "10",
                "--cache-dir", str(cache), "--runs-dir", str(runs),
                "--backend", "replay", "--record-fixtures",
                "--fixtures-dir", str(fixtures),
            ]
        ) == 0
        capsys.readouterr()
        before = (fixtures / "gpt4" / "performance_pred.jsonl").read_text()
        assert main(
            [
                "report",
                "--runs-dir", str(runs),
                "--cache-dir", str(cache),
                "--out", str(tmp_path / "reports"),
            ]
        ) == 0
        err = capsys.readouterr().err
        # Reporting must not re-enter record mode: fixtures unchanged.
        assert (fixtures / "gpt4" / "performance_pred.jsonl").read_text() == before
        assert "[report]" in err

    def test_run_record_carries_backend(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        runs = tmp_path / "runs"
        assert main(
            [
                "run", "table6",
                "--max-instances", "10",
                "--no-cache",
                "--runs-dir", str(runs),
                "--backend", "replay",
                "--record-fixtures",
                "--fixtures-dir", str(fixtures),
            ]
        ) == 0
        capsys.readouterr()
        record_files = list(runs.glob("*.json"))
        assert len(record_files) == 1
        run_id = record_files[0].stem
        assert main(["runs", "show", run_id, "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "backend  : replay" in out
        assert "mode=record" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReportingCli:
    """repro run -> runs list/show -> report -> report --compare."""

    @pytest.fixture(scope="class")
    def recorded_run(self, tmp_path_factory):
        """One small recorded run with a warm cache, shared by the class."""
        root = tmp_path_factory.mktemp("reporting-cli")
        args = [
            "run", "table6",
            "--cache-dir", str(root / "cache"),
            "--runs-dir", str(root / "runs"),
        ]
        assert main(args) == 0
        return root

    def test_run_emits_run_record(self, recorded_run):
        records = list((recorded_run / "runs").glob("*.json"))
        assert len(records) == 1

    def test_runs_list_and_show(self, recorded_run, capsys):
        assert main(
            ["runs", "list", "--runs-dir", str(recorded_run / "runs")]
        ) == 0
        out = capsys.readouterr().out
        assert "run_id" in out and "performance_pred" not in out
        run_id = next((recorded_run / "runs").glob("*.json")).stem
        assert main(
            ["runs", "show", run_id, "--runs-dir", str(recorded_run / "runs")]
        ) == 0
        out = capsys.readouterr().out
        assert "performance_pred" in out
        assert "table6" in out

    def test_runs_show_requires_id(self, recorded_run, capsys):
        assert main(
            ["runs", "show", "--runs-dir", str(recorded_run / "runs")]
        ) == 2

    def test_report_warm_cache_zero_model_calls(self, recorded_run, capsys):
        assert main(
            [
                "report",
                "--runs-dir", str(recorded_run / "runs"),
                "--cache-dir", str(recorded_run / "cache"),
                "--out", str(recorded_run / "reports"),
            ]
        ) == 0
        captured = capsys.readouterr()
        # Every cell served from the cache: no model was invoked.
        assert "0 computed" in captured.err
        run_id = next((recorded_run / "runs").glob("*.json")).stem
        bundle = recorded_run / "reports" / run_id
        assert (bundle / "report.md").is_file()
        assert (bundle / "report.json").is_file()
        assert (bundle / "html" / "index.html").is_file()
        assert (bundle / "html" / "task_performance_pred.html").is_file()
        assert "paper Table 6" in (bundle / "report.md").read_text()

    def test_report_without_records_fails(self, tmp_path, capsys):
        assert main(
            ["report", "--runs-dir", str(tmp_path / "empty")]
        ) == 2
        assert "no run records" in capsys.readouterr().err

    def test_compare_detects_injected_regression(self, recorded_run, capsys):
        import json

        runs_dir = recorded_run / "runs"
        source = next(runs_dir.glob("*.json"))
        data = json.loads(source.read_text())
        data["run_id"] = "zz-injected"
        for cell in data["cells"]:
            if cell["model"] == "gpt4":
                cell["metrics"]["binary.f1"] -= 0.2
        (runs_dir / "zz-injected.json").write_text(json.dumps(data))
        code = main(
            [
                "report",
                "--compare", source.stem, "zz-injected",
                "--runs-dir", str(runs_dir),
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "binary.f1" in out
        # The clean direction: comparing a run against itself passes.
        assert main(
            [
                "report",
                "--compare", source.stem, source.stem,
                "--runs-dir", str(runs_dir),
            ]
        ) == 0

    def test_corrupt_record_is_a_clean_error(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "broken-run.json").write_text("{not json")
        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 2
        assert "unreadable" in capsys.readouterr().err
        assert main(
            ["runs", "show", "broken-run", "--runs-dir", str(runs_dir)]
        ) == 2
        assert main(["report", "--runs-dir", str(runs_dir)]) == 2

    def test_compare_unknown_run_fails(self, recorded_run, capsys):
        assert main(
            [
                "report",
                "--compare", "nope-a", "nope-b",
                "--runs-dir", str(recorded_run / "runs"),
            ]
        ) == 2
