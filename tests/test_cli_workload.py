"""CLI workload-grid mode: ``repro run --workload`` end to end."""

from repro.cli import main
from repro.reporting.run_record import RunRecordStore

SPEC = "synthetic:setops:n=2"


class TestValidation:
    def test_run_without_artifacts_or_workload_fails(self, capsys):
        assert main(["run"]) == 2
        assert "requires artifact ids or --workload" in capsys.readouterr().err

    def test_strata_without_workload_fails(self, capsys):
        assert main(["run", "table1", "--strata", "flat"]) == 2
        assert "--strata requires --workload" in capsys.readouterr().err

    def test_bad_spec_fails(self, capsys):
        assert main(["run", "--workload", "synthetic:nope"]) == 2
        assert "unknown synthetic profile" in capsys.readouterr().err

    def test_unknown_workload_fails(self, capsys):
        assert main(["run", "--workload", "mystery"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_strata_name_fails(self, capsys):
        assert main(["run", "--workload", "synthetic:default", "--strata", "bogus"]) == 2

    def test_positional_args_must_be_tasks_in_workload_mode(self, capsys):
        assert main(["run", "table1", "--workload", SPEC]) == 2
        assert "unknown tasks" in capsys.readouterr().err


class TestWorkloadGrid:
    def test_grid_run_records_and_reports_strata(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        runs = tmp_path / "runs"
        assert (
            main(
                [
                    "run",
                    "syntax_error",
                    "--workload",
                    SPEC,
                    "--max-instances",
                    "8",
                    "--cache-dir",
                    str(cache),
                    "--runs-dir",
                    str(runs),
                ]
            )
            == 0
        )
        out = capsys.readouterr()
        assert f"Task syntax_error over workload {SPEC}" in out.out
        assert "binary.f1" in out.out

        store = RunRecordStore(runs)
        record = store.latest()
        assert record is not None
        assert record.notes.startswith("workload grid over")
        assert {cell.workload for cell in record.cells} == {SPEC}
        assert {cell.task for cell in record.cells} == {"syntax_error"}

        reports = tmp_path / "reports"
        assert (
            main(
                [
                    "report",
                    "--runs-dir",
                    str(runs),
                    "--cache-dir",
                    str(cache),
                    "--out",
                    str(reports),
                ]
            )
            == 0
        )
        capsys.readouterr()
        markdown = (reports / record.run_id / "report.md").read_text("utf-8")
        assert "## Accuracy vs complexity (synthetic strata)" in markdown
        assert "| stratum | n |" in markdown

    def test_strata_filter_narrows_the_dataset(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "miss_token",
                    "--workload",
                    "synthetic:default:n=2",
                    "--strata",
                    "flat,wide",
                    "--no-cache",
                    "--runs-dir",
                    str(tmp_path / "runs"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        record = RunRecordStore(tmp_path / "runs").latest()
        assert record is not None
        expected = "synthetic:default:strata=flat+wide:n=2"
        assert {cell.workload for cell in record.cells} == {expected}

    def test_paper_workload_defaults_to_its_applicable_tasks(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "--workload",
                    "spider",
                    "--max-instances",
                    "6",
                    "--no-cache",
                    "--runs-dir",
                    str(tmp_path / "runs"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        record = RunRecordStore(tmp_path / "runs").latest()
        assert {cell.task for cell in record.cells} == {"query_exp"}

    def test_inapplicable_task_for_workload_fails(self, capsys):
        assert main(["run", "performance_pred", "--workload", "spider"]) == 2
        assert "it supports: query_exp" in capsys.readouterr().err

    def test_unknown_workload_message_has_no_wrapping_quotes(self, capsys):
        assert main(["run", "--workload", "mystery"]) == 2
        err = capsys.readouterr().err
        assert not err.startswith('"')
        assert err.startswith("unknown workload")

    def test_strata_flag_conflicts_with_spec_strata_segment(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--workload",
                    "synthetic:default:strata=flat",
                    "--strata",
                    "join1",
                ]
            )
            == 2
        )
        assert "conflicts" in capsys.readouterr().err

    def test_empty_strata_value_fails_loudly(self, capsys):
        assert main(["run", "--workload", "synthetic:default", "--strata", ""]) == 2
        assert "at least one stratum" in capsys.readouterr().err


class TestCacheInfoAfterChunkedRun:
    def test_counts_segmented_entries_once_each(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "run", "syntax_error", "miss_token",
            "--workload", "synthetic:default:n=4",
            "--chunk-size", "50",
            "--cache-dir", str(cache),
            "--no-record",
        ]
        assert main(argv) == 0
        assert "cells computed=10 cached=0" in capsys.readouterr().err
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        info = dict(
            (field.strip() for field in line.split(":", 1))
            for line in capsys.readouterr().out.splitlines()
        )
        # Two tasks x five models; one dataset per task; one workload spill.
        assert (info["cells"], info["datasets"], info["workloads"]) == ("10", "2", "1")
        assert int(info["size"].split()[0]) > 0
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert [path for path in cache.rglob("*") if path.is_file()] == []
