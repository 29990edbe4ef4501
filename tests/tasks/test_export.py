"""Benchmark export/reload tests."""

import json

import pytest

from repro.tasks import build_dataset
from repro.tasks.export import (
    dataset_from_dict,
    dataset_to_dict,
    export_benchmark,
    export_dataset,
    load_dataset,
)
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("syntax_error", load_workload("sdss", seed=0), seed=0)


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, dataset):
        reloaded = dataset_from_dict(dataset_to_dict(dataset))
        assert len(reloaded) == len(dataset)
        for original, loaded in zip(dataset.instances, reloaded.instances):
            assert loaded.instance_id == original.instance_id
            assert loaded.payload == original.payload
            assert loaded.label == original.label
            assert loaded.label_type == original.label_type
            assert loaded.props.word_count == original.props.word_count

    def test_file_round_trip(self, dataset, tmp_path):
        path = export_dataset(dataset, tmp_path / "syntax_error__sdss.json")
        assert path.exists()
        reloaded = load_dataset(path)
        assert len(reloaded) == len(dataset)
        assert reloaded.task == "syntax_error"

    def test_export_is_valid_sorted_json(self, dataset, tmp_path):
        path = export_dataset(dataset, tmp_path / "d.json")
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["size"] == len(dataset)

    def test_version_check(self, dataset):
        payload = dataset_to_dict(dataset)
        payload["version"] = 99
        with pytest.raises(ValueError):
            dataset_from_dict(payload)


class TestBenchmarkExport:
    def test_selected_tasks_exported(self, tmp_path):
        written = export_benchmark(
            tmp_path, seed=0, tasks=["performance_pred", "query_exp"]
        )
        names = {path.name for path in written}
        assert names == {
            "performance_pred__sdss.json",
            "query_exp__spider.json",
        }

    def test_cli_export(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["export", "--out", str(tmp_path), "--tasks", "performance_pred"]
        )
        assert code == 0
        assert (tmp_path / "performance_pred__sdss.json").exists()
