"""Segmented cache entries: round-trips, atomicity, corruption recovery.

A streamed cell's cache entry is a directory of fixed-size segments
plus a manifest written *last* — the manifest is the commit point, so a
crashed or failed run can never leave a readable partial entry.  A
truncated or tampered segment surfaces as :class:`CacheSegmentError`,
which every consumer treats as a miss followed by a clean recompute.
"""

import json
import pickle

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.engine.cache import CacheSegmentError, ResultCache
from repro.llm.profiles import MODEL_PROFILES
from repro.tasks.base import ModelAnswer
from repro.tasks.registry import build_dataset
from repro.workloads import load_workload

SEED = 5


def _answers(n, prefix="a"):
    return [
        ModelAnswer(
            instance_id=f"{prefix}-{i}",
            model="gpt4",
            response_text="Yes." if i % 2 else "No.",
            predicted=bool(i % 2),
        )
        for i in range(n)
    ]


def _gpt4():
    return next(p for p in MODEL_PROFILES if p.name == "gpt4")


class TestCellSegmentRoundTrip:
    def test_round_trip_preserves_chunks(self, tmp_path):
        cache = ResultCache(tmp_path)
        chunks = [_answers(4, "c0"), _answers(4, "c1"), _answers(2, "c2")]
        for index, chunk in enumerate(chunks):
            cache.put_cell_segment("k" * 16, index, chunk)
        cache.commit_cell_segments(
            "k" * 16, 4, [len(c) for c in chunks], meta={"model": "gpt4"}
        )
        assert list(cache.iter_cell_segments("k" * 16)) == chunks
        manifest = cache.get_cell_manifest("k" * 16)
        assert manifest["total"] == 10
        assert manifest["meta"]["model"] == "gpt4"

    def test_uncommitted_segments_are_invisible(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_cell_segment("k" * 16, 0, _answers(3))
        assert cache.get_cell_manifest("k" * 16) is None
        with pytest.raises(CacheSegmentError):
            list(cache.iter_cell_segments("k" * 16))
        # The whole-entry getter treats the orphaned segments as a miss.
        assert cache.get("k" * 16) is None

    def test_discard_removes_segments_and_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_cell_segment("k" * 16, 0, _answers(3))
        cache.commit_cell_segments("k" * 16, 3, [3])
        cache.put_dataset_segment("d" * 16, 0, ["x"])
        cache.commit_dataset_segments(
            "d" * 16, 1, [1], meta={"task": "t", "workload": "w"}
        )
        assert list(cache.put_workload("w" * 16, ["q"], 1)) == ["q"]
        cache.discard_segments("k" * 16)
        cache.discard_segments("d" * 16)
        cache.discard_segments("w" * 16)
        assert cache.get_cell_manifest("k" * 16) is None
        assert cache.get_dataset_manifest("d" * 16) is None
        assert cache.get_workload("w" * 16) is None
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_no_temp_files_survive_a_write(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_cell_segment("k" * 16, 0, _answers(3))
        cache.commit_cell_segments("k" * 16, 3, [3])
        assert list(tmp_path.rglob("*.tmp.*")) == []


class TestDatasetSegmentRoundTrip:
    def test_round_trip_and_reassembly(self, tmp_path):
        cache = ResultCache(tmp_path)
        dataset = build_dataset(
            "syntax_error", load_workload("join_order", SEED), seed=SEED
        )
        chunks = [
            dataset.instances[i : i + 50]
            for i in range(0, len(dataset.instances), 50)
        ]
        for index, chunk in enumerate(chunks):
            cache.put_dataset_segment("d" * 16, index, chunk)
        cache.commit_dataset_segments(
            "d" * 16,
            50,
            [len(c) for c in chunks],
            meta={"task": dataset.task, "workload": dataset.workload},
        )
        assert list(cache.iter_dataset_segments("d" * 16)) == chunks
        # The whole-entry getter reads the same segments.
        reassembled = cache.get_dataset("d" * 16)
        assert reassembled is not None
        assert reassembled.task == dataset.task
        assert reassembled.instances == dataset.instances


class TestSegmentCorruption:
    def _committed_cell(self, cache, chunks):
        for index, chunk in enumerate(chunks):
            cache.put_cell_segment("k" * 16, index, chunk)
        cache.commit_cell_segments("k" * 16, 4, [len(c) for c in chunks])

    def test_truncated_segment_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._committed_cell(cache, [_answers(4, "c0"), _answers(4, "c1")])
        segment = next(tmp_path.glob("cells/*/*/seg-00001.json"))
        segment.write_bytes(segment.read_bytes()[: segment.stat().st_size // 2])
        with pytest.raises(CacheSegmentError):
            list(cache.iter_cell_segments("k" * 16))

    def test_length_drift_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._committed_cell(cache, [_answers(4, "c0")])
        segment = next(tmp_path.glob("cells/*/*/seg-00000.json"))
        payload = json.loads(segment.read_text())
        segment.write_text(json.dumps(payload[:-1]))
        with pytest.raises(CacheSegmentError):
            list(cache.iter_cell_segments("k" * 16))

    def test_truncated_dataset_segment_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_dataset_segment("d" * 16, 0, ["payload"] * 5)
        cache.commit_dataset_segments(
            "d" * 16, 5, [5], meta={"task": "t", "workload": "w"}
        )
        segment = next(tmp_path.glob("datasets/*/seg-00000.pkl"))
        segment.write_bytes(segment.read_bytes()[:10])
        with pytest.raises(CacheSegmentError):
            list(cache.iter_dataset_segments("d" * 16))
        with pytest.raises((CacheSegmentError, pickle.UnpicklingError, EOFError)):
            pickle.loads(segment.read_bytes())


class TestCorruptionRecoversViaRecompute:
    """Corruption repro: truncate a committed segment, expect a clean
    recompute with identical results — never a crash, never bad data."""

    def test_truncated_cell_segment_recomputes_cleanly(self, tmp_path):
        workload_name = "synthetic:default:n=10"
        config = EngineConfig(seed=SEED, chunk_size=25, cache_dir=tmp_path)
        with ExperimentEngine(config, (_gpt4(),)) as engine:
            reference = engine.run_cell("gpt4", "syntax_error", workload_name)
        segment = next(tmp_path.glob("cells/*/*/seg-00001.json"))
        segment.write_bytes(segment.read_bytes()[: segment.stat().st_size // 3])
        with ExperimentEngine(config, (_gpt4(),)) as engine:
            recovered = engine.run_cell("gpt4", "syntax_error", workload_name)
            assert engine.computed_cells == 1 and engine.cached_cells == 0
        assert (recovered.binary, recovered.typed) == (
            reference.binary,
            reference.typed,
        )
        # The recompute rewrote the entry; a third run serves it warm.
        with ExperimentEngine(config, (_gpt4(),)) as engine:
            engine.run_cell("gpt4", "syntax_error", workload_name)
            assert engine.cached_cells == 1

    def test_truncated_dataset_segment_recomputes_cleanly(self, tmp_path):
        workload_name = "synthetic:default:n=10"
        config = EngineConfig(seed=SEED, chunk_size=25, cache_dir=tmp_path)
        with ExperimentEngine(config, (_gpt4(),)) as engine:
            reference = engine.run_cell("gpt4", "miss_token", workload_name)
        segment = next(tmp_path.glob("datasets/*/seg-00000.pkl"))
        segment.write_bytes(segment.read_bytes()[:20])
        # Invalidate the cell entry too, so the dataset segments are
        # actually re-read (a warm cell serve streams the dataset).
        for path in tmp_path.glob("cells/*/*/manifest.json"):
            path.unlink()
        with ExperimentEngine(config, (_gpt4(),)) as engine:
            recovered = engine.run_cell("gpt4", "miss_token", workload_name)
        assert (recovered.binary, recovered.typed) == (
            reference.binary,
            reference.typed,
        )
