"""Result-cache behaviour: round-trips, content addressing, resilience."""

import dataclasses
import json
import sys
import threading

import pytest

from repro.cli import main
from repro.engine import EngineConfig, ExperimentEngine
from repro.engine.cache import (
    ResultCache,
    answer_from_dict,
    answer_to_dict,
    cell_key,
    dataset_key,
    prompt_fingerprint,
)
from repro.llm.profiles import GPT4, SYNTAX
from repro.prompts.templates import TUNED_PROMPTS, PromptTemplate
from repro.tasks.base import ModelAnswer


def _answers(n=3):
    return [
        ModelAnswer(
            instance_id=f"q{i}",
            model="gpt4",
            response_text=f"Yes, error at {i}.",
            predicted=bool(i % 2),
            predicted_type="aggr-attr" if i % 2 else None,
            predicted_position=i,
            explanation="because",
            flaws=("detail-drop",) if i == 2 else (),
        )
        for i in range(n)
    ]


class TestSerialization:
    def test_answer_roundtrip(self):
        for answer in _answers():
            assert answer_from_dict(answer_to_dict(answer)) == answer

    def test_roundtrip_survives_json(self):
        answer = _answers()[2]
        rehydrated = answer_from_dict(json.loads(json.dumps(answer_to_dict(answer))))
        assert rehydrated == answer
        assert isinstance(rehydrated.flaws, tuple)


class TestProfileHashing:
    def test_profiles_are_hashable_and_picklable(self):
        import pickle

        assert isinstance(hash(GPT4), int)
        clone = pickle.loads(pickle.dumps(GPT4))
        assert clone == GPT4
        assert hash(clone) == hash(GPT4)
        assert clone.fingerprint() == GPT4.fingerprint()

    def test_tweaked_profile_hashes_differently(self):
        tweaked = dataclasses.replace(GPT4, verbosity=GPT4.verbosity + 0.1)
        assert tweaked.name == GPT4.name
        assert hash(tweaked) != hash(GPT4)
        assert tweaked.fingerprint() != GPT4.fingerprint()


class TestCellKey:
    def test_key_is_stable(self):
        args = (3, GPT4, "syntax_error", "sdss", 40, None)
        assert cell_key(*args) == cell_key(*args)

    def test_key_sensitive_to_every_input(self):
        base = cell_key(3, GPT4, "syntax_error", "sdss", 40, None)
        assert cell_key(4, GPT4, "syntax_error", "sdss", 40, None) != base
        assert cell_key(3, GPT4, "miss_token", "sdss", 40, None) != base
        assert cell_key(3, GPT4, "syntax_error", "sqlshare", 40, None) != base
        assert cell_key(3, GPT4, "syntax_error", "sdss", 41, None) != base
        assert cell_key(3, GPT4, "syntax_error", "sdss", None, None) != base

    def test_key_sensitive_to_profile_content(self):
        tweaked = dataclasses.replace(
            GPT4,
            skills={
                **GPT4.skills,
                SYNTAX: dataclasses.replace(GPT4.skills[SYNTAX], competence=0.5),
            },
        )
        assert tweaked.name == GPT4.name
        assert (
            cell_key(3, tweaked, "syntax_error", "sdss", 40, None)
            != cell_key(3, GPT4, "syntax_error", "sdss", 40, None)
        )

    def test_key_sensitive_to_prompt(self):
        untuned = PromptTemplate(
            task="syntax_error", name="untuned", text="Broken? {query}", quality=0.8
        )
        assert (
            cell_key(3, GPT4, "syntax_error", "sdss", 40, untuned)
            != cell_key(3, GPT4, "syntax_error", "sdss", 40, None)
        )

    def test_default_prompt_aliases_explicit_tuned_prompt(self):
        tuned = TUNED_PROMPTS["syntax_error"]
        assert prompt_fingerprint("syntax_error", None) == prompt_fingerprint(
            "syntax_error", tuned
        )
        assert cell_key(3, GPT4, "syntax_error", "sdss", 40, tuned) == cell_key(
            3, GPT4, "syntax_error", "sdss", 40, None
        )


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        answers = _answers()
        cache.put("ab" + "0" * 62, answers)
        assert cache.get("ab" + "0" * 62) == answers
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ff" + "0" * 62) is None
        assert cache.stats.misses == 1

    def test_misaligned_instance_ids_are_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, _answers(3))
        assert cache.get(key, expected_ids=["q0", "q1", "q2"]) is not None
        assert cache.get(key, expected_ids=["q0", "q1"]) is None  # length
        assert cache.get(key, expected_ids=["q0", "qX", "q2"]) is None  # ids

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "0" * 62
        cache.put(key, _answers())
        cache._segment_path("cells", key, 0).write_text("{not json")
        assert cache.get(key) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "aa" + "0" * 62
        manifest = cache.put(key, _answers())
        payload = json.loads(manifest.read_text())
        payload["version"] = -1
        manifest.write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, _answers())
        cache.put("bb" + "0" * 62, _answers())
        assert len(cache.entries()) == 2
        assert cache.size_bytes() > 0
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_meta_is_persisted_for_auditing(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "0f" + "0" * 62
        path = cache.put(key, _answers(), meta={"task": "syntax_error"})
        assert json.loads(path.read_text())["meta"]["task"] == "syntax_error"


class TestDatasetCache:
    def _dataset(self):
        from repro.tasks.base import TaskDataset, TaskInstance

        dataset = TaskDataset(task="syntax_error", workload="sdss")
        dataset.instances.append(
            TaskInstance(
                instance_id="q0-syn",
                task="syntax_error",
                workload="sdss",
                schema_name="s",
                payload={"query": "SELECT 1"},
                label=True,
                label_type="aggr-attr",
            )
        )
        return dataset

    def test_dataset_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = dataset_key("syntax_error", "sdss", 0, None)
        assert cache.get_dataset(key) is None
        cache.put_dataset(key, self._dataset())
        loaded = cache.get_dataset(key)
        assert loaded is not None
        assert loaded.task == "syntax_error"
        assert loaded.instances[0].instance_id == "q0-syn"
        assert cache.stats.dataset_hits == 1
        assert cache.stats.dataset_misses == 1

    def test_dataset_key_sensitive_to_inputs(self):
        base = dataset_key("syntax_error", "sdss", 0, None)
        assert dataset_key("miss_token", "sdss", 0, None) != base
        assert dataset_key("syntax_error", "sqlshare", 0, None) != base
        assert dataset_key("syntax_error", "sdss", 1, None) != base
        assert dataset_key("syntax_error", "sdss", 0, 40) != base

    def test_corrupt_dataset_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = dataset_key("syntax_error", "sdss", 0, None)
        cache.put_dataset(key, self._dataset())
        cache._segment_path("datasets", key, 0).write_bytes(b"\x80garbage")
        assert cache.get_dataset(key) is None

    def test_clear_removes_datasets_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "0" * 62, _answers())
        cache.put_dataset(dataset_key("syntax_error", "sdss", 0, None), self._dataset())
        assert len(cache.dataset_entries()) == 1
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.dataset_entries() == []

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        entry = cache.put("aa" + "0" * 62, _answers())
        orphan = entry.with_name(entry.name + ".tmp.interrupted")
        orphan.write_text("{half")
        cache.clear()
        assert not orphan.exists()


class TestRetiredLayout:
    """Files of the layout before one entry format (``cells/xy/<key>.json``,
    ``datasets/<key>.pkl``, ``workloads/<key>.pkl``): no reader looks them
    up, but ``cache info`` counts their bytes and ``cache clear`` removes
    them."""

    def _info(self, root, capsys) -> dict:
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        return dict(
            (part.strip() for part in line.split(":", 1))
            for line in capsys.readouterr().out.splitlines()
        )

    def test_clear_removes_retired_files(self, tmp_path, capsys):
        key = "ab" + "3" * 62
        for path in (
            tmp_path / "cells" / "ab" / f"{key}.json",
            tmp_path / "datasets" / f"{key}.pkl",
            tmp_path / "workloads" / f"{key}.pkl",
        ):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"retired")
        info = self._info(tmp_path, capsys)
        assert (info["cells"], info["datasets"], info["workloads"]) == ("0", "0", "0")
        assert info["size"] == "21 bytes"
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
        info = self._info(tmp_path, capsys)
        assert (info["cells"], info["datasets"], info["workloads"]) == ("0", "0", "0")
        assert info["size"] == "0 bytes"


class TestCountersOnBothPaths:
    """One cell, cold then warm: both data paths count the same cache
    traffic (one lookup of the cell and one of its dataset per run)."""

    @pytest.mark.parametrize("chunk_size", (None, 25), ids=("materialised", "chunked"))
    def test_cold_then_warm(self, tmp_path, chunk_size):
        config = EngineConfig(seed=5, chunk_size=chunk_size, cache_dir=tmp_path)
        expected = (
            {"hits": 0, "misses": 1, "writes": 1, "dataset_hits": 0, "dataset_misses": 1},
            {"hits": 1, "misses": 0, "writes": 0, "dataset_hits": 1, "dataset_misses": 0},
        )
        for counts in expected:
            with ExperimentEngine(config, (GPT4,)) as engine:
                engine.run_cell("gpt4", "syntax_error", "synthetic:default:n=10")
                assert engine.cache.stats.as_dict() == counts


class TestConcurrentWrites:
    """``repro serve`` runs jobs on threads of one process, and two jobs
    can share a cell key: concurrent writers of one entry never collide."""

    def test_threads_writing_one_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "2" * 62
        answers = _answers(5)
        errors: list[Exception] = []

        def writer() -> None:
            for _ in range(40):
                try:
                    cache.put(key, answers)
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.get(key) == answers
        assert list(tmp_path.rglob("*.tmp.*")) == []
