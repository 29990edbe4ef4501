"""Backend tests: simulated answer digests, replay round-trips,
openai_compat wire handling, registry and spec plumbing."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.llm.backends import (
    BackendError,
    BackendSpec,
    SIMULATED_SPEC,
    TransientBackendError,
    backend_names,
    create_backend,
    describe_backends,
    dispatch_requests,
    spec_from_cli,
)
from repro.llm.backends.openai_compat import (
    OpenAICompatBackend,
    parse_model_map,
)
from repro.llm.backends.replay import FixtureStore, ReplayBackend
from repro.llm.profiles import GPT4, MODEL_PROFILES, get_profile
from repro.prompts.templates import prompt_for, variants_for
from repro.tasks.base import PRIMARY_TASKS, REWRITE_TASKS
from repro.tasks.registry import (
    TASK_WORKLOADS,
    answers_from_responses,
    build_dataset,
    build_request,
)
from repro.tasks.streaming import iter_task_instances
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def sdss():
    return load_workload("sdss", 0)


def _instances(workload, task, count=6):
    return build_dataset(task, workload, seed=0).instances[:count]


#: sha256 of every simulated answer field over the first 8 instances of
#: each task (paper workloads at seed 0; ``synthetic:rewrite:n=8`` for
#: the rewrite tasks), for all five profiles under the tuned prompt and
#: one lower-quality variant.  Any change to the simulator's noise, the
#: prompt plumbing or response extraction moves these.
SIMULATED_ANSWER_DIGESTS = {
    "syntax_error": "62e37912aab91830704eba979c1b8df7b56765745261d217d27f49e0eb2e9eae",
    "miss_token": "fc451c412b81d5f9e3bbe733081c0d1101f9e05b2e3265851aba8788b4fff1b6",
    "query_equiv": "168eb4f5444c5b7e144b3cec9b31864854ec5df4c01063c1d2018a168145a40b",
    "performance_pred": "117c4e4b6ee04bca720e43e119724d84c1211d6e6a34498a8f6434260af38c64",
    "query_exp": "150a4cfc9bd8a26f7c0fc6f8d5657a86b5c8003c9095be55ee13b9f2124897f2",
    "rewrite_equivalence": "5adc060b1f5f3b98dde444c27820f2073124ab3f5c537d5ae5de6d27ee1634e7",
    "rewrite_speedup": "999fd18a4de87d7f3925081be48dc8ea74684c39cba39375ba3ba23e6a2da1d7",
}


class TestSimulatedBackend:
    @pytest.mark.parametrize("task", PRIMARY_TASKS + REWRITE_TASKS)
    def test_answers_match_recorded_digest(self, task):
        tuned = prompt_for(task)
        prompts = [tuned] + [
            variant for variant in variants_for(task) if variant.quality < tuned.quality
        ][:1]
        digest = hashlib.sha256()
        for workload_name in TASK_WORKLOADS.get(task, ("synthetic:rewrite:n=8",)):
            workload = load_workload(workload_name, 0)
            instances = list(iter_task_instances(task, workload, 0, 8))
            for profile in MODEL_PROFILES:
                backend = create_backend(SIMULATED_SPEC, profile)
                for prompt in prompts:
                    responses = [
                        backend.complete(
                            build_request(task, profile.name, instance, prompt)
                        )
                        for instance in instances
                    ]
                    answers = answers_from_responses(
                        task, instances, responses, profile.name
                    )
                    rows = [
                        [
                            a.instance_id,
                            a.response_text,
                            a.predicted,
                            a.predicted_type,
                            a.predicted_position,
                            a.explanation,
                            list(a.flaws),
                        ]
                        for a in answers
                    ]
                    digest.update(json.dumps(rows).encode())
        assert digest.hexdigest() == SIMULATED_ANSWER_DIGESTS[task]

    def test_rejects_bare_prompt(self):
        from repro.llm.backends.base import ModelRequest

        backend = create_backend(SIMULATED_SPEC, GPT4)
        with pytest.raises(BackendError):
            backend.complete(
                ModelRequest(
                    request_id="x", task="syntax_error",
                    model="gpt4", prompt_text="hi",
                )
            )


class TestReplayBackend:
    def _requests(self, sdss, task="syntax_error", count=5):
        return [
            build_request(task, "gpt4", instance)
            for instance in _instances(sdss, task, count)
        ]

    def test_record_then_replay_round_trip(self, tmp_path, sdss):
        requests = self._requests(sdss)
        record_spec = BackendSpec.build(
            "replay", {"dir": str(tmp_path), "mode": "record"}
        )
        recorder = create_backend(record_spec, GPT4)
        recorded = dispatch_requests(recorder, requests)

        replay_spec = BackendSpec.build("replay", {"dir": str(tmp_path)})
        replayer = create_backend(replay_spec, GPT4)
        replayed = dispatch_requests(replayer, requests)
        assert [r.text for r in replayed] == [r.text for r in recorded]
        assert [r.metadata for r in replayed] == [
            json.loads(json.dumps(r.metadata)) for r in recorded
        ]

    def test_missing_fixture_is_loud(self, tmp_path, sdss):
        replayer = create_backend(
            BackendSpec.build("replay", {"dir": str(tmp_path)}), GPT4
        )
        with pytest.raises(BackendError, match="no fixture"):
            dispatch_requests(replayer, self._requests(sdss, count=1))

    def test_fixture_layout_on_disk(self, tmp_path, sdss):
        recorder = create_backend(
            BackendSpec.build("replay", {"dir": str(tmp_path), "mode": "record"}),
            GPT4,
        )
        dispatch_requests(recorder, self._requests(sdss, count=3))
        shard = tmp_path / "gpt4" / "syntax_error.jsonl"
        assert shard.is_file()
        lines = [
            json.loads(line) for line in shard.read_text().splitlines() if line
        ]
        assert len(lines) == 3
        for entry in lines:
            assert set(entry) == {"key", "request_id", "text", "model", "metadata"}

    def test_duplicate_records_are_tolerated(self, tmp_path, sdss):
        requests = self._requests(sdss, count=2)
        spec = BackendSpec.build("replay", {"dir": str(tmp_path), "mode": "record"})
        first = dispatch_requests(create_backend(spec, GPT4), requests)
        # A fresh recorder re-records over the same file; replay still
        # resolves each key to one (identical) response.
        dispatch_requests(create_backend(spec, GPT4), requests)
        store = FixtureStore(tmp_path)
        assert store.entry_count() == 2  # identical re-records write nothing
        replayed = dispatch_requests(
            create_backend(BackendSpec.build("replay", {"dir": str(tmp_path)}), GPT4),
            requests,
        )
        assert [r.text for r in replayed] == [r.text for r in first]

    def test_rerecording_refreshes_stale_fixtures(self, tmp_path, sdss):
        requests = self._requests(sdss, count=2)
        spec = BackendSpec.build("replay", {"dir": str(tmp_path), "mode": "record"})
        dispatch_requests(create_backend(spec, GPT4), requests)
        # Hand-corrupt one fixture's text: a stale entry for a live key.
        shard = tmp_path / "gpt4" / "syntax_error.jsonl"
        lines = [json.loads(l) for l in shard.read_text().splitlines()]
        lines[0]["text"] = "STALE RESPONSE"
        shard.write_text("".join(json.dumps(l, sort_keys=True) + "\n" for l in lines))
        # Re-recording goes through the inner backend and appends the
        # corrected line, which wins over the stale one on replay.
        fresh = dispatch_requests(create_backend(spec, GPT4), requests)
        replayed = dispatch_requests(
            create_backend(BackendSpec.build("replay", {"dir": str(tmp_path)}), GPT4),
            requests,
        )
        assert "STALE RESPONSE" not in [r.text for r in replayed]
        assert [r.text for r in replayed] == [r.text for r in fresh]

    def test_torn_fixture_line_is_skipped(self, tmp_path, sdss):
        requests = self._requests(sdss, count=2)
        spec = BackendSpec.build("replay", {"dir": str(tmp_path), "mode": "record"})
        dispatch_requests(create_backend(spec, GPT4), requests)
        shard = tmp_path / "gpt4" / "syntax_error.jsonl"
        shard.write_text(
            shard.read_text() + '{"key": "torn-and-not-even-json'
        )
        replayed = dispatch_requests(
            create_backend(BackendSpec.build("replay", {"dir": str(tmp_path)}), GPT4),
            requests,
        )
        assert len(replayed) == 2

    def test_replay_mode_validation(self, tmp_path):
        with pytest.raises(BackendError, match="replay mode"):
            ReplayBackend(
                GPT4,
                BackendSpec.build(
                    "replay", {"dir": str(tmp_path), "mode": "bogus"}
                ),
            )
        with pytest.raises(BackendError, match="record from itself"):
            ReplayBackend(
                GPT4,
                BackendSpec.build(
                    "replay",
                    {"dir": str(tmp_path), "mode": "record", "inner": "replay"},
                ),
            )


class _FakeTransport:
    """Scripted transport for the OpenAI-compatible backend."""

    def __init__(self, script):
        self.script = list(script)
        self.calls: list[dict] = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append(
            {"url": url, "payload": payload, "headers": headers, "timeout": timeout}
        )
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def _completion(text="Yes."):
    return {
        "choices": [
            {"message": {"content": text}, "finish_reason": "stop"}
        ],
        "usage": {"total_tokens": 12},
    }


class TestOpenAICompatBackend:
    def _backend(self, transport, options=None):
        spec = BackendSpec.build(
            "openai_compat",
            {"base_url": "http://localhost:9999/v1", **(options or {})},
        )
        return OpenAICompatBackend(GPT4, spec, transport=transport)

    def _request(self):
        return build_request(
            "syntax_error",
            "gpt4",
            _instances(load_workload("sdss", 0), "syntax_error", 1)[0],
        )

    def test_requires_base_url(self):
        with pytest.raises(BackendError, match="base_url"):
            OpenAICompatBackend(
                GPT4, BackendSpec.build("openai_compat"), transport=lambda *a: {}
            )

    def test_request_and_response_wiring(self, monkeypatch):
        transport = _FakeTransport([_completion("Answer: yes.")])
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        backend = self._backend(transport, {"model": "gpt-4o", "temperature": "0.5"})
        response = backend.complete(self._request())
        assert response.text == "Answer: yes."
        assert response.model == "gpt4"  # profile name, not remote name
        assert response.metadata["remote_model"] == "gpt-4o"
        call = transport.calls[0]
        assert call["url"].endswith("/chat/completions")
        assert call["payload"]["model"] == "gpt-4o"
        assert call["payload"]["temperature"] == 0.5
        assert call["payload"]["messages"][0]["content"].startswith("Does the")
        assert call["headers"]["Authorization"] == "Bearer sk-test"

    def test_model_map_renames_per_profile(self):
        transport = _FakeTransport([_completion(), _completion()])
        spec_options = {"model_map": "gpt4=gpt-4o-mini,gemini=gemini-1.5-pro"}
        backend = self._backend(transport, spec_options)
        backend.complete(self._request())
        assert transport.calls[0]["payload"]["model"] == "gpt-4o-mini"
        gemini_backend = OpenAICompatBackend(
            get_profile("gemini"),
            BackendSpec.build(
                "openai_compat",
                {"base_url": "http://h/v1", **spec_options},
            ),
            transport=transport,
        )
        assert gemini_backend.remote_model == "gemini-1.5-pro"

    def test_transient_errors_retry_through_dispatcher(self):
        transport = _FakeTransport(
            [TransientBackendError("429"), _completion("No.")]
        )
        backend = self._backend(transport)
        responses = dispatch_requests(backend, [self._request()])
        assert responses[0].text == "No."
        assert len(transport.calls) == 2

    def test_malformed_response_is_terminal(self):
        backend = self._backend(_FakeTransport([{"nope": True}]))
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(self._request())

    def test_parse_model_map_rejects_garbage(self):
        assert parse_model_map("") == {}
        assert parse_model_map("a=b, c=d") == {"a": "b", "c": "d"}
        with pytest.raises(ValueError):
            parse_model_map("novalue")

    def test_close_releases_pooled_transport(self):
        closed = []
        transport = _FakeTransport([])
        transport.close = lambda: closed.append(True)
        backend = self._backend(transport)
        backend.close()
        assert closed == [True]


class TestRegistryAndSpecs:
    def test_registry_names(self):
        assert backend_names() == ["simulated", "openai_compat", "replay", "chaos"]
        assert [name for name, _ in describe_backends()] == backend_names()

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown backend"):
            create_backend(BackendSpec.build("quantum"), GPT4)

    def test_spec_fingerprints_differ_by_name_and_options(self):
        base = BackendSpec.build("openai_compat", {"base_url": "http://a/v1"})
        assert base.fingerprint() == BackendSpec.build(
            "openai_compat", {"base_url": "http://a/v1"}
        ).fingerprint()
        assert (
            base.fingerprint()
            != BackendSpec.build(
                "openai_compat", {"base_url": "http://b/v1"}
            ).fingerprint()
        )
        assert base.fingerprint() != SIMULATED_SPEC.fingerprint()

    def test_spec_is_picklable_and_hashable(self):
        import pickle

        spec = BackendSpec.build("replay", {"dir": "fixtures", "mode": "record"})
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, spec}) == 1

    def test_spec_from_cli(self):
        spec = spec_from_cli(
            "replay",
            opts=["inner=simulated"],
            fixtures_dir="fx",
            record_fixtures=True,
        )
        assert spec.name == "replay"
        assert spec.option("dir") == "fx"
        assert spec.option("mode") == "record"
        assert spec.option("inner") == "simulated"
        with pytest.raises(ValueError, match="backend-opt"):
            spec_from_cli("simulated", opts=["garbage"])

    def test_spec_from_cli_default_fixtures_dir_is_explicit(self):
        # The implicit default dir must fingerprint identically to the
        # same dir passed explicitly — the dir is part of the cache key.
        from repro.llm.backends.replay import DEFAULT_FIXTURES_DIR

        implicit = spec_from_cli("replay")
        explicit = spec_from_cli("replay", fixtures_dir=str(DEFAULT_FIXTURES_DIR))
        assert implicit.option("dir") == str(DEFAULT_FIXTURES_DIR)
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_spec_from_cli_rejects_unknown_option_keys(self):
        # A typo'd key would be silently ignored by the backend while
        # still changing every cell cache key.
        with pytest.raises(ValueError, match="temperture"):
            spec_from_cli(
                "openai_compat",
                opts=["base_url=http://h/v1", "temperture=0.7"],
            )
        with pytest.raises(ValueError, match="unknown option"):
            spec_from_cli("simulated", opts=["base_url=http://h/v1"])
        # Replay accepts its inner backend's keys on the same spec.
        spec = spec_from_cli(
            "replay",
            opts=["inner=openai_compat", "base_url=http://h/v1"],
            fixtures_dir="fx",
            record_fixtures=True,
        )
        assert spec.option("base_url") == "http://h/v1"
