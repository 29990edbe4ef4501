"""Engine x backend integration: cache isolation, replay grids, provenance.

The load-bearing guarantee: a cell cached under one backend is *never*
served to a run using another backend, because the backend fingerprint
is folded into every cell cache key.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.cache import cell_key
from repro.engine.core import EngineConfig, ExperimentEngine
from repro.llm.backends import (
    BACKENDS,
    AsyncDispatcher,
    BackendSpec,
    BaseBackend,
    CircuitOpenError,
    SIMULATED_SPEC,
    TransientBackendError,
)
from repro.llm.profiles import GPT4, GPT35

TASK = "performance_pred"
WORKLOAD = "sdss"
CAP = 25


def _engine(tmp_path, backend=SIMULATED_SPEC, **overrides):
    config = EngineConfig(
        seed=0,
        max_instances=CAP,
        cache_dir=tmp_path / "cache",
        backend=backend,
        **overrides,
    )
    return ExperimentEngine(config, models=(GPT4, GPT35))


class TestCacheIsolationAcrossBackends:
    def test_cell_key_folds_backend_identity(self):
        base = cell_key(0, GPT4, TASK, WORKLOAD, CAP, None)
        assert base == cell_key(
            0, GPT4, TASK, WORKLOAD, CAP, None, backend=SIMULATED_SPEC
        )
        replay = cell_key(
            0, GPT4, TASK, WORKLOAD, CAP, None,
            backend=BackendSpec.build("replay", {"dir": "fx"}),
        )
        assert replay != base
        other_dir = cell_key(
            0, GPT4, TASK, WORKLOAD, CAP, None,
            backend=BackendSpec.build("replay", {"dir": "other"}),
        )
        assert other_dir != replay
        endpoint_a = cell_key(
            0, GPT4, TASK, WORKLOAD, CAP, None,
            backend=BackendSpec.build(
                "openai_compat", {"base_url": "http://a/v1"}
            ),
        )
        endpoint_b = cell_key(
            0, GPT4, TASK, WORKLOAD, CAP, None,
            backend=BackendSpec.build(
                "openai_compat", {"base_url": "http://b/v1"}
            ),
        )
        assert endpoint_a not in (endpoint_b, replay, base)

    def test_cached_cell_never_crosses_backends(self, tmp_path):
        with _engine(tmp_path) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert engine.computed_cells == 1
        # Same cache dir, same inputs, *different backend*: the replay
        # backend must not be handed the simulated backend's cells.
        fixtures = tmp_path / "fixtures"
        record_spec = BackendSpec.build(
            "replay", {"dir": str(fixtures), "mode": "record"}
        )
        with _engine(tmp_path, backend=record_spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert engine.cached_cells == 0
            assert engine.computed_cells == 1
        # Re-running under each backend now hits its own cache entry.
        with _engine(tmp_path) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert engine.cached_cells == 1
            assert engine.computed_cells == 0


class TestReplayGrid:
    def test_record_then_offline_replay_is_identical(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        record_spec = BackendSpec.build(
            "replay", {"dir": str(fixtures), "mode": "record"}
        )
        with _engine(tmp_path, backend=record_spec) as engine:
            recorded = engine.run_task(TASK)
        replay_spec = BackendSpec.build("replay", {"dir": str(fixtures)})
        with _engine(tmp_path / "second", backend=replay_spec) as engine:
            replayed = engine.run_task(TASK)
        assert set(replayed) == set(recorded)
        for key, cell in recorded.items():
            assert replayed[key].answers == cell.answers
        # And the whole grid is byte-identical to the plain simulator.
        with _engine(tmp_path / "third") as engine:
            simulated = engine.run_task(TASK)
        for key, cell in simulated.items():
            assert replayed[key].answers == cell.answers

    def test_replay_grid_matches_across_workers(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        record_spec = BackendSpec.build(
            "replay", {"dir": str(fixtures), "mode": "record"}
        )
        with _engine(tmp_path, backend=record_spec) as engine:
            serial = engine.run_task(TASK)
        replay_spec = BackendSpec.build("replay", {"dir": str(fixtures)})
        with _engine(
            tmp_path / "parallel", backend=replay_spec, workers=2
        ) as engine:
            parallel = engine.run_task(TASK)
        for key, cell in serial.items():
            assert parallel[key].answers == cell.answers

    def test_warm_cache_does_not_elide_recording(self, tmp_path):
        """A record-mode run exists for its side effect: even with every
        cell warm in the result cache, fixtures must still be written."""
        fixtures = tmp_path / "fixtures"
        record_spec = BackendSpec.build(
            "replay", {"dir": str(fixtures), "mode": "record"}
        )
        with _engine(tmp_path, backend=record_spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
        import shutil

        shutil.rmtree(fixtures)
        with _engine(tmp_path, backend=record_spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert engine.cached_cells == 0
            assert engine.computed_cells == 1
            # Recording runs also write no cell entries: no later run
            # could read them (the mode=record fingerprint is unique).
            assert engine.cache is not None and engine.cache.entries() == []
        assert (fixtures / "gpt4" / f"{TASK}.jsonl").is_file()

    def test_edited_fixtures_invalidate_replay_cache(self, tmp_path):
        """Replay-mode cache keys fold the fixture content hash, so a
        re-record (or hand edit) never serves answers cached against
        the old fixture text."""
        fixtures = tmp_path / "fixtures"
        record_spec = BackendSpec.build(
            "replay", {"dir": str(fixtures), "mode": "record"}
        )
        with _engine(tmp_path, backend=record_spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
        replay_spec = BackendSpec.build("replay", {"dir": str(fixtures)})
        with _engine(tmp_path, backend=replay_spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert engine.computed_cells == 1  # cold under replay's key
        with _engine(tmp_path, backend=replay_spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert engine.cached_cells == 1  # warm: fixtures unchanged
        shard = fixtures / "gpt4" / f"{TASK}.jsonl"
        shard.write_text(shard.read_text() + "\n")  # content changed
        with _engine(tmp_path, backend=replay_spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert engine.cached_cells == 0
            assert engine.computed_cells == 1

    def test_missing_fixture_fails_the_cell(self, tmp_path):
        from repro.llm.backends import BackendError

        replay_spec = BackendSpec.build(
            "replay", {"dir": str(tmp_path / "empty")}
        )
        with _engine(tmp_path, backend=replay_spec) as engine:
            with pytest.raises(BackendError, match="no fixture"):
                engine.run_cell(GPT4.name, TASK, WORKLOAD)


class TestBackendProvenance:
    def test_run_record_carries_backend(self, tmp_path):
        from repro.reporting.run_record import RunRecord, record_from_engine

        fixtures = tmp_path / "fixtures"
        spec = BackendSpec.build(
            "replay", {"dir": str(fixtures), "mode": "record"}
        )
        with _engine(tmp_path, backend=spec) as engine:
            engine.run_cell(GPT4.name, TASK, WORKLOAD)
            record = record_from_engine(engine)
        assert record.backend == "replay"
        assert record.backend_fingerprint == spec.fingerprint()
        assert record.backend_options["mode"] == "record"
        round_tripped = RunRecord.from_json(record.to_json())
        assert round_tripped.backend == "replay"
        assert round_tripped.backend_fingerprint == spec.fingerprint()
        assert round_tripped.backend_options == record.backend_options

    def test_dispatch_knobs_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            EngineConfig(rps=0.0)

    def test_dispatch_knobs_do_not_change_answers(self, tmp_path):
        with _engine(tmp_path, max_concurrency=1) as engine:
            narrow = engine.run_cell(GPT4.name, TASK, WORKLOAD)
        with _engine(
            tmp_path / "wide", max_concurrency=16, rps=10_000.0
        ) as engine:
            wide = engine.run_cell(GPT4.name, TASK, WORKLOAD)
        assert narrow.answers == wide.answers


class TestOneAnsweringStatePerEngine:
    def test_in_process_chunks_share_one_event_loop(self, monkeypatch):
        """Every chunk the in-process loop answers runs on one event
        loop; a dispatch after close() starts a fresh one."""
        loops, batches = [], []
        new_event_loop = asyncio.events.new_event_loop
        run_sync = AsyncDispatcher.run_sync

        def counting_loop():
            loops.append(new_event_loop())
            return loops[-1]

        def counting_run_sync(self, requests, *args, **kwargs):
            batches.append(len(requests))
            return run_sync(self, requests, *args, **kwargs)

        monkeypatch.setattr(asyncio.events, "new_event_loop", counting_loop)
        monkeypatch.setattr(AsyncDispatcher, "run_sync", counting_run_sync)
        engine = ExperimentEngine(EngineConfig(seed=0, max_instances=150), models=(GPT4, GPT35))
        try:
            for model in (GPT4.name, GPT35.name):
                engine.run_cell(model, TASK, WORKLOAD)
            assert len(batches) > 2
            assert len(loops) == 1
            engine.close()
            assert loops[0].is_closed()
            engine.run_cell(GPT4.name, "syntax_error", WORKLOAD)
            assert len(loops) == 2
        finally:
            engine.close()
        assert loops[1].is_closed()

    def test_tripped_breaker_fails_the_next_cell_fast(self, monkeypatch):
        """One breaker per engine: a backend that tripped it during one
        cell is not called again for the next cell."""
        calls = []

        class Down(BaseBackend):
            name = "down"

            def __init__(self, profile, spec) -> None:
                pass

            def complete(self, request):
                calls.append(request.request_id)
                raise TransientBackendError("endpoint down")

        monkeypatch.setitem(BACKENDS, "down", ("test backend", Down))
        config = EngineConfig(
            seed=0,
            max_instances=CAP,
            backend=BackendSpec.build("down", {}),
            max_concurrency=1,
            breaker_threshold=1,
        )
        with ExperimentEngine(config, models=(GPT4, GPT35)) as engine:
            # The first call trips the breaker, so its retry is refused.
            with pytest.raises(CircuitOpenError):
                engine.run_cell(GPT4.name, TASK, WORKLOAD)
            assert len(calls) == 1
            with pytest.raises(CircuitOpenError, match="1 trip"):
                engine.run_cell(GPT35.name, TASK, WORKLOAD)
        assert len(calls) == 1
