"""The work queue: several cells in flight, chunk timing, dataset builds.

Every pooled run goes through one queue
(:meth:`~repro.engine.streaming.StreamingEvaluator.run_queued`).  The
materialised path puts the chunks of every pending cell in flight,
merges each cell in chunk order and commits cells in request order, so
nothing it produces depends on the worker count.  A failing chunk fails
only its own cell, with the error class it raised in the worker.
"""

import time
from pathlib import Path

import pytest

from repro.engine import ChunkSpec, EngineConfig, ExperimentEngine, evaluate_chunk
from repro.engine.streaming import StreamFault
from repro.engine.worker import AnswerState
from repro.llm.backends import BACKENDS, BackendError, BaseBackend
from repro.llm.backends.base import BackendSpec
from repro.llm.backends.simulated import SimulatedBackend
from repro.llm.profiles import GEMINI, GPT4, MODEL_PROFILES
from repro.reporting.run_record import record_from_engine

SEED = 3
CAP = 12
#: Enough instances that each cell spans several 64-instance chunks.
WIDE_CAP = 150


class _Unwell(BaseBackend):
    """The simulator, except that one model's endpoint is down or slow."""

    name = "unwell"

    def __init__(self, profile, spec: BackendSpec) -> None:
        self.inner = SimulatedBackend(profile)
        self.state = spec.option("state") if profile.name == spec.option("model") else None

    def complete(self, request):
        if self.state == "down":
            raise BackendError(f"{request.model} endpoint is down")
        if self.state == "slow":
            time.sleep(0.05)
        return self.inner.complete(request)


@pytest.fixture
def unwell(monkeypatch):
    """Build specs for the unwell backend (queue workers fork after)."""
    monkeypatch.setitem(BACKENDS, "unwell", ("test backend", _Unwell))
    return lambda model, state: BackendSpec.build(
        "unwell", {"model": model, "state": state}
    )


def _answers(grid):
    return {key: cell.answers for key, cell in grid.items()}


class TestChunkEvaluation:
    def test_evaluate_chunk_matches_in_process_answers(self):
        config = EngineConfig(seed=SEED, max_instances=CAP)
        with ExperimentEngine(config) as engine:
            cell = engine.run_cell("gpt4", "syntax_error", "sdss")
        state = AnswerState(config)
        try:
            answers, seconds = evaluate_chunk(
                ChunkSpec(
                    profile=GPT4,
                    task="syntax_error",
                    instances=tuple(cell.dataset.instances),
                ),
                state,
            )
        finally:
            state.close()
        assert answers == cell.answers
        assert seconds > 0


class TestParallelTiming:
    def test_parallel_cells_report_real_seconds(self, tmp_path: Path):
        parallel = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=WIDE_CAP, workers=2, cache_dir=tmp_path)
        )
        serial = ExperimentEngine(EngineConfig(seed=SEED, max_instances=WIDE_CAP))
        try:
            theirs = parallel.run_cell("gpt4", "syntax_error", "sdss")
            ours = serial.run_cell("gpt4", "syntax_error", "sdss")
        finally:
            parallel.close()
        assert theirs.answers == ours.answers
        computed = [
            entry for entry in parallel.cell_log if not entry.cached
        ]
        assert computed
        for entry in computed:
            assert entry.seconds is not None and entry.seconds > 0
            assert entry.chunk_seconds_max is not None
            assert entry.chunk_seconds_max < entry.seconds

    def test_run_record_carries_parallel_seconds(self, tmp_path: Path):
        engine = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=CAP, workers=2, cache_dir=tmp_path)
        )
        try:
            engine.run_cell("gpt4", "syntax_error", "sdss")
            record = record_from_engine(engine)
        finally:
            engine.close()
        cells = [cell for cell in record.cells if not cell.cached]
        assert cells and all(cell.seconds is not None for cell in cells)


class TestSeveralCellsInFlight:
    def test_grid_log_and_stats_match_the_in_process_loop(self):
        serial = ExperimentEngine(EngineConfig(seed=SEED, max_instances=WIDE_CAP))
        pooled = ExperimentEngine(EngineConfig(seed=SEED, max_instances=WIDE_CAP, workers=2))
        try:
            grid_a = serial.run_task("syntax_error")
            grid_b = pooled.run_task("syntax_error")
        finally:
            pooled.close()
        assert list(grid_a) == list(grid_b)
        assert _answers(grid_a) == _answers(grid_b)
        order = [(e.model, e.workload) for e in serial.cell_log]
        assert [(e.model, e.workload) for e in pooled.cell_log] == order
        stats = pooled.stream_stats()
        assert stats["cells"] == len(grid_b)
        assert stats["instances"] == sum(
            len(cell.answers) for cell in grid_b.values()
        )
        assert stats["chunks"] > stats["cells"]  # cells span several chunks
        assert serial.stream_stats() is None

    def test_cells_commit_in_request_order(self, unwell):
        """gpt4's cell finishes last but still commits first."""
        config = EngineConfig(
            seed=SEED, max_instances=CAP, workers=2, backend=unwell("gpt4", "slow")
        )
        with ExperimentEngine(config, models=(GPT4, GEMINI)) as engine:
            engine.run_task("performance_pred")
        assert [entry.model for entry in engine.cell_log] == ["gpt4", "gemini"]

    def test_failing_cell_fails_alone_with_its_error_class(self, unwell):
        config = EngineConfig(
            seed=SEED,
            max_instances=WIDE_CAP,
            workers=2,
            backend=unwell("gemini", "down"),
            on_cell_error="degrade",
        )
        with ExperimentEngine(config, models=(GPT4, GEMINI)) as engine:
            grid = engine.run_task("performance_pred")
        assert set(grid) == {("gpt4", "sdss")}
        assert [(f.model, f.error_class) for f in engine.failures] == [
            ("gemini", "BackendError")
        ]
        reference = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=WIDE_CAP), models=(GPT4,)
        ).run_task("performance_pred")
        assert _answers(grid) == _answers(reference)

    def test_fail_policy_raises_the_worker_error(self, unwell):
        config = EngineConfig(
            seed=SEED, max_instances=CAP, workers=2, backend=unwell("gemini", "down")
        )
        with ExperimentEngine(config, models=(GPT4, GEMINI)) as engine:
            with pytest.raises(BackendError, match="gemini endpoint is down"):
                engine.run_task("performance_pred")
            # Cells before the failing one committed, in request order.
            assert [e.model for e in engine.cell_log] == ["gpt4"]

    def test_killed_worker_chunk_is_redispatched(self):
        reference = ExperimentEngine(EngineConfig(seed=SEED, max_instances=WIDE_CAP))
        pooled = ExperimentEngine(EngineConfig(seed=SEED, max_instances=WIDE_CAP, workers=2))
        try:
            pooled.streaming.fault = StreamFault(kind="crash", chunk=1)
            grid = pooled.run_task("performance_pred")
        finally:
            pooled.close()
        assert _answers(grid) == _answers(reference.run_task("performance_pred"))
        assert pooled.stream_stats()["redispatched"] >= 1


class TestDatasetBuildsOnWorkers:
    def test_missing_datasets_are_built_on_workers_and_persisted(
        self, tmp_path, monkeypatch
    ):
        import repro.engine.core as core

        def parent_build(*args, **kwargs):
            raise AssertionError("the parent must not build a dataset")

        reference = ExperimentEngine(EngineConfig(seed=SEED, max_instances=CAP))
        expected = {
            workload: reference.dataset("miss_token", workload)
            for workload in ("sdss", "sqlshare", "join_order")
        }
        monkeypatch.setattr(core, "build_dataset", parent_build)
        engine = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=CAP, workers=2, cache_dir=tmp_path),
            models=MODEL_PROFILES[:2],
        )
        try:
            grid = engine.run_task("miss_token")
        finally:
            engine.close()
        assert {workload for _, workload in grid} == set(expected)
        for workload, dataset in expected.items():
            built = engine.dataset("miss_token", workload)
            assert built.instances == dataset.instances
        assert len(engine.cache.dataset_entries()) == len(expected)
