"""Engine determinism and cache-skip guarantees.

Serial, multi-process, and cache-served evaluations of the same cell
must produce identical answers (and therefore identical metrics) for a
fixed seed; warm-cache reruns must not recompute anything.
"""

import dataclasses

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.evalfw import metrics_table
from repro.llm.profiles import GEMINI, GPT4, SYNTAX
from repro.llm.simulated import SimulatedLLM
from repro.prompts.templates import PromptTemplate

SEED = 7
CAP = 30
#: Enough instances that every cell spans several 64-instance chunks.
WIDE_CAP = 150


def _metrics(cell):
    return (cell.binary, cell.typed, cell.location)


class TestParallelEqualsSerial:
    """Worker counts 1 and 2 over cells that span several chunks."""

    def test_run_cell_identical_across_worker_counts(self):
        serial = ExperimentEngine(EngineConfig(seed=SEED, max_instances=WIDE_CAP))
        parallel = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=WIDE_CAP, workers=2)
        )
        try:
            a = serial.run_cell("gpt4", "syntax_error", "sdss")
            b = parallel.run_cell("gpt4", "syntax_error", "sdss")
        finally:
            parallel.close()
        assert len(a.answers) == WIDE_CAP
        assert a.answers == b.answers
        assert _metrics(a) == _metrics(b)

    def test_run_task_grid_identical_across_worker_counts(self):
        serial = ExperimentEngine(EngineConfig(seed=SEED, max_instances=WIDE_CAP))
        parallel = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=WIDE_CAP, workers=2)
        )
        try:
            grid_a = serial.run_task("performance_pred")
            grid_b = parallel.run_task("performance_pred")
        finally:
            parallel.close()
        assert list(grid_a) == list(grid_b)
        for key in grid_a:
            assert grid_a[key].answers == grid_b[key].answers
        assert metrics_table(grid_a, "binary") == metrics_table(grid_b, "binary")

    def test_uncapped_multi_workload_grid_identical_across_worker_counts(self):
        """Whole datasets (up to a few hundred instances) and a chunk
        remainder in every cell; workers also build the datasets."""
        models = (GPT4, GEMINI)
        serial = ExperimentEngine(EngineConfig(seed=SEED), models=models)
        parallel = ExperimentEngine(EngineConfig(seed=SEED, workers=2), models=models)
        try:
            grid_a = serial.run_task("miss_token")
            grid_b = parallel.run_task("miss_token")
        finally:
            parallel.close()
        assert list(grid_a) == list(grid_b)
        assert any(len(cell.answers) > 3 * 64 for cell in grid_a.values())
        for key in grid_a:
            assert grid_a[key].answers == grid_b[key].answers
            assert _metrics(grid_a[key]) == _metrics(grid_b[key])


class TestCacheServedRuns:
    def _engine(self, tmp_path, **overrides):
        config = EngineConfig(
            seed=SEED,
            max_instances=CAP,
            cache_dir=tmp_path / "cache",
            **overrides,
        )
        return ExperimentEngine(config, models=(GPT4, GEMINI))

    def test_cached_run_identical_and_skips_recomputation(self, tmp_path, monkeypatch):
        cold = self._engine(tmp_path)
        first = cold.run_cell("gpt4", "syntax_error", "sdss")
        assert cold.computed_cells == 1
        assert cold.cache.stats.writes == 1

        warm = self._engine(tmp_path)

        def _refuse(self, *args, **kwargs):
            raise AssertionError("warm-cache run must not query the model")

        monkeypatch.setattr(SimulatedLLM, "answer_syntax_error", _refuse)
        second = warm.run_cell("gpt4", "syntax_error", "sdss")
        assert warm.cached_cells == 1
        assert warm.computed_cells == 0
        assert warm.cache.stats.dataset_hits == 1  # dataset loaded, not rebuilt
        assert second.answers == first.answers
        assert _metrics(second) == _metrics(first)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        parallel = self._engine(tmp_path, workers=2)
        try:
            first = parallel.run_cell("gemini", "syntax_error", "sdss")
        finally:
            parallel.close()
        serial = self._engine(tmp_path)
        second = serial.run_cell("gemini", "syntax_error", "sdss")
        assert serial.cached_cells == 1
        assert second.answers == first.answers

    def test_partial_cache_rerun_preserves_grid_order(self, tmp_path):
        """A mixed hit/miss rerun keeps the cold run's grid order.

        Report renderers read column order off grid insertion order, so
        a recomputed cell must not migrate to the end of the dict just
        because its cached entry went bad.
        """
        from repro.engine.cache import cell_key

        cold = self._engine(tmp_path)
        grid_cold = cold.run_task("syntax_error")
        order = list(grid_cold.keys())
        first_model, first_workload = order[0]
        key = cell_key(
            SEED,
            cold.models[0],
            "syntax_error",
            first_workload,
            CAP,
            None,
            backend=cold.config.backend,
            backend_state=cold._backend_state(),
        )
        cold.cache._segment_path("cells", key, 0).write_text("corrupt", encoding="utf-8")

        warm = self._engine(tmp_path)
        grid_warm = warm.run_task("syntax_error")
        assert warm.computed_cells == 1
        assert warm.cached_cells == len(order) - 1
        assert list(grid_warm.keys()) == order
        assert grid_warm[(first_model, first_workload)].answers == grid_cold[
            (first_model, first_workload)
        ].answers

    def test_changed_seed_misses(self, tmp_path):
        self._engine(tmp_path).run_cell("gpt4", "syntax_error", "sdss")
        other = ExperimentEngine(
            EngineConfig(seed=SEED + 1, max_instances=CAP, cache_dir=tmp_path / "cache"),
            models=(GPT4,),
        )
        other.run_cell("gpt4", "syntax_error", "sdss")
        assert other.cached_cells == 0
        assert other.computed_cells == 1

    def test_changed_max_instances_misses(self, tmp_path):
        self._engine(tmp_path).run_cell("gpt4", "syntax_error", "sdss")
        other = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=CAP - 5, cache_dir=tmp_path / "cache"),
            models=(GPT4,),
        )
        other.run_cell("gpt4", "syntax_error", "sdss")
        assert other.cached_cells == 0

    def test_changed_profile_misses(self, tmp_path):
        self._engine(tmp_path).run_cell("gpt4", "syntax_error", "sdss")
        tweaked = dataclasses.replace(
            GPT4,
            skills={
                **GPT4.skills,
                SYNTAX: dataclasses.replace(GPT4.skills[SYNTAX], competence=0.42),
            },
        )
        other = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=CAP, cache_dir=tmp_path / "cache"),
            models=(tweaked,),
        )
        other.run_cell("gpt4", "syntax_error", "sdss")
        assert other.cached_cells == 0
        assert other.computed_cells == 1

    def test_changed_prompt_misses(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.run_cell("gpt4", "syntax_error", "sdss")
        untuned = PromptTemplate(
            task="syntax_error", name="untuned", text="Any bug? {query}", quality=0.7
        )
        engine.run_cell("gpt4", "syntax_error", "sdss", prompt=untuned)
        assert engine.cached_cells == 0
        assert engine.computed_cells == 2

    def test_no_cache_dir_never_touches_disk(self, tmp_path):
        engine = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=CAP), models=(GPT4,)
        )
        engine.run_cell("gpt4", "syntax_error", "sdss")
        assert engine.cache is None
        assert list(tmp_path.iterdir()) == []


class TestEngineConfig:
    @pytest.mark.parametrize(
        "knob, value",
        [
            ("workers", 0),
            ("chunk_size", 0),
            ("max_concurrency", 0),
            ("rps", 0.0),
            ("max_instances", 0),
            ("on_cell_error", "ignore"),
            ("request_timeout", 0.0),
            ("cell_deadline", -1.0),
            ("breaker_threshold", -1),
        ],
    )
    def test_rejects_out_of_range_knob(self, knob, value):
        # The message starts with the knob's name: prepare_run respells
        # it as the flag the user typed.
        with pytest.raises(ValueError, match=f"^{knob} must be "):
            EngineConfig(**{knob: value})

    def test_dict_round_trip(self, tmp_path):
        from repro.llm.backends import BackendSpec

        config = EngineConfig(
            seed=4,
            workers=2,
            cache_dir=tmp_path / "cache",
            max_instances=9,
            chunk_size=16,
            backend=BackendSpec.build("replay", {"dir": "fx"}),
            max_concurrency=3,
            rps=20.0,
            on_cell_error="degrade",
            request_timeout=1.5,
            cell_deadline=60.0,
            breaker_threshold=2,
        )
        assert EngineConfig.from_dict(config.as_dict()) == config
        assert EngineConfig.from_dict({}) == EngineConfig()

    def test_unknown_model_raises(self):
        engine = ExperimentEngine(EngineConfig(), models=(GPT4,))
        with pytest.raises(KeyError):
            engine.run_cell("nope", "syntax_error", "sdss")
