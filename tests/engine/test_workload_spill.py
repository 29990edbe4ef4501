"""Workload spill: a streamed workload is generated once per run.

On the chunked path every task walks the same workload query stream.
With a cache, the first complete pass writes the generator's output
into the segment store (``workloads/<key>/``, manifest last) and every
later pass — the run's other tasks, later runs — replays those
segments.  A pass that stops early commits nothing, and a bad spill
segment costs one clean recompute, never wrong numbers.
"""

import pytest

from repro.engine import EngineConfig, ExperimentEngine, workload_key
from repro.engine.cache import ResultCache
from repro.llm.profiles import MODEL_PROFILES
from repro.tasks.base import PRIMARY_TASKS
from repro.workloads.streaming import streamable_total
from repro.workloads.synthetic import generator

SEED = 4
WORKLOAD = "synthetic:default:n=4"
TOTAL = streamable_total(WORKLOAD)


def _gpt4():
    return next(p for p in MODEL_PROFILES if p.name == "gpt4")


def _metrics(cell):
    return (cell.binary, cell.typed, cell.location)


def _streamed(cache_dir, **overrides):
    config = EngineConfig(seed=SEED, chunk_size=25, cache_dir=cache_dir, **overrides)
    return ExperimentEngine(config, (_gpt4(),))


@pytest.fixture
def generated(monkeypatch):
    """A one-item list counting the queries the synthetic generator yields."""
    count = [0]
    original = generator.iter_synthetic_queries

    def counting(*args, **kwargs):
        for query in original(*args, **kwargs):
            count[0] += 1
            yield query

    monkeypatch.setattr(generator, "iter_synthetic_queries", counting)
    return count


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Materialised metrics and instance counts for all five tasks."""
    cache_dir = tmp_path_factory.mktemp("materialised")
    with ExperimentEngine(
        EngineConfig(seed=SEED, cache_dir=cache_dir), (_gpt4(),)
    ) as engine:
        cells = {task: engine.run_cell("gpt4", task, WORKLOAD) for task in PRIMARY_TASKS}
        return {
            task: (_metrics(cell), len(cell.dataset.instances))
            for task, cell in cells.items()
        }


class TestGeneratedOncePerRun:
    def test_five_task_run_generates_each_query_once(self, tmp_path, generated):
        with _streamed(tmp_path) as engine:
            for task in PRIMARY_TASKS:
                engine.run_cell("gpt4", task, WORKLOAD)
        assert generated[0] == TOTAL

    def test_later_run_replays_the_spill(self, tmp_path, generated):
        with _streamed(tmp_path) as engine:
            engine.run_cell("gpt4", "syntax_error", WORKLOAD)
        assert generated[0] == TOTAL
        with _streamed(tmp_path) as engine:
            engine.run_cell("gpt4", "miss_token", WORKLOAD)
        assert generated[0] == TOTAL

    def test_without_a_cache_every_task_generates(self, generated):
        with _streamed(None) as engine:
            engine.run_cell("gpt4", "syntax_error", WORKLOAD)
            engine.run_cell("gpt4", "miss_token", WORKLOAD)
        assert generated[0] == 2 * TOTAL


class TestReplayMatchesMaterialised:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_all_five_tasks_through_one_engine(self, tmp_path, reference, workers):
        with _streamed(tmp_path, workers=workers) as engine:
            for task in PRIMARY_TASKS:
                cell = engine.run_cell("gpt4", task, WORKLOAD)
                assert (_metrics(cell), cell.instance_count) == reference[task], task


class TestSpillCommit:
    def test_capped_pass_commits_no_spill(self, tmp_path, generated):
        key = workload_key(WORKLOAD, SEED)
        with _streamed(tmp_path, max_instances=5) as engine:
            engine.run_cell("gpt4", "syntax_error", WORKLOAD)
            first_pass = generated[0]
            assert 0 < first_pass < TOTAL
            assert ResultCache(tmp_path).get_workload(key) is None
            # With nothing committed, the next pass runs the generator.
            engine.run_cell("gpt4", "miss_token", WORKLOAD)
        assert generated[0] > first_pass
        assert ResultCache(tmp_path).get_workload(key) is None

    def test_truncated_spill_segment_recomputes_cleanly(
        self, tmp_path, reference, generated
    ):
        with _streamed(tmp_path) as engine:
            engine.run_cell("gpt4", "syntax_error", WORKLOAD)
        segment = next(tmp_path.glob("workloads/*/seg-00000.pkl"))
        segment.write_bytes(segment.read_bytes()[:20])
        generated[0] = 0
        with _streamed(tmp_path) as engine:
            recovered = engine.run_cell("gpt4", "miss_token", WORKLOAD)
            assert engine.computed_cells == 1 and engine.cached_cells == 0
        assert (_metrics(recovered), recovered.instance_count) == reference[
            "miss_token"
        ]
        # One clean generator pass, which rewrote the spill.
        assert generated[0] == TOTAL
        spill = ResultCache(tmp_path).get_workload(workload_key(WORKLOAD, SEED))
        assert len(list(spill)) == TOTAL
