"""End-to-end integration smoke tests across the whole pipeline."""

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.llm.profiles import MODEL_PROFILES
from repro.tasks import PRIMARY_TASKS, TASK_WORKLOADS


@pytest.fixture(scope="module")
def mini_engine():
    return ExperimentEngine(EngineConfig(seed=1, max_instances=30))


class TestFullPipeline:
    @pytest.mark.parametrize("task", PRIMARY_TASKS)
    def test_every_task_runs_end_to_end(self, mini_engine, task):
        grid = mini_engine.run_task(task)
        expected_cells = len(MODEL_PROFILES) * len(TASK_WORKLOADS[task])
        assert len(grid) == expected_cells
        for cell in grid.values():
            assert len(cell.answers) == len(cell.dataset)
            assert all(answer.response_text for answer in cell.answers)

    def test_binary_tasks_produce_metrics(self, mini_engine):
        for task in ("syntax_error", "miss_token", "performance_pred"):
            grid = mini_engine.run_task(task)
            for cell in grid.values():
                metrics = cell.binary
                assert 0.0 <= metrics.f1 <= 1.0

    def test_different_seeds_produce_different_datasets(self):
        first = ExperimentEngine(EngineConfig(seed=1, max_instances=25))
        second = ExperimentEngine(EngineConfig(seed=2, max_instances=25))
        a = first.dataset("syntax_error", "sdss")
        b = second.dataset("syntax_error", "sdss")
        assert [i.payload["query"] for i in a] != [i.payload["query"] for i in b]

    def test_headline_holds_even_on_mini_run(self, mini_engine):
        grid = mini_engine.run_task("syntax_error", workloads=("sdss",))
        f1 = {model: grid[(model, "sdss")].binary.f1 for model, _ in grid}
        assert f1["gpt4"] >= f1["gemini"]

