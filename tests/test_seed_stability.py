"""Cross-seed stability: the paper's findings must not be seed artifacts.

The headline claims (GPT4 wins, conservative detection, performance
optimism) must hold for several independent generation seeds, not just
the default seed 0.
"""

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.llm.profiles import MODEL_PROFILES

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module", params=SEEDS)
def seeded_engine(request):
    return ExperimentEngine(EngineConfig(seed=request.param, max_instances=120))


class TestSeedStability:
    def test_gpt4_wins_syntax_error(self, seeded_engine):
        grid = seeded_engine.run_task("syntax_error", workloads=("sdss",))
        f1 = {
            model.name: grid[(model.name, "sdss")].binary.f1
            for model in MODEL_PROFILES
        }
        assert f1["gpt4"] == max(f1.values()), f1

    def test_detection_stays_conservative(self, seeded_engine):
        grid = seeded_engine.run_task("miss_token", workloads=("sdss",))
        conservative = sum(
            1
            for cell in grid.values()
            if cell.binary.precision >= cell.binary.recall - 0.03
        )
        assert conservative >= 4

    def test_performance_pred_stays_optimistic(self, seeded_engine):
        grid = seeded_engine.run_task("performance_pred")
        mistral = grid[("mistral", "sdss")].binary
        assert mistral.recall > mistral.precision

    def test_workload_statistics_stable(self, seeded_engine):
        workload = seeded_engine.workload("sdss")
        aggregates = sum(q.properties.aggregate for q in workload)
        assert aggregates == 21  # quota-controlled, seed-independent
        assert len(workload) == 285
