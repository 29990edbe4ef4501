"""The cell deadline: one budget in-process, a budget per chunk on the queue.

``cell_deadline`` bounds a cell's wall time.  The in-process loop
(``workers=1``) spends one budget across all of a cell's chunks, on both
data paths; the work queue grants each chunk the full budget (worker
clocks don't compare across processes).  A slow fake backend blocks on
the last request of chunk 0 for longer than the budget.  Chunk 0 still
completes, because all of its requests were issued in time, so the
in-process loop stops before chunk 1 while the queue finishes the cell.
"""

import time

import pytest

from repro.engine import MATERIALISED_CHUNK_SIZE, EngineConfig, ExperimentEngine
from repro.llm.backends import BACKENDS, BaseBackend, DeadlineExceededError
from repro.llm.backends.base import BackendSpec
from repro.llm.backends.simulated import SimulatedBackend
from repro.llm.profiles import GPT4

SEED = 5
TASK = "syntax_error"
WORKLOAD = "sdss"
#: Two chunks of the materialised path: 64 instances, then 6.
CAP = MATERIALISED_CHUNK_SIZE + 6
BUDGET = 0.6
SLOW = 1.0


class _SlowAt(BaseBackend):
    """The simulator, blocking on one instance's request."""

    name = "slow_at"

    def __init__(self, profile, spec: BackendSpec) -> None:
        self.inner = SimulatedBackend(profile)
        self.slow_id = spec.option("instance")

    def complete(self, request):
        if request.instance.instance_id == self.slow_id:
            time.sleep(SLOW)
        return self.inner.complete(request)


@pytest.fixture
def slow_spec(monkeypatch):
    """Slow on the last instance of chunk 0 (queue workers fork after)."""
    engine = ExperimentEngine(EngineConfig(seed=SEED, max_instances=CAP))
    dataset = engine.dataset(TASK, WORKLOAD)
    monkeypatch.setitem(BACKENDS, "slow_at", ("test backend", _SlowAt))
    last = dataset.instances[MATERIALISED_CHUNK_SIZE - 1]
    return BackendSpec.build("slow_at", {"instance": last.instance_id})


def _engine(backend, workers, chunk_size, on_cell_error="fail"):
    config = EngineConfig(
        seed=SEED,
        max_instances=CAP,
        workers=workers,
        chunk_size=chunk_size,
        backend=backend,
        max_concurrency=1,
        cell_deadline=BUDGET,
        on_cell_error=on_cell_error,
    )
    return ExperimentEngine(config, models=(GPT4,))


@pytest.mark.parametrize(
    "chunk_size", [None, MATERIALISED_CHUNK_SIZE], ids=["materialised", "streamed"]
)
class TestCellDeadline:
    def test_in_process_budget_spans_the_cells_chunks(self, slow_spec, chunk_size):
        with _engine(slow_spec, 1, chunk_size) as engine:
            with pytest.raises(DeadlineExceededError, match="before chunk 1"):
                engine.run_cell("gpt4", TASK, WORKLOAD)

    def test_degrade_records_the_deadline_as_the_cells_failure(
        self, slow_spec, chunk_size
    ):
        with _engine(slow_spec, 1, chunk_size, on_cell_error="degrade") as engine:
            grid = engine.run_task(TASK, workloads=(WORKLOAD,))
        assert grid == {}
        (failure,) = engine.failures
        assert (
            failure.model,
            failure.task,
            failure.workload,
            failure.error_class,
        ) == ("gpt4", TASK, WORKLOAD, "DeadlineExceededError")

    def test_queue_grants_each_chunk_the_full_budget(self, slow_spec, chunk_size):
        with _engine(slow_spec, 2, chunk_size) as engine:
            result = engine.run_cell("gpt4", TASK, WORKLOAD)
        reference = ExperimentEngine(
            EngineConfig(seed=SEED, max_instances=CAP), models=(GPT4,)
        ).run_cell("gpt4", TASK, WORKLOAD)
        assert (result.binary, result.typed) == (reference.binary, reference.typed)
