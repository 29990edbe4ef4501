"""Worker-side functions for the engine's work queue.

Queue workers (:func:`stream_worker_main`) pull :class:`ChunkTask`
descriptors and send results back.  A task carries one of two kinds of
work:

* a :class:`ChunkSpec` — answer one chunk of one cell.  The chunk
  carries its instances inline; :func:`evaluate_chunk` batches their
  requests through the async dispatcher to the engine's backend;
* a :class:`DatasetBuild` — build every missing dataset of one workload,
  so the parent can overlap dataset construction across workloads.  A
  worker loads each workload once for the pool's lifetime (later builds
  over it reuse the loaded workload), and ``build_dataset`` is
  deterministic in its arguments, so the datasets shipped back are
  identical to what the parent would build.

:func:`evaluate_chunk` is the one chunk protocol (render, dispatch,
extract), shared by the queue workers and the engine's in-process loop.
Each answering process owns one :class:`AnswerState`, built once from
the engine's :class:`~repro.engine.core.EngineConfig`: the engine builds
one for its in-process loop, and each queue worker builds one from the
config the pool hands it at spawn.  A chunk therefore carries only what
differs per chunk.  Everything crossing the process boundary is plain
picklable dataclasses, and every answer depends only on ``(model, task,
instance_id)`` — which is why any worker count yields byte-identical
results.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.llm.backends import (
    AsyncDispatcher,
    BackendError,
    CircuitBreaker,
    ModelRequest,
    TokenBucket,
    create_backend,
)
from repro.llm.base import LLMResponse
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.tasks.base import ModelAnswer, TaskDataset, TaskInstance
from repro.tasks.registry import answers_from_responses, build_dataset, build_request
from repro.workloads import load_workload
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import EngineConfig


@dataclass(frozen=True)
class ChunkSpec:
    """One chunk of one cell: what differs from the other chunks of a run."""

    profile: ModelProfile
    task: str
    instances: tuple[TaskInstance, ...]
    prompt: Optional[PromptTemplate] = None
    #: Wall-clock budget for this dispatch batch (the cell deadline,
    #: granted per chunk — worker clocks don't compare across processes).
    deadline: Optional[float] = None


@dataclass(frozen=True)
class DatasetBuild:
    """Every missing dataset of one workload, built in one worker call."""

    workload: str
    seed: int
    tasks: tuple[str, ...]
    max_instances: Optional[int]


@dataclass(frozen=True)
class ChunkTask:
    """One unit of queue work, addressed by ``(cell, chunk)``.

    ``fault`` is the test-only injection channel ("crash" hard-kills the
    worker mid-chunk, "poison" raises inside the evaluation) — it rides
    in the descriptor so a re-dispatched chunk is clean by construction
    unless the test asked for a persistent fault.
    """

    cell: int
    chunk: int
    spec: Union[ChunkSpec, DatasetBuild]
    fault: Optional[str] = None


class AnswerState:
    """One answering process's event loop, bucket, breaker and backends.

    Built once from the engine's config, and kept across every chunk and
    cell that process answers:

    * one event loop, made on the first dispatch and closed by
      :meth:`close`; every batch runs on it;
    * one :class:`TokenBucket` when ``rps`` is set, so ``rps`` is a
      sustained rate instead of a fresh burst per chunk (the aggregate
      rate across a pool is ~``workers x rps``; size --rps accordingly);
    * one :class:`CircuitBreaker` when the breaker is on, so a backend
      that tripped during one chunk stays tripped for the next instead
      of re-earning a full retry ladder;
    * one dispatcher per model, over its own backend, so replay stores
      and HTTP pools survive across chunks.

    ``repro serve`` runs one engine per job, so jobs never share one.
    """

    def __init__(self, config: "EngineConfig") -> None:
        self.config = config
        threshold = config.resolved_breaker_threshold()
        self.breaker = (
            CircuitBreaker(threshold, backend_name=config.backend.name)
            if threshold is not None
            else None
        )
        self._dispatchers: dict[str, tuple[ModelProfile, AsyncDispatcher]] = {}
        self._start()

    def _start(self) -> None:
        # The loop itself is made on the first run.  A bucket's asyncio
        # lock binds to the loop it first queues on, so each loop gets
        # its own bucket.
        self._runner = asyncio.Runner()
        rps = self.config.rps
        self.bucket = TokenBucket(rps) if rps is not None else None

    def dispatch(
        self, spec: ChunkSpec, requests: Sequence[ModelRequest]
    ) -> list[LLMResponse]:
        """Run one chunk's requests as one dispatch batch on this loop."""
        profile = spec.profile
        cached = self._dispatchers.get(profile.name)
        if cached is None or cached[0] != profile:
            dispatcher = AsyncDispatcher(
                create_backend(self.config.backend, profile),
                max_concurrency=self.config.max_concurrency,
                request_timeout=self.config.request_timeout,
                bucket=self.bucket,
                breaker=self.breaker,
                runner=self._runner.run,
            )
            cached = self._dispatchers[profile.name] = (profile, dispatcher)
        return cached[1].run_sync(requests, deadline_seconds=spec.deadline)

    def close(self) -> None:
        """Close the event loop and every backend (idempotent).

        A later dispatch starts a fresh loop with a fresh bucket and
        fresh backends; breaker health carries over.
        """
        for _, dispatcher in self._dispatchers.values():
            closer = getattr(dispatcher.backend, "close", None)
            if closer is not None:
                closer()
        self._dispatchers.clear()
        self._runner.close()
        self._start()


def evaluate_chunk(
    spec: ChunkSpec, state: AnswerState
) -> tuple[list[ModelAnswer], float]:
    """Answer one chunk as one dispatch batch: ``(answers, seconds)``.

    ``state`` is the answering process's :class:`AnswerState`.
    ``seconds`` is the chunk's wall time — on the queue the parent sums
    the workers' times into per-cell compute time for provenance (chunks
    of different cells overlap, so the parent's own clock cannot
    attribute time to cells).
    """
    started = time.perf_counter()
    responses = state.dispatch(
        spec,
        [
            build_request(spec.task, spec.profile.name, instance, spec.prompt)
            for instance in spec.instances
        ],
    )
    answers = answers_from_responses(
        spec.task, spec.instances, responses, spec.profile.name
    )
    return answers, time.perf_counter() - started


def build_workload_datasets(
    build: DatasetBuild, workloads: dict[tuple[str, int], Workload]
) -> tuple[list[TaskDataset], float]:
    """Build *all* of one workload's missing datasets: ``(datasets, seconds)``.

    Grouping by workload is what makes parallel cold builds scale: the
    workload is loaded once (``workloads`` keeps it for later builds in
    this worker), and the process-wide analysis cache is shared across
    the workload's tasks (which reuse the same query texts), instead of
    every worker re-loading and re-parsing it.
    """
    started = time.perf_counter()
    key = (build.workload, build.seed)
    if key not in workloads:
        workloads[key] = load_workload(build.workload, build.seed)
    workload = workloads[key]
    datasets = [
        build_dataset(
            task, workload, seed=build.seed, max_instances=build.max_instances
        )
        for task in build.tasks
    ]
    return datasets, time.perf_counter() - started


def stream_worker_main(task_queue, result_queue, config: "EngineConfig") -> None:
    """Queue-worker loop: pull task descriptors until the None pill.

    Chunks are answered through one :class:`AnswerState` built from the
    engine's ``config``, closed when the pill arrives.

    Each result message is ``(kind, pid, cell, chunk, payload)`` with
    kind ``ok`` (payload ``(result, seconds)``) or ``error``.  An error
    payload is the exception itself for a :class:`BackendError` — the
    parent re-raises it, so a cell's recorded error class does not
    depend on where it ran — and the formatted exception otherwise.  A
    crashed worker sends nothing: the parent notices the dead process
    and re-dispatches its assignments.

    Ctrl-C delivers SIGINT to the whole foreground process group; the
    parent turns it into a graceful drain (journal flush + resume hint),
    so workers ignore it rather than race the parent with their own
    ``KeyboardInterrupt`` tracebacks, and exit when the parent tears the
    pool down.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pid = os.getpid()
    workloads: dict[tuple[str, int], Workload] = {}
    answer_state = AnswerState(config)
    while True:
        item = task_queue.get()
        if item is None:
            answer_state.close()
            return
        try:
            if item.fault == "crash":
                os._exit(43)
            if item.fault == "poison":
                raise RuntimeError("injected poison fault")
            if isinstance(item.spec, DatasetBuild):
                payload = build_workload_datasets(item.spec, workloads)
            else:
                payload = evaluate_chunk(item.spec, answer_state)
            result_queue.put(("ok", pid, item.cell, item.chunk, payload))
        except BackendError as error:
            result_queue.put(("error", pid, item.cell, item.chunk, error))
        except Exception as error:  # noqa: BLE001 - reported to the parent
            result_queue.put(
                (
                    "error",
                    pid,
                    item.cell,
                    item.chunk,
                    f"{type(error).__name__}: {error}",
                )
            )
