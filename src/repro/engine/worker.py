"""Worker-side functions for the engine's work queue.

Queue workers (:func:`stream_worker_main`) pull :class:`ChunkTask`
descriptors and send results back.  A task carries one of two kinds of
work:

* a :class:`ChunkSpec` — answer one chunk of one cell.  The chunk
  carries its instances inline; :func:`evaluate_chunk` batches their
  requests through the async dispatcher to the spec's backend;
* a :class:`DatasetBuild` — build every missing dataset of one workload,
  so the parent can overlap dataset construction across workloads.  A
  worker loads each workload once for the pool's lifetime (later builds
  over it reuse the loaded workload), and ``build_dataset`` is
  deterministic in its arguments, so the datasets shipped back are
  identical to what the parent would build.

:func:`evaluate_chunk` is the one chunk protocol (render, dispatch,
extract), shared by the queue workers and the engine's in-process loop.
Each of those owns one :class:`AnswerState`, which keeps backends,
token buckets and breaker health across its chunks.  Everything
crossing the process boundary is plain picklable dataclasses, and every
answer depends only on ``(model, task, instance_id)`` — which is why any
worker count yields byte-identical results.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.llm.backends import (
    DEFAULT_MAX_CONCURRENCY,
    SIMULATED_SPEC,
    AsyncDispatcher,
    BackendError,
    BackendSpec,
    ModelBackend,
    ModelRequest,
    create_backend,
)
from repro.llm.backends.dispatch import BreakerState, BucketState, CircuitBreaker
from repro.llm.base import LLMResponse
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.tasks.base import ModelAnswer, TaskDataset, TaskInstance
from repro.tasks.registry import answers_from_responses, build_dataset, build_request
from repro.workloads import load_workload
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ChunkSpec:
    """One chunk of one cell: its instances and how to answer them."""

    profile: ModelProfile
    task: str
    instances: tuple[TaskInstance, ...]
    prompt: Optional[PromptTemplate] = None
    backend: BackendSpec = SIMULATED_SPEC
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY
    rps: Optional[float] = None
    #: Per-request wall-clock timeout (dispatcher ``asyncio.wait_for``).
    request_timeout: Optional[float] = None
    #: Wall-clock budget for this dispatch batch (the cell deadline,
    #: granted per chunk — worker clocks don't compare across processes).
    deadline: Optional[float] = None
    #: Circuit-breaker trip threshold; 0 disables the breaker.
    breaker_threshold: int = 0


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
    """What answering reuses across chunks: backends, buckets, breakers.

    Backends are memoised so replay stores and HTTP pools survive
    across chunks.  Token-bucket fill levels are kept so ``rps`` is a
    sustained rate instead of a fresh burst per chunk (the aggregate
    rate across a pool is ~``workers x rps``; size --rps accordingly).
    Breaker health is kept so a backend that tripped during one chunk
    stays tripped for the next instead of re-earning a full retry
    ladder.  Each queue-worker process and each engine's in-process
    loop owns one; ``repro serve`` runs one engine per job, so jobs
    never share one.
    """

    def __init__(self) -> None:
        self._backends: dict[tuple[BackendSpec, str], tuple[ModelProfile, ModelBackend]] = {}
        self._buckets: dict[tuple[BackendSpec, Optional[float]], BucketState] = {}
        self._breakers: dict[BackendSpec, BreakerState] = {}

    def _backend(self, spec: BackendSpec, profile: ModelProfile) -> ModelBackend:
        memo_key = (spec, profile.name)
        cached = self._backends.get(memo_key)
        if cached is None or cached[0] != profile:
            self._backends[memo_key] = (profile, create_backend(spec, profile))
        return self._backends[memo_key][1]

    def dispatch(
        self, spec: ChunkSpec, requests: Sequence[ModelRequest]
    ) -> list[LLMResponse]:
        """Run one chunk's requests as one dispatch batch."""
        breaker = None
        if spec.breaker_threshold > 0:
            breaker = CircuitBreaker(
                threshold=spec.breaker_threshold,
                state=self._breakers.setdefault(spec.backend, BreakerState()),
                backend_name=spec.backend.name,
            )
        bucket_key = (spec.backend, spec.rps)
        dispatcher = AsyncDispatcher(
            self._backend(spec.backend, spec.profile),
            max_concurrency=spec.max_concurrency,
            rps=spec.rps,
            bucket_state=self._buckets.get(bucket_key),
            request_timeout=spec.request_timeout,
            breaker=breaker,
        )
        responses = dispatcher.run_sync(requests, deadline_seconds=spec.deadline)
        if dispatcher.bucket_state is not None:
            self._buckets[bucket_key] = dispatcher.bucket_state
        return responses

    def close(self) -> None:
        """Release every memoised backend (idempotent)."""
        for _, backend in self._backends.values():
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()
        self._backends.clear()


def evaluate_chunk(
    spec: ChunkSpec, state: Optional[AnswerState] = None
) -> tuple[list[ModelAnswer], float]:
    """Answer one chunk as one dispatch batch: ``(answers, seconds)``.

    ``state`` is the caller's :class:`AnswerState` (a fresh one when
    omitted).  ``seconds`` is the chunk's wall time — on the queue the
    parent sums the workers' times into per-cell compute time for
    provenance (chunks of different cells overlap, so the parent's own
    clock cannot attribute time to cells).
    """
    started = time.perf_counter()
    state = state if state is not None else AnswerState()
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


def stream_worker_main(task_queue, result_queue) -> None:
    """Queue-worker loop: pull task descriptors until the None pill.

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
    answer_state = AnswerState()
    while True:
        item = task_queue.get()
        if item is None:
            break
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
