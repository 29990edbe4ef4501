"""Worker-side functions for the engine's work queue.

Queue workers (:func:`stream_worker_main`) pull :class:`ChunkTask`
descriptors and send results back.  A task carries one of two kinds of
work:

* a :class:`ChunkSpec` — answer one chunk of one cell.  The chunk
  carries its instances inline; :func:`evaluate_chunk` batches their
  requests through the async dispatcher to the spec's backend (backends,
  token buckets and breaker health are memoised per worker process, so
  replay stores and HTTP pools survive across chunks);
* a :class:`DatasetBuild` — build every missing dataset of one workload,
  so the parent can overlap dataset construction across workloads.  A
  worker loads each workload once for the pool's lifetime (later builds
  over it reuse the loaded workload), and ``build_dataset`` is
  deterministic in its arguments, so the datasets shipped back are
  identical to what the parent would build.

:func:`answer_chunk` is the one chunk protocol (render, dispatch,
extract) shared by the queue workers and the engine's in-process loop.
Everything crossing the process boundary is plain picklable dataclasses,
and every answer depends only on ``(model, task, instance_id)`` — which
is why any worker count yields byte-identical results.
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
    create_backend,
)
from repro.llm.backends.dispatch import BreakerState, BucketState, CircuitBreaker
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.tasks.base import ModelAnswer, TaskDataset, TaskInstance
from repro.tasks.registry import answers_from_responses, build_dataset, build_request
from repro.workloads import load_workload
from repro.workloads.base import Workload

_BACKENDS: dict[tuple[BackendSpec, str], tuple[ModelProfile, ModelBackend]] = {}
#: Token-bucket fill levels, shared across this process's chunk batches
#: so ``rps`` is a sustained per-process rate (aggregate rate across a
#: pool is ~``workers x rps``; size --rps accordingly).
_BUCKET_STATES: dict[tuple[BackendSpec, float], BucketState] = {}
#: Circuit-breaker health per backend, shared across this process's
#: chunk batches: a backend that tripped during one chunk stays tripped
#: for the next instead of re-earning a full retry ladder.
_BREAKER_STATES: dict[BackendSpec, BreakerState] = {}


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


def _backend(spec: BackendSpec, profile: ModelProfile) -> ModelBackend:
    """Per-process backend memo (replay stores, HTTP pools survive chunks)."""
    memo_key = (spec, profile.name)
    cached = _BACKENDS.get(memo_key)
    if cached is None or cached[0] != profile:
        _BACKENDS[memo_key] = (profile, create_backend(spec, profile))
    return _BACKENDS[memo_key][1]


def answer_chunk(
    dispatcher: AsyncDispatcher,
    profile: ModelProfile,
    task: str,
    instances: Sequence[TaskInstance],
    prompt: Optional[PromptTemplate],
    deadline: Optional[float],
) -> list[ModelAnswer]:
    """Answer one chunk as one dispatch batch, in instance order."""
    responses = dispatcher.run_sync(
        [build_request(task, profile.name, instance, prompt) for instance in instances],
        deadline_seconds=deadline,
    )
    return answers_from_responses(task, instances, responses, profile.name)


def evaluate_chunk(spec: ChunkSpec) -> tuple[list[ModelAnswer], float]:
    """Evaluate one chunk in a queue worker: ``(answers, seconds)``.

    ``seconds`` is the chunk's wall time inside the worker — the parent
    sums these into per-cell compute time for provenance (chunks of
    different cells overlap, so the parent's own clock cannot attribute
    time to cells).
    """
    started = time.perf_counter()
    bucket_key = (spec.backend, spec.rps or 0.0)
    breaker = None
    if spec.breaker_threshold > 0:
        breaker = CircuitBreaker(
            threshold=spec.breaker_threshold,
            state=_BREAKER_STATES.setdefault(spec.backend, BreakerState()),
            backend_name=spec.backend.name,
        )
    dispatcher = AsyncDispatcher(
        _backend(spec.backend, spec.profile),
        max_concurrency=spec.max_concurrency,
        rps=spec.rps,
        bucket_state=(
            _BUCKET_STATES.get(bucket_key) if spec.rps is not None else None
        ),
        request_timeout=spec.request_timeout,
        breaker=breaker,
    )
    answers = answer_chunk(
        dispatcher,
        spec.profile,
        spec.task,
        list(spec.instances),
        spec.prompt,
        spec.deadline,
    )
    if spec.rps is not None and dispatcher.bucket_state is not None:
        _BUCKET_STATES[bucket_key] = dispatcher.bucket_state
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
                payload = evaluate_chunk(item.spec)
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
