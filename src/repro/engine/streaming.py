"""The engine's work queue and its streamed data path.

:meth:`StreamingEvaluator.run_queued` is the engine's only process pool.
It runs an ordered list of cells on queue workers
(:func:`repro.engine.worker.stream_worker_main`), with the chunks of
several cells in flight at once.  Dispatch is pull-based with bounded
in-flight work: a worker holds at most ``PREFETCH`` pending chunks, so
total in-flight state (and therefore parent memory) is capped at
``workers x PREFETCH`` chunks regardless of dataset size — that bound IS
the backpressure, because a cell's chunk producer only advances when a
slot frees up.  Each cell's results merge in chunk order, and cells
finish in request order, so nothing downstream depends on the worker
count.  The materialised path hands it every pending cell (and its
dataset builds); the streamed path hands it one cell at a time.

The streamed data path, active when ``EngineConfig.chunk_size`` is set,
flows each cell through fixed-size chunks end to end:

* **produce** — task instances come from the same lazy generators the
  materialised builders drain (:mod:`repro.tasks.streaming`), re-chunked
  from the dataset cache entry on warm runs.  Each workload is opened
  once per run.  With a cache, its first complete pass spills the
  queries into a workload entry (``workloads/<key>/``) and every later
  pass — the run's other tasks, later runs — replays the spill instead
  of running the generator again;
* **evaluate** — on the work queue, or in the engine's in-process loop
  at ``workers=1``;
* **merge** — chunks are folded in order into a
  :class:`~repro.evalfw.accumulate.CellAccumulator`; the chunk's
  instances and answers are dropped immediately after.  Metrics come
  out byte-identical to the materialised path because every
  :class:`~repro.evalfw.accumulate.CellResult` reads them from an
  accumulator;
* **persist** — answers land in the cell's cache entry as they merge,
  one segment per chunk (atomic temp+rename each), with the manifest
  written only after the last chunk: a failed or killed run leaves no
  visible entry.  Any cell entry serves either data path.

Fault model: a worker that dies mid-chunk is detected via its exit
code; its assigned chunks are re-dispatched to a fresh worker up to
``MAX_ATTEMPTS`` times, after which the chunk's cell fails with
:class:`StreamWorkerCrash`.  A worker that *reports* an exception fails
the chunk's cell with that :class:`~repro.llm.backends.BackendError`,
or with :class:`StreamChunkError` for anything else (a poisoned chunk).
A failed cell fails alone; the engine's ``on_cell_error`` policy decides
whether the run goes on.  A failed streamed cell's cache segments are
discarded — no partial writes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.engine.cache import CacheSegmentError, cell_key, workload_key
from repro.engine.worker import ChunkSpec, ChunkTask, DatasetBuild, stream_worker_main
from repro.evalfw.accumulate import CellAccumulator, CellResult
from repro.llm.profiles import ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.tasks.streaming import iter_instance_chunks
from repro.workloads.streaming import WorkloadStream, stream_workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import EngineConfig, ExperimentEngine

#: Pending chunks a queue worker may hold (1 running + 1 prefetched).
PREFETCH = 2

#: Total dispatch attempts per chunk before its cell fails.
MAX_ATTEMPTS = 3

#: Seconds between liveness checks while waiting for results.
POLL_SECONDS = 0.1


class StreamError(RuntimeError):
    """Base class for work-queue failures."""


class StreamChunkError(StreamError):
    """A worker reported an exception evaluating a chunk (poisoned task)."""


class StreamWorkerCrash(StreamError):
    """A chunk killed its worker repeatedly; re-dispatch gave up."""


@dataclass
class StreamFault:
    """Test-only fault injection: applied to one chunk index.

    ``once=True`` (the default) arms the fault for the first dispatch
    only, so a crash is followed by a clean re-dispatch; ``once=False``
    keeps the fault on every dispatch of that chunk, which exhausts the
    re-dispatch budget and must surface as a named error.
    """

    kind: str  # "crash" | "poison"
    chunk: int = 0
    once: bool = True
    fired: int = field(default=0, repr=False)


@dataclass
class StreamStats:
    """Aggregate chunking provenance for one engine lifetime."""

    cells: int = 0
    chunks: int = 0
    instances: int = 0
    redispatched: int = 0
    worker_pids: set = field(default_factory=set)

    def count_cell(self, chunks: int, instances: int) -> None:
        self.cells += 1
        self.chunks += chunks
        self.instances += instances

    def as_dict(self) -> dict[str, int]:
        return {
            "cells": self.cells,
            "chunks": self.chunks,
            "instances": self.instances,
            "redispatched": self.redispatched,
            "workers_used": len(self.worker_pids),
        }


def _reraise(error: Optional[BaseException]) -> None:
    if error is not None:
        raise error


@dataclass
class CellWork:
    """One cell's chunks, for the work queue or the in-process loop.

    ``chunks`` yields the cell's chunk specs lazily, in order.
    ``on_merged(index, spec, result, seconds)`` sees each chunk's result
    in chunk order.  ``on_done(error)`` runs once per cell, in request
    order, with the cell's error or None; it may raise to stop the run,
    and by default re-raises the cell's error.
    """

    chunks: Iterable[Union[ChunkSpec, DatasetBuild]]
    on_merged: Callable[[int, Union[ChunkSpec, DatasetBuild], object, float], None]
    on_done: Callable[[Optional[BaseException]], None] = _reraise


class _CellRun:
    """Parent-side progress of one queued cell."""

    def __init__(self, cell_id: int, work: CellWork) -> None:
        self.id = cell_id
        self.work = work
        self.source = iter(work.chunks)
        self.dispatched = 0
        #: Chunk count, known once the cell's source is exhausted.
        self.total: Optional[int] = None
        self.next_merge = 0
        #: chunk -> (spec, result, seconds), waiting for earlier chunks.
        self.buffered: dict[int, tuple] = {}
        self.error: Optional[BaseException] = None

    @property
    def finished(self) -> bool:
        return self.error is not None or self.next_merge == self.total

    def fail(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error
            self.buffered.clear()


class _QueueWorker:
    """One queue worker process plus its parent-side bookkeeping."""

    def __init__(self, ctx, result_queue, config: "EngineConfig") -> None:
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=stream_worker_main,
            args=(self.task_queue, result_queue, config),
            daemon=True,
        )
        self.process.start()
        #: Dispatched-but-unfinished chunks, in dispatch order.
        self.assigned: deque[ChunkTask] = deque()

    @property
    def pid(self) -> int:
        return self.process.pid

    def dispatch(self, item: ChunkTask) -> None:
        self.assigned.append(item)
        self.task_queue.put(item)

    def settle(self, cell: int, chunk: int) -> None:
        """Per-worker results arrive in dispatch order: retire the head."""
        head = self.assigned[0] if self.assigned else None
        if head is not None and (head.cell, head.chunk) == (cell, chunk):
            self.assigned.popleft()

    def is_dead(self) -> bool:
        return self.process.exitcode is not None

    def stop(self, timeout: float = 5.0) -> None:
        if not self.is_dead():
            try:
                self.task_queue.put(None)
            except (OSError, ValueError):
                pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        self.task_queue.close()


class StreamPool:
    """``config.workers`` queue workers sharing one result queue.

    Each worker is spawned with the engine's config, from which it
    builds its own answering state.
    """

    def __init__(self, config: "EngineConfig") -> None:
        self.ctx = multiprocessing.get_context()
        self.config = config
        self.result_queue = self.ctx.Queue()
        self.workers: dict[int, _QueueWorker] = {}
        for _ in range(config.workers):
            self._spawn()

    def _spawn(self) -> _QueueWorker:
        worker = _QueueWorker(self.ctx, self.result_queue, self.config)
        self.workers[worker.pid] = worker
        return worker

    def replace(self, dead: _QueueWorker) -> _QueueWorker:
        """Replace a crashed worker with a fresh one (fresh task queue).

        The dead worker's queue may still hold undelivered items; a
        fresh queue guarantees the replacement never double-pulls them.
        """
        self.workers.pop(dead.pid, None)
        dead.process.join(timeout=1.0)
        return self._spawn()

    def live_workers(self) -> list[_QueueWorker]:
        return [w for w in self.workers.values() if not w.is_dead()]

    def close(self) -> None:
        """Graceful shutdown: poison pills, join, terminate stragglers."""
        for worker in list(self.workers.values()):
            worker.stop()
        self.workers.clear()
        self.result_queue.close()
        self.result_queue.join_thread()


def _rechunk(segments: Iterator[list], chunk_size: int) -> Iterator[list]:
    """Re-slice a stream of lists into ``chunk_size``-sized lists."""
    flat = chain.from_iterable(segments)
    while True:
        chunk = list(islice(flat, chunk_size))
        if not chunk:
            return
        yield chunk


class StreamingEvaluator:
    """Owns the work queue, and runs cells through the streamed data path."""

    def __init__(self, engine: "ExperimentEngine") -> None:
        self.engine = engine
        self.stats = StreamStats()
        #: Test-only injected fault; cleared responsibility is the test's.
        self.fault: Optional[StreamFault] = None
        self._pool: Optional[StreamPool] = None
        self._cell_counter = 0
        #: The first ``stream_workload`` open of each workload this run;
        #: every later pass is built from it.
        self._sources: dict[str, WorkloadStream] = {}

    # -- lifecycle ---------------------------------------------------------

    def _get_pool(self) -> StreamPool:
        if self._pool is None:
            self._pool = StreamPool(self.engine.config)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- fault injection ---------------------------------------------------

    def take_fault(self, chunk: int) -> Optional[str]:
        """The injected fault for this dispatch of ``chunk``, if armed."""
        fault = self.fault
        if fault is None or fault.chunk != chunk or (fault.once and fault.fired):
            return None
        fault.fired += 1
        return fault.kind

    def raise_fault(self, chunk: int) -> None:
        """In-process stand-in for a queue worker hitting its fault."""
        kind = self.take_fault(chunk)
        if kind == "crash":
            raise StreamWorkerCrash(f"chunk {chunk} crashed its worker (in-process)")
        if kind == "poison":
            raise StreamChunkError(
                f"chunk {chunk} failed: RuntimeError: injected poison fault"
            )

    # -- cell evaluation ---------------------------------------------------

    def evaluate_cell(
        self,
        profile: ModelProfile,
        task: str,
        workload_name: str,
        prompt: Optional[PromptTemplate],
    ) -> tuple[CellResult, bool, float]:
        """One streamed cell: ``(result, served_from_cache, seconds)``."""
        engine = self.engine
        key: Optional[str] = None
        if engine.cache is not None and not engine._backend_is_recording():
            key = cell_key(
                engine.config.seed,
                profile,
                task,
                workload_name,
                engine.config.max_instances,
                prompt,
                backend=engine.config.backend,
                backend_state=engine._backend_state(),
            )
            warm = self._serve_warm(profile, task, workload_name, key)
            if warm is not None:
                return warm, True, 0.0
        started = time.perf_counter()
        try:
            result = self._evaluate_cold(profile, task, workload_name, prompt, key)
        except CacheSegmentError:
            # A dataset segment or workload spill segment went bad
            # mid-read: drop both entries (else the recompute replays the
            # same bad segment) and recompute from a clean generator pass.
            if engine.cache is not None:
                engine.cache.discard_segments(
                    engine._dataset_disk_key(task, workload_name)
                )
                engine.cache.discard_segments(
                    workload_key(workload_name, engine.config.seed)
                )
            result = self._evaluate_cold(profile, task, workload_name, prompt, key)
        return result, False, round(time.perf_counter() - started, 6)

    # -- warm path ---------------------------------------------------------

    def _serve_warm(
        self,
        profile: ModelProfile,
        task: str,
        workload_name: str,
        key: str,
    ) -> Optional[CellResult]:
        """Serve a cell from its committed answer segments, or None.

        Validation is id-for-id while streaming, the same alignment
        guarantee the materialised path gives: a missing entry, any
        mismatch, truncated segment, or length drift counts a miss and
        leads to a clean recompute.  Answers are re-chunked to the
        configured chunk size, whichever path wrote the entry.
        """
        cache = self.engine.cache
        chunk_size = self.engine.config.chunk_size
        if cache.get_cell_manifest(key) is None:
            cache.stats.misses += 1
            return None
        acc = CellAccumulator(model=profile.name, task=task, workload=workload_name)
        try:
            instance_iter = chain.from_iterable(
                self._instance_chunks(task, workload_name)
            )
            for answers in _rechunk(cache.iter_cell_segments(key), chunk_size):
                instances = list(islice(instance_iter, len(answers)))
                if len(instances) != len(answers) or any(
                    a.instance_id != i.instance_id
                    for a, i in zip(answers, instances)
                ):
                    raise CacheSegmentError(f"cell {key} misaligned with its dataset")
                acc.add_chunk(instances, answers)
            if next(instance_iter, None) is not None:
                raise CacheSegmentError(f"cell {key} answers fewer instances")
        except CacheSegmentError:
            cache.stats.misses += 1
            return None
        cache.stats.hits += 1
        self.stats.count_cell(acc.chunks, acc.instances)
        return acc.result()

    # -- instance production ----------------------------------------------

    def _instance_chunks(self, task: str, workload_name: str) -> Iterator[list]:
        """The cell's instance stream, one chunk at a time.

        Warm: the committed dataset entry, re-chunked to the configured
        chunk size.  Cold: the lazy task-instance generators over one
        pass of the workload, persisting segments as they pass so
        sibling cells (other models, warm reruns) stream from disk.
        """
        engine = self.engine
        cache = engine.cache
        chunk_size = engine.config.chunk_size
        dkey = engine._dataset_disk_key(task, workload_name)
        if cache is not None:
            if cache.get_dataset_manifest(dkey) is not None:
                cache.stats.dataset_hits += 1
                return _rechunk(cache.iter_dataset_segments(dkey), chunk_size)
            cache.stats.dataset_misses += 1

        def generate() -> Iterator[list]:
            source = self._workload_pass(workload_name)
            counts: list[int] = []
            for chunk in iter_instance_chunks(
                task,
                source,
                seed=engine.config.seed,
                chunk_size=chunk_size,
                max_instances=engine.config.max_instances,
            ):
                if cache is not None:
                    cache.put_dataset_segment(dkey, len(counts), chunk)
                    counts.append(len(chunk))
                yield chunk
            if cache is not None:
                cache.commit_dataset_segments(
                    dkey,
                    chunk_size,
                    counts,
                    meta={"task": task, "workload": workload_name},
                )

        return generate()

    def _workload_pass(self, workload_name: str) -> WorkloadStream:
        """One pass over a workload's queries.

        ``stream_workload`` opens each workload once per run.  With a
        cache, a committed spill of the workload (any earlier complete
        pass, this run or an earlier one) is replayed segment by
        segment; otherwise this pass iterates the opened stream and
        spills it.  Without a cache every pass iterates the opened
        stream afresh, which re-runs a synthetic generator.
        """
        engine = self.engine
        source = self._sources.get(workload_name)
        if source is None:
            source = stream_workload(workload_name, engine.config.seed)
            self._sources[workload_name] = source
        cache = engine.cache
        if cache is None:
            return source
        key = workload_key(workload_name, engine.config.seed)
        replay = cache.get_workload(key)
        if replay is not None:
            return dataclasses.replace(source, factory=lambda: replay)
        return dataclasses.replace(
            source,
            factory=lambda: cache.put_workload(key, source.factory(), engine.config.chunk_size),
        )

    # -- cold path ---------------------------------------------------------

    def _evaluate_cold(
        self,
        profile: ModelProfile,
        task: str,
        workload_name: str,
        prompt: Optional[PromptTemplate],
        key: Optional[str],
    ) -> CellResult:
        engine = self.engine
        cache = engine.cache if key is not None else None
        chunk_size = engine.config.chunk_size
        acc = CellAccumulator(model=profile.name, task=task, workload=workload_name)
        counts: list[int] = []

        def on_merged(chunk_index: int, spec: ChunkSpec, answers: list, _seconds) -> None:
            acc.add_chunk(spec.instances, answers)
            if cache is not None:
                cache.put_cell_segment(key, chunk_index, answers)
                counts.append(len(answers))

        cell = CellWork(
            chunks=(
                ChunkSpec(
                    profile, task, tuple(instances), prompt, engine.config.cell_deadline
                )
                for instances in self._instance_chunks(task, workload_name)
            ),
            on_merged=on_merged,
        )
        try:
            if engine.config.workers == 1:
                engine._run_inline(cell)
                self.stats.worker_pids.add(os.getpid())
            else:
                self.run_queued([cell])
        except BaseException:
            # No partial cache writes: the manifest was never written,
            # so the entry is already invisible — drop the orphaned
            # segments too.
            if cache is not None:
                cache.discard_segments(key)
            raise
        if cache is not None:
            cache.commit_cell_segments(
                key,
                chunk_size,
                counts,
                meta={
                    "model": profile.name,
                    "task": task,
                    "workload": workload_name,
                    "seed": engine.config.seed,
                    "max_instances": engine.config.max_instances,
                },
            )
        self.stats.count_cell(acc.chunks, acc.instances)
        return acc.result()

    # -- work-queue scheduling ---------------------------------------------

    def run_queued(self, cells: Sequence[CellWork]) -> None:
        """Run ``cells`` on the queue workers, several cells in flight.

        The producer walks the cells in order, and in-flight work is
        bounded at ``workers x PREFETCH`` chunks: a chunk spec (which
        holds its instances until the merge) is only drawn from its
        cell's source when a worker slot frees up, which is the
        backpressure that keeps parent memory flat.  A failing chunk
        fails only its own cell; its remaining chunks are not
        dispatched.  Every ``on_done`` runs in request order, and the
        call returns with nothing in flight.
        """
        pool = self._get_pool()
        runs: list[_CellRun] = []
        for work in cells:
            self._cell_counter += 1
            runs.append(_CellRun(self._cell_counter, work))
        by_id = {run.id: run for run in runs}
        producing = 0  # index of the cell whose chunks are being drawn
        finishing = 0  # index of the next cell to hand to on_done
        inflight: dict[tuple[int, int], ChunkTask] = {}
        attempts: dict[tuple[int, int], int] = {}

        def top_up() -> None:
            nonlocal producing
            while producing < len(runs):
                free = [
                    w for w in pool.live_workers() if len(w.assigned) < PREFETCH
                ]
                if not free:
                    return
                run = runs[producing]
                spec = None if run.error is not None else next(run.source, None)
                if spec is None:
                    if run.error is None:
                        run.total = run.dispatched
                    producing += 1
                    continue
                item = ChunkTask(
                    cell=run.id,
                    chunk=run.dispatched,
                    spec=spec,
                    fault=(
                        self.take_fault(run.dispatched)
                        if isinstance(spec, ChunkSpec)
                        else None
                    ),
                )
                run.dispatched += 1
                inflight[(item.cell, item.chunk)] = item
                attempts[(item.cell, item.chunk)] = 1
                min(free, key=lambda w: len(w.assigned)).dispatch(item)

        def handle_dead_workers() -> None:
            for worker in [w for w in pool.workers.values() if w.is_dead()]:
                orphaned = list(worker.assigned)
                worker.assigned.clear()
                replacement = pool.replace(worker)
                for item in orphaned:
                    key = (item.cell, item.chunk)
                    if key not in inflight:
                        continue  # its result already arrived
                    run = by_id[item.cell]
                    attempts[key] += 1
                    if run.error is not None:
                        del inflight[key]  # its cell already failed
                        continue
                    if attempts[key] > MAX_ATTEMPTS:
                        del inflight[key]
                        run.fail(
                            StreamWorkerCrash(
                                f"chunk {item.chunk} killed its worker "
                                f"{MAX_ATTEMPTS} times; giving up"
                            )
                        )
                        continue
                    self.stats.redispatched += 1
                    persistent = self.fault is not None and not self.fault.once
                    replacement.dispatch(
                        dataclasses.replace(
                            item, fault=item.fault if persistent else None
                        )
                    )

        def finish_ready() -> None:
            nonlocal finishing
            while finishing < len(runs) and runs[finishing].finished:
                run = runs[finishing]
                finishing += 1
                run.work.on_done(run.error)

        try:
            while True:
                # Interrupt checkpoint: raising here lands in the
                # BaseException handler below, which drains the pool's
                # in-flight chunks before the caller cleans up.
                self.engine._checkpoint()
                top_up()
                finish_ready()
                if finishing == len(runs) and not inflight:
                    return
                if not any(w.assigned for w in pool.workers.values()):
                    # Work is left but nothing is out on a worker: every
                    # worker died idle.
                    handle_dead_workers()
                    continue
                try:
                    kind, pid, cell, chunk, payload = pool.result_queue.get(
                        timeout=POLL_SECONDS
                    )
                except queue_module.Empty:
                    handle_dead_workers()
                    continue
                worker = pool.workers.get(pid)
                if worker is not None:
                    worker.settle(cell, chunk)
                item = inflight.pop((cell, chunk), None)
                if item is None:
                    continue  # a re-dispatch raced a slow original
                run = by_id[cell]
                if kind == "error":
                    run.fail(
                        payload
                        if isinstance(payload, BaseException)
                        else StreamChunkError(f"chunk {chunk} failed: {payload}")
                    )
                    continue
                self.stats.worker_pids.add(pid)
                if run.error is not None:
                    continue
                run.buffered[chunk] = (item.spec, *payload)
                while run.next_merge in run.buffered:
                    spec, result, seconds = run.buffered.pop(run.next_merge)
                    run.work.on_merged(run.next_merge, spec, result, seconds)
                    run.next_merge += 1
        except BaseException:
            self._drain(pool)
            raise

    def _drain(self, pool: StreamPool, timeout: float = 10.0) -> None:
        """Graceful shutdown of in-flight chunks after a failure.

        Live workers finish (and we discard) what they already pulled,
        so they end at a clean queue boundary; then every worker gets
        its poison pill and the pool is torn down.  The next queued run
        starts a fresh pool.
        """
        deadline = time.monotonic() + timeout
        while any(w.assigned for w in pool.live_workers()):
            if time.monotonic() > deadline:
                break
            try:
                _kind, pid, cell, chunk, _payload = pool.result_queue.get(
                    timeout=POLL_SECONDS
                )
            except queue_module.Empty:
                for worker in pool.workers.values():
                    if worker.is_dead():
                        worker.assigned.clear()
                continue
            worker = pool.workers.get(pid)
            if worker is not None:
                worker.settle(cell, chunk)
        pool.close()
        self._pool = None
