"""The cache-backed experiment engine.

The paper's evaluation grid (models x tasks x workloads) is
embarrassingly parallel: every answer depends only on ``(model, task,
instance_id)``.  The engine splits each cell into ordered chunks of
instances and merges the answers back in chunk order, so any worker
count yields byte-identical results.  There is one place chunks run for
each worker count:

* ``workers=1`` never touches multiprocessing: :meth:`ExperimentEngine._run_inline`
  answers a cell's chunks in-process, one dispatch batch per chunk;
* ``workers>1`` runs on the work queue
  (:meth:`repro.engine.streaming.StreamingEvaluator.run_queued`), with
  the chunks of every pending cell in flight at once and missing
  datasets built on the same workers.

Both data paths use them: the materialised path (the default) holds
each cell's dataset in memory and cuts it into ``MATERIALISED_CHUNK_SIZE``
chunks; the streamed path (``chunk_size`` set,
:mod:`repro.engine.streaming`) produces chunks lazily with memory
bounded by the chunk size.

With a cache directory configured, evaluated cells are persisted through
:mod:`repro.engine.cache`; re-running a grid only recomputes cells whose
inputs (seed, profile, prompt, workload, instance cap, backend) changed.

Model calls go through the pluggable backend layer
(:mod:`repro.llm.backends`): each chunk's requests are batched through
an async dispatcher (bounded concurrency, rate limiting, retries) to
the configured backend — the in-process simulator by default, an HTTP
endpoint or a record/replay fixture store otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.engine.cache import (
    ResultCache,
    cell_key,
    dataset_key,
    prompt_fingerprint,
)
from repro.engine.worker import AnswerState, ChunkSpec, DatasetBuild, evaluate_chunk
from repro.evalfw.accumulate import CellResult
from repro.lifecycle import (
    CELL_COMMITTED,
    CELL_DEGRADED,
    CELL_FAILED,
    CELL_IN_FLIGHT,
    CELL_PENDING,
    CELL_SKIPPED,
    CellFailure,
    GracefulInterrupt,
    RunJournal,
)
from repro.lifecycle.journal import cell_descriptor
from repro.llm.backends import (
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_MAX_CONCURRENCY,
    SIMULATED_SPEC,
    BackendError,
    BackendSpec,
    DeadlineExceededError,
)
from repro.llm.profiles import MODEL_PROFILES, ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.sql.analysis_cache import counters as analysis_counters
from repro.tasks.base import ModelAnswer, TaskDataset
from repro.tasks.registry import TASK_WORKLOADS, build_dataset
from repro.workloads import load_workload
from repro.workloads.base import Workload

# ``repro.engine.streaming`` loads ``multiprocessing``.  This module
# imports it where a cell first needs it, so a run's startup (the CLI
# parser through ``prepare_run``) does not pay for it.
if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.streaming import CellWork, StreamingEvaluator

#: Instances per chunk on the materialised path: small enough that a
#: typical workload cell (a few hundred instances) splits across all
#: workers, large enough that per-chunk dispatch overhead stays
#: negligible.
MATERIALISED_CHUNK_SIZE = 64


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for one engine instance."""

    seed: int = 0
    workers: int = 1
    cache_dir: Optional[Path] = None  # None disables the result cache
    max_instances: Optional[int] = None
    #: Streamed chunk size; None keeps the materialised data path.  When
    #: set, cells flow chunk-by-chunk through the work-queue pool
    #: (:mod:`repro.engine.streaming`) with memory bounded by the chunk
    #: size instead of the dataset size.
    chunk_size: Optional[int] = None
    #: Which model backend answers requests (default: the simulator).
    backend: BackendSpec = SIMULATED_SPEC
    #: Dispatcher knobs: in-flight bound and sustained requests/second
    #: (None = unthrottled; the simulator needs no throttle).
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY
    rps: Optional[float] = None
    #: What to do when one cell cannot be evaluated: "fail" aborts the
    #: run (the historical behaviour), "skip"/"degrade" journal a
    #: structured CellFailure and continue with the rest of the grid.
    on_cell_error: str = "fail"
    #: Per-request wall-clock timeout in seconds (None = no timeout).
    #: Enforced both in the HTTP transport (openai_compat) and as an
    #: ``asyncio.wait_for`` safety net in the dispatcher.
    request_timeout: Optional[float] = None
    #: Per-cell wall-clock budget in seconds (None = unbounded).  The
    #: in-process loop spends it cumulatively across the cell's chunks;
    #: the work queue grants each chunk the full budget (coarser, but
    #: still bounds a hung endpoint per dispatch).
    cell_deadline: Optional[float] = None
    #: Circuit-breaker trip threshold (consecutive transient failures).
    #: None = auto: on for remote backends (openai_compat), off for the
    #: in-process simulator and replay fixtures.  0 disables explicitly.
    breaker_threshold: Optional[int] = None

    #: Valid ``on_cell_error`` policies.
    CELL_ERROR_POLICIES = ("fail", "skip", "degrade")

    def __post_init__(self) -> None:
        # The one range check of every knob.  Each message starts with
        # the field name, which ``prepare_run`` respells as its flag.
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.rps is not None and self.rps <= 0:
            raise ValueError(f"rps must be > 0, got {self.rps}")
        if self.max_instances is not None and self.max_instances < 1:
            raise ValueError(
                f"max_instances must be >= 1, got {self.max_instances}"
            )
        if self.on_cell_error not in self.CELL_ERROR_POLICIES:
            raise ValueError(
                f"on_cell_error must be one of {self.CELL_ERROR_POLICIES}, "
                f"got {self.on_cell_error!r}"
            )
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.cell_deadline is not None and self.cell_deadline <= 0:
            raise ValueError(
                f"cell_deadline must be > 0, got {self.cell_deadline}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )

    def as_dict(self) -> dict:
        """Every knob as JSON, keyed by field name (the journal manifest)."""
        data = {knob.name: getattr(self, knob.name) for knob in fields(self)}
        data["cache_dir"] = None if self.cache_dir is None else str(self.cache_dir)
        data["backend"] = {"name": self.backend.name, "options": self.backend.as_dict()}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """The config :meth:`as_dict` wrote.

        Keys that name no knob are ignored (a manifest also holds the
        run's artifacts, older ones the retired ``shard_size``), and a
        missing or null knob takes its default (older manifests wrote
        ``max_concurrency: null`` for the default).
        """
        knobs = {
            knob.name: data[knob.name]
            for knob in fields(cls)
            if data.get(knob.name) is not None
        }
        if "cache_dir" in knobs:
            knobs["cache_dir"] = Path(knobs["cache_dir"])
        if "backend" in knobs:
            backend = knobs["backend"]
            knobs["backend"] = BackendSpec.build(backend["name"], backend.get("options"))
        return cls(**knobs)

    def resolved_breaker_threshold(self) -> Optional[int]:
        """The effective trip threshold, or None when the breaker is off."""
        if self.breaker_threshold is None:
            return (
                DEFAULT_BREAKER_THRESHOLD
                if self.backend.name == "openai_compat"
                else None
            )
        return self.breaker_threshold if self.breaker_threshold > 0 else None


@dataclass(frozen=True)
class CellLog:
    """Provenance of one served cell: cache hit or computed, and when.

    ``seconds`` is the cell's compute time: for a materialised cell the
    *sum* of its chunk times, measured in-process or by the workers'
    own clocks on the work queue (chunks of different cells overlap, so
    the parent's clock cannot attribute elapsed time — the workers'
    clocks can), with ``chunk_seconds_max`` the slowest chunk (the
    cell's critical path); for a streamed cell its wall time, with
    ``chunk_seconds_max`` None.  Cached cells record ~0 seconds.
    ``prompt`` is the prompt-template fingerprint the cell was asked
    with, so a re-serve under a *different* prompt is distinguishable
    from a repeat serve of the same experiment.  The reporting layer
    folds these into RunRecords.
    """

    model: str
    task: str
    workload: str
    instances: int
    cached: bool
    seconds: Optional[float]
    prompt: str = ""
    chunk_seconds_max: Optional[float] = None


class ExperimentEngine:
    """Evaluates grid cells, in parallel and through the result cache."""

    def __init__(
        self,
        config: EngineConfig = EngineConfig(),
        models: tuple[ModelProfile, ...] = MODEL_PROFILES,
    ) -> None:
        self.config = config
        self.models = models
        self.cache = (
            ResultCache(Path(config.cache_dir))
            if config.cache_dir is not None
            else None
        )
        self.computed_cells = 0
        self.cached_cells = 0
        #: Every distinct served cell, keyed (model, task, workload) —
        #: the reporting layer snapshots this into RunRecords.
        self.results: dict[tuple[str, str, str], CellResult] = {}
        #: Append-only provenance log (one entry per serve, incl. repeats).
        self.cell_log: list[CellLog] = []
        self._workloads: dict[str, Workload] = {}
        self._datasets: dict[tuple[str, str], TaskDataset] = {}
        #: The in-process loop's event loop, bucket, breaker and
        #: backends, kept across its chunks and cells.
        self._answer_state = AnswerState(config)
        #: Lifecycle hooks, wired by the CLI: a write-ahead journal for
        #: crash-safe resume, a graceful-interrupt latch polled at the
        #: engine's checkpoints, and an optional per-commit callback
        #: (the chaos harness uses it to deliver signals at exact,
        #: reproducible points in the grid).
        self.journal: Optional[RunJournal] = None
        self.interrupt: Optional[GracefulInterrupt] = None
        self.on_cell_commit = None
        #: Structured failures of cells absorbed under
        #: ``on_cell_error=skip|degrade`` — the reporting layer renders
        #: these as explicit gaps.
        self.failures: list[CellFailure] = []
        #: Memoised fixtures-content hash (replay mode; one IO pass).
        self._backend_state_memo: Optional[str] = None
        self._by_name = {profile.name: profile for profile in models}
        self._streaming: Optional["StreamingEvaluator"] = None
        #: Analysis-memo counters at the start of this engine's run; the
        #: run record stores the counts accumulated since.
        self.analysis_baseline = analysis_counters()

    # -- shared state ------------------------------------------------------

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = load_workload(name, self.config.seed)
        return self._workloads[name]

    def dataset(self, task: str, workload_name: str) -> TaskDataset:
        key = (task, workload_name)
        if key not in self._datasets:
            cached = self._dataset_from_disk(task, workload_name)
            if cached is not None:
                self._datasets[key] = cached
            else:
                self._datasets[key] = build_dataset(
                    task,
                    self.workload(workload_name),
                    seed=self.config.seed,
                    max_instances=self.config.max_instances,
                )
                self._dataset_to_disk(task, workload_name, self._datasets[key])
        return self._datasets[key]

    def _dataset_disk_key(self, task: str, workload_name: str) -> str:
        return dataset_key(
            task, workload_name, self.config.seed, self.config.max_instances
        )

    def _dataset_from_disk(
        self, task: str, workload_name: str
    ) -> Optional[TaskDataset]:
        if self.cache is None:
            return None
        return self.cache.get_dataset(self._dataset_disk_key(task, workload_name))

    def _dataset_to_disk(
        self, task: str, workload_name: str, dataset: TaskDataset
    ) -> None:
        if self.cache is not None:
            self.cache.put_dataset(
                self._dataset_disk_key(task, workload_name), dataset
            )

    def _backend_is_recording(self) -> bool:
        """Whether runs exist for their side effects (fixture writing)."""
        return self.config.backend.option("mode") == "record"

    def _backend_state(self) -> str:
        """External state feeding the backend's answers, for cache keys.

        Replay-mode fixtures are an input like source code or the seed:
        their content hash joins the cell key so edited or re-recorded
        fixtures invalidate cells cached against the old responses.
        Recording runs return "" (they never read the cell cache, and
        their fixture store mutates while they run).
        """
        spec = self.config.backend
        if spec.name != "replay" or self._backend_is_recording():
            return ""
        if self._backend_state_memo is None:
            from repro.llm.backends.replay import (
                DEFAULT_FIXTURES_DIR,
                fixtures_fingerprint,
            )

            root = spec.option("dir") or str(DEFAULT_FIXTURES_DIR)
            self._backend_state_memo = fixtures_fingerprint(Path(root))
        return self._backend_state_memo

    def profile(self, model_name: str) -> ModelProfile:
        try:
            return self._by_name[model_name]
        except KeyError:
            raise KeyError(
                f"unknown model {model_name!r}; engine has {sorted(self._by_name)}"
            ) from None

    # -- resilience --------------------------------------------------------

    def _checkpoint(self) -> None:
        """Raise :class:`RunInterrupted` if a graceful drain was requested.

        Called between cells and between chunks — the points where
        everything already served is durable and nothing is
        half-written.
        """
        if self.interrupt is not None:
            self.interrupt.check()

    def _journal_cell(
        self,
        model: str,
        task: str,
        workload: str,
        state: str,
        failure: Optional[CellFailure] = None,
    ) -> None:
        if self.journal is not None:
            self.journal.record(
                cell_descriptor(model, task, workload), state, failure=failure
            )

    def _after_cell_commit(self) -> None:
        if self.on_cell_commit is not None:
            self.on_cell_commit()

    def _fail_cell(
        self, model: str, task: str, workload: str, error: BaseException
    ) -> None:
        """Apply the ``on_cell_error`` policy to a cell that raised ``error``.

        Backend failures (retry exhaustion, open circuits, deadlines)
        and work-queue failures (worker crashes, poisoned chunks) poison
        *one cell*: under ``skip``/``degrade`` the failure is journalled
        and recorded, and the grid goes on.  Under ``fail`` it is
        journalled and re-raised.  Anything else — including
        :class:`~repro.lifecycle.RunInterrupted` — is about the run and
        always re-raises.
        """
        from repro.engine.streaming import StreamError

        if not isinstance(error, (BackendError, StreamError)):
            raise error
        failure = CellFailure.from_exception(model, task, workload, error)
        if self.config.on_cell_error == "fail":
            self._journal_cell(model, task, workload, CELL_FAILED, failure)
            raise error
        state = (
            CELL_SKIPPED
            if self.config.on_cell_error == "skip"
            else CELL_DEGRADED
        )
        self.failures.append(failure)
        self._journal_cell(model, task, workload, state, failure)

    # -- lifecycle ---------------------------------------------------------

    @property
    def streaming(self) -> "StreamingEvaluator":
        """The work queue and the streamed data path."""
        if self._streaming is None:
            from repro.engine.streaming import StreamingEvaluator

            self._streaming = StreamingEvaluator(self)
        return self._streaming

    def stream_stats(self) -> Optional[dict]:
        """Chunking provenance for the reporting layer (None if unused)."""
        if self._streaming is None:
            return None
        return self._streaming.stats.as_dict()

    def close(self) -> None:
        """Shut down the worker pool and backends (idempotent)."""
        # The evaluator survives close() so its stats stay readable for
        # the run record; only its worker pool is torn down.
        if self._streaming is not None:
            self._streaming.close()
        self._answer_state.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation --------------------------------------------------------

    def run_cell(
        self,
        model_name: str,
        task: str,
        workload_name: str,
        prompt: Optional[PromptTemplate] = None,
    ) -> CellResult:
        """Evaluate one cell (through the cache and the pool)."""
        grid = self._evaluate_cells(
            [(self.profile(model_name), task, workload_name)], prompt
        )
        return grid[(model_name, workload_name)]

    def run_task(
        self,
        task: str,
        workloads: Optional[tuple[str, ...]] = None,
        prompt: Optional[PromptTemplate] = None,
    ) -> dict[tuple[str, str], CellResult]:
        """Evaluate all models on all of a task's workloads.

        On the work queue, the chunks of all pending cells are in flight
        together, so worker utilisation does not dip at cell boundaries.
        """
        names = workloads or TASK_WORKLOADS[task]
        cells = [
            (profile, task, workload_name)
            for profile in self.models
            for workload_name in names
        ]
        return self._evaluate_cells(cells, prompt)

    def _evaluate_cells(
        self,
        cells: Sequence[tuple[ModelProfile, str, str]],
        prompt: Optional[PromptTemplate],
    ) -> dict[tuple[str, str], CellResult]:
        if self.config.chunk_size is not None:
            return self._evaluate_cells_streamed(cells, prompt)
        grid: dict[tuple[str, str], CellResult] = {}
        pending: list[tuple[ModelProfile, str, str, TaskDataset, Optional[str]]] = []
        if self.config.workers > 1:
            self._prefetch_datasets({(task, workload) for _, task, workload in cells})
        for profile, task, workload_name in cells:
            self._checkpoint()
            dataset = self.dataset(task, workload_name)
            key: Optional[str] = None
            if self.cache is not None:
                key = cell_key(
                    self.config.seed,
                    profile,
                    task,
                    workload_name,
                    self.config.max_instances,
                    prompt,
                    backend=self.config.backend,
                    backend_state=self._backend_state(),
                )
                # A recording run's purpose is its side effect (writing
                # fixtures through the inner backend), so cached cells
                # must not elide it — and its cache entries would be
                # unreadable anyway (no later run shares the
                # mode=record fingerprint), so it skips the cache in
                # both directions.
                answers = (
                    None
                    if self._backend_is_recording()
                    else self.cache.get(key, expected_ids=dataset.instance_ids())
                )
                if answers is not None:
                    self.cached_cells += 1
                    result = CellResult(
                        model=profile.name,
                        task=task,
                        workload=workload_name,
                        dataset=dataset,
                        answers=answers,
                    )
                    grid[(profile.name, workload_name)] = result
                    self._record_cell(result, cached=True, seconds=0.0, prompt=prompt)
                    self._journal_cell(
                        profile.name, task, workload_name, CELL_COMMITTED
                    )
                    self._after_cell_commit()
                    continue
            self._journal_cell(profile.name, task, workload_name, CELL_PENDING)
            pending.append((profile, task, workload_name, dataset, key))

        work = [self._cell_work(grid, entry, prompt) for entry in pending]
        if self.config.workers == 1:
            for cell in work:
                self._run_inline(cell)
        elif work:
            self.streaming.run_queued(work)
        # Cached cells land in ``grid`` during the first pass and
        # computed ones only after, so on a mixed hit/miss run the
        # dict's insertion order — which report renderers read as
        # column order — would depend on cache state.  Re-key in
        # request order so partially-cached reruns are byte-identical
        # to cold ones (absorbed degraded cells stay absent).
        return {
            (profile.name, workload_name): grid[(profile.name, workload_name)]
            for profile, _, workload_name in cells
            if (profile.name, workload_name) in grid
        }

    def _cell_work(
        self,
        grid: dict,
        entry: tuple[ModelProfile, str, str, TaskDataset, Optional[str]],
        prompt: Optional[PromptTemplate],
    ) -> "CellWork":
        """One materialised cell's chunks, for the in-process loop or the queue.

        The cell's ``seconds`` is the sum of its chunk times and
        ``chunk_seconds_max`` the slowest chunk (its critical path).  On
        the queue those are the workers' own clocks: queued cells
        overlap in wall time, so the parent's clock cannot attribute it.
        """
        from repro.engine.streaming import CellWork

        profile, task, workload_name, dataset, _ = entry
        instances = dataset.instances
        answers: list[ModelAnswer] = []
        chunk_seconds: list[float] = []

        def chunks() -> Iterator[ChunkSpec]:
            self._journal_cell(profile.name, task, workload_name, CELL_IN_FLIGHT)
            for start in range(0, len(instances), MATERIALISED_CHUNK_SIZE):
                chunk = instances[start : start + MATERIALISED_CHUNK_SIZE]
                yield ChunkSpec(
                    profile, task, tuple(chunk), prompt, self.config.cell_deadline
                )

        def on_merged(_index, _spec, chunk_answers, seconds) -> None:
            answers.extend(chunk_answers)
            chunk_seconds.append(seconds)

        def on_done(error: Optional[BaseException]) -> None:
            if error is not None:
                self._fail_cell(profile.name, task, workload_name, error)
                return
            if self.config.workers > 1:
                self.streaming.stats.count_cell(len(chunk_seconds), len(answers))
            self._commit_cell(
                grid,
                entry,
                answers,
                round(sum(chunk_seconds), 6),
                round(max(chunk_seconds), 6) if chunk_seconds else 0.0,
                prompt,
            )

        return CellWork(chunks=chunks(), on_merged=on_merged, on_done=on_done)

    def _commit_cell(
        self,
        grid: dict,
        entry: tuple[ModelProfile, str, str, TaskDataset, Optional[str]],
        answers: list[ModelAnswer],
        seconds: Optional[float],
        chunk_seconds_max: Optional[float],
        prompt: Optional[PromptTemplate],
    ) -> None:
        """Persist and record one computed cell (cache, log, journal)."""
        profile, task, workload_name, dataset, key = entry
        self.computed_cells += 1
        if (
            self.cache is not None
            and key is not None
            and not self._backend_is_recording()
        ):
            self.cache.put(
                key,
                answers,
                meta={
                    "model": profile.name,
                    "task": task,
                    "workload": workload_name,
                    "seed": self.config.seed,
                    "max_instances": self.config.max_instances,
                },
            )
        result = CellResult(
            model=profile.name,
            task=task,
            workload=workload_name,
            dataset=dataset,
            answers=answers,
        )
        grid[(profile.name, workload_name)] = result
        self._record_cell(
            result,
            cached=False,
            seconds=seconds,
            prompt=prompt,
            chunk_seconds_max=chunk_seconds_max,
        )
        self._journal_cell(profile.name, task, workload_name, CELL_COMMITTED)
        self._after_cell_commit()

    def _evaluate_cells_streamed(
        self,
        cells: Sequence[tuple[ModelProfile, str, str]],
        prompt: Optional[PromptTemplate],
    ) -> dict[tuple[str, str], CellResult]:
        """The chunked data path: cells stream one at a time.

        Each cell's instances are produced, evaluated, merged and
        persisted in ``chunk_size``-sized segments; the grid result is a
        :class:`~repro.evalfw.accumulate.CellResult` that holds the
        metric counts but no dataset or answers.
        """
        grid: dict[tuple[str, str], CellResult] = {}
        for profile, task, workload_name in cells:
            self._checkpoint()
            self._journal_cell(profile.name, task, workload_name, CELL_IN_FLIGHT)
            try:
                result, cached, seconds = self.streaming.evaluate_cell(
                    profile, task, workload_name, prompt
                )
            except Exception as error:
                self._fail_cell(profile.name, task, workload_name, error)
                continue
            if cached:
                self.cached_cells += 1
            else:
                self.computed_cells += 1
            grid[(profile.name, workload_name)] = result
            self._record_cell(result, cached=cached, seconds=seconds, prompt=prompt)
            self._journal_cell(profile.name, task, workload_name, CELL_COMMITTED)
            self._after_cell_commit()
        return grid

    def _record_cell(
        self,
        result: CellResult,
        cached: bool,
        seconds: Optional[float],
        prompt: Optional[PromptTemplate] = None,
        chunk_seconds_max: Optional[float] = None,
    ) -> None:
        """Accumulate a served cell for the reporting layer."""
        self.results[(result.model, result.task, result.workload)] = result
        self.cell_log.append(
            CellLog(
                model=result.model,
                task=result.task,
                workload=result.workload,
                instances=result.instance_count,
                cached=cached,
                seconds=seconds,
                prompt=prompt_fingerprint(result.task, prompt),
                chunk_seconds_max=chunk_seconds_max,
            )
        )

    def _prefetch_datasets(self, needed: set[tuple[str, str]]) -> None:
        """Materialise missing datasets: disk cache first, then workers.

        Dataset construction (parsing, corruption injection, pair
        generation) dominates a cold grid run, and ``build_dataset`` is
        deterministic — so each (task, workload) dataset that is neither
        in memory nor on disk is built exactly once, on a queue worker,
        with the builds overlapping each other; the parent keeps and
        persists what comes back.
        """
        from repro.engine.streaming import CellWork

        missing = []
        for key in sorted(key for key in needed if key not in self._datasets):
            cached = self._dataset_from_disk(*key)
            if cached is not None:
                self._datasets[key] = cached
            else:
                missing.append(key)
        # One job per *workload*, building all of its missing datasets:
        # the worker loads the workload once and its analysis cache is
        # shared across the workload's tasks (which reuse the same query
        # texts).  One job per dataset would instead have every worker
        # re-load and re-parse the same workload.
        by_workload: dict[str, list[str]] = {}
        for task, workload_name in missing:
            by_workload.setdefault(workload_name, []).append(task)
        if not by_workload:
            return

        def keep(_index, build: DatasetBuild, datasets, _seconds) -> None:
            for task, dataset in zip(build.tasks, datasets):
                self._datasets[(task, build.workload)] = dataset
                self._dataset_to_disk(task, build.workload, dataset)

        self.streaming.run_queued(
            [
                CellWork(
                    chunks=[
                        DatasetBuild(
                            workload=workload_name,
                            seed=self.config.seed,
                            tasks=tuple(tasks),
                            max_instances=self.config.max_instances,
                        )
                    ],
                    on_merged=keep,
                )
                for workload_name, tasks in by_workload.items()
            ]
        )

    def _run_inline(self, cell: "CellWork") -> None:
        """The in-process loop (``workers=1``): one cell's chunks, in order.

        Each chunk goes through :func:`~repro.engine.worker.evaluate_chunk`,
        exactly as on a queue worker, with the engine's
        :class:`~repro.engine.worker.AnswerState`.  A chunk arrives with
        the full cell deadline; unlike the queue, this loop narrows it to
        what is left of the cell's budget, so the budget is spent
        cumulatively across the cell's chunks.  As on the work queue, the
        cell's outcome goes to ``cell.on_done``.
        """
        deadline = self.config.cell_deadline
        cell_started = time.monotonic()
        try:
            for index, spec in enumerate(cell.chunks):
                self._checkpoint()
                if self._streaming is not None:
                    self._streaming.raise_fault(index)
                chunk = spec
                if deadline is not None:
                    remaining = deadline - (time.monotonic() - cell_started)
                    if remaining <= 0:
                        raise DeadlineExceededError(
                            f"cell deadline of {deadline}s exceeded before "
                            f"chunk {index} ({spec.profile.name}/{spec.task})"
                        )
                    chunk = replace(spec, deadline=remaining)
                answers, seconds = evaluate_chunk(chunk, self._answer_state)
                cell.on_merged(index, spec, answers, seconds)
        except Exception as error:
            cell.on_done(error)
            return
        cell.on_done(None)
