"""Shared run execution: one code path behind ``repro run`` and serving.

``repro run`` and the evaluation service (:mod:`repro.server`) must
produce byte-identical results for the same grid — same cell cache
keys, same journal manifest, same RunRecord metrics.  The only way to
guarantee that is to run both through literally the same code, so this
module owns the whole pipeline the CLI used to inline:

* :class:`RunRequest` — a validated, transport-agnostic description of
  one grid run (what ``repro run``'s flags parse into, and what the
  server's ``POST /v1/runs`` body deserialises into);
* :func:`prepare_run` — validation + name resolution into the run's
  one :class:`~repro.engine.EngineConfig`, raising
  :class:`RunRequestError` with the exact messages the CLI prints;
* :func:`begin_journal` / :func:`prepare_resume` — the write-ahead
  journal handshake shared with ``repro run --resume``;
* :func:`execute_prepared` — the evaluation loop itself, under the
  journal + graceful-interrupt latch, emitting the same report text
  and diagnostics through injectable callbacks.

The CLI binds the callbacks to stdout/stderr; the server binds them to
its per-job event log.  Neither layer re-implements any run semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from repro.lifecycle.layout import DEFAULT_CACHE_DIR, DEFAULT_RUNS_DIR

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.engine.core import EngineConfig


class RunRequestError(ValueError):
    """A run request is invalid; ``str()`` is the user-facing message."""


@dataclass(frozen=True)
class RunRequest:
    """Everything one grid run needs, independent of transport.

    Field defaults mirror the ``repro run`` argparse defaults, so a
    request built from a sparse JSON payload behaves exactly like the
    CLI invoked with the same subset of flags.
    """

    artifacts: tuple[str, ...] = ()
    workload: Optional[str] = None
    strata: Optional[str] = None
    seed: int = 0
    workers: int = 1
    chunk_size: Optional[int] = None
    cache_dir: Path = DEFAULT_CACHE_DIR
    no_cache: bool = False
    runs_dir: Path = DEFAULT_RUNS_DIR
    record: bool = True
    max_instances: Optional[int] = None
    backend: str = "simulated"
    backend_opts: tuple[str, ...] = ()
    fixtures_dir: Optional[Path] = None
    record_fixtures: bool = False
    max_concurrency: Optional[int] = None
    rps: Optional[float] = None
    on_cell_error: str = "fail"
    request_timeout: Optional[float] = None
    cell_deadline: Optional[float] = None
    breaker_threshold: Optional[int] = None
    chaos: Optional[str] = None
    #: Provenance: who initiated the run — ``cli`` or ``service``.
    origin: str = "cli"
    client_id: str = ""


#: Payload keys ``request_from_payload`` accepts.  Deliberately *not*
#: the full ``RunRequest``: directory layout (cache/runs dirs) and
#: provenance are decided by the server, never by the remote client.
_PAYLOAD_KEYS = frozenset(
    {
        "artifacts",
        "workload",
        "strata",
        "seed",
        "workers",
        "chunk_size",
        "max_instances",
        "backend",
        "backend_options",
        "fixtures_dir",
        "record_fixtures",
        "max_concurrency",
        "rps",
        "on_cell_error",
        "request_timeout",
        "cell_deadline",
        "breaker_threshold",
        "chaos",
    }
)


def request_from_payload(
    payload: dict,
    *,
    cache_dir: Path,
    runs_dir: Path,
    origin: str = "service",
    client_id: str = "",
) -> RunRequest:
    """Build a :class:`RunRequest` from a ``POST /v1/runs`` JSON body.

    Grid semantics come from the payload; placement (cache and runs
    directories) and provenance come from the server.  Unknown keys are
    rejected so a typo never silently runs a different grid.
    """
    if not isinstance(payload, dict):
        raise RunRequestError("run request body must be a JSON object")
    unknown = sorted(set(payload) - _PAYLOAD_KEYS)
    if unknown:
        raise RunRequestError(
            f"unknown run request keys: {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(_PAYLOAD_KEYS))})"
        )
    artifacts = payload.get("artifacts") or ()
    if isinstance(artifacts, str):
        artifacts = (artifacts,)
    if not isinstance(artifacts, (list, tuple)) or not all(
        isinstance(item, str) for item in artifacts
    ):
        raise RunRequestError("artifacts must be a list of task/artifact names")
    options = payload.get("backend_options") or {}
    if not isinstance(options, dict):
        raise RunRequestError("backend_options must be an object")
    for key, value in options.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise RunRequestError(
                f"backend_options.{key} must be a string or a number, "
                f"got {value!r}"
            )
    backend_opts = tuple(
        f"{key}={value}" for key, value in sorted(options.items())
    )

    def _int(key: str, default: Optional[int] = None) -> Optional[int]:
        value = payload.get(key)
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            raise RunRequestError(f"{key} must be an integer, got {value!r}")
        return value

    def _float(key: str) -> Optional[float]:
        value = payload.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RunRequestError(f"{key} must be a number, got {value!r}")
        return float(value)

    def _str(key: str) -> Optional[str]:
        value = payload.get(key)
        if value is not None and not isinstance(value, str):
            raise RunRequestError(f"{key} must be a string, got {value!r}")
        return value

    record_fixtures = payload.get("record_fixtures", False)
    if not isinstance(record_fixtures, bool):
        raise RunRequestError(
            f"record_fixtures must be true or false, got {record_fixtures!r}"
        )

    fixtures_dir = _str("fixtures_dir")
    return RunRequest(
        artifacts=tuple(artifacts),
        workload=_str("workload"),
        strata=_str("strata"),
        seed=_int("seed", 0),
        workers=_int("workers", 1),
        chunk_size=_int("chunk_size"),
        cache_dir=cache_dir,
        runs_dir=runs_dir,
        record=True,
        max_instances=_int("max_instances"),
        backend=str(payload.get("backend", "simulated")),
        backend_opts=backend_opts,
        fixtures_dir=Path(fixtures_dir) if fixtures_dir else None,
        record_fixtures=record_fixtures,
        max_concurrency=_int("max_concurrency"),
        rps=_float("rps"),
        on_cell_error=_str("on_cell_error") or "fail",
        request_timeout=_float("request_timeout"),
        cell_deadline=_float("cell_deadline"),
        breaker_threshold=_int("breaker_threshold"),
        chaos=_str("chaos"),
        origin=origin,
        client_id=client_id,
    )


def request_from_args(args) -> RunRequest:
    """Build a :class:`RunRequest` from the parsed ``repro run`` flags."""
    return RunRequest(
        artifacts=tuple(args.artifacts),
        workload=args.workload,
        strata=args.strata,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        runs_dir=args.runs_dir,
        record=not args.no_record,
        max_instances=args.max_instances,
        backend=args.backend,
        backend_opts=tuple(args.backend_opt or ()),
        fixtures_dir=args.fixtures_dir,
        record_fixtures=args.record_fixtures,
        max_concurrency=args.max_concurrency,
        rps=args.rps,
        on_cell_error=args.on_cell_error,
        request_timeout=args.request_timeout,
        cell_deadline=args.cell_deadline,
        breaker_threshold=args.breaker_threshold,
        chaos=args.chaos,
    )


@dataclass
class PreparedRun:
    """A validated run: what to evaluate, with which engine, where to record."""

    wanted: list[str]
    workload_name: Optional[str]
    engine_config: "EngineConfig"
    runs_dir: Path = DEFAULT_RUNS_DIR
    record: bool = True
    #: The ``--chaos`` plan as given (journalled) and as parsed (armed).
    chaos: Optional[str] = None
    chaos_plan: object = None
    origin: str = "cli"
    client_id: str = ""
    #: The ``[resume] ...`` stderr line, set by :func:`prepare_resume`.
    resume_banner: Optional[str] = None

    def config(self) -> dict:
        """The journal manifest config — everything a resume needs.

        The engine knobs are written by ``EngineConfig.as_dict`` and read
        back by ``EngineConfig.from_dict`` in :func:`prepare_resume`.
        """
        return {
            "artifacts": list(self.wanted),
            "workload": self.workload_name,
            "chaos": self.chaos,
            **self.engine_config.as_dict(),
        }

    def fingerprint(self) -> str:
        """Content-addressed identity of this grid configuration.

        Two requests with the same fingerprint evaluate the same cells
        with the same cache keys, so the service dedups on it: an
        identical re-submission attaches to the existing job instead of
        recomputing.  Provenance (origin, client id) is deliberately
        excluded — the *grid* is the identity, not who asked for it.
        """
        payload = json.dumps(self.config(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def prepare_run(request: RunRequest) -> PreparedRun:
    """Validate a request and resolve names into a :class:`PreparedRun`.

    Raises :class:`RunRequestError` with exactly the message the CLI
    has always printed for the equivalent flag mistake.
    """
    from repro.engine.core import EngineConfig
    from repro.experiments.registry import (
        ARTIFACT_IDS,
        EXPERIMENTS,
        PER_INSTANCE_ARTIFACTS,
    )
    from repro.llm.backends import (
        DEFAULT_MAX_CONCURRENCY,
        backend_names,
        spec_from_cli,
    )

    wanted = list(request.artifacts)
    workload_name: Optional[str] = None
    if request.workload is not None:
        from repro.tasks.registry import tasks_for_workload
        from repro.workloads import resolve_workload_name

        spec = request.workload
        if request.strata is not None:
            if ":strata=" in spec:
                raise RunRequestError(
                    "--strata conflicts with a strata= segment already in "
                    "--workload; use one or the other"
                )
            parts = [part for part in request.strata.split(",") if part]
            if not parts:
                raise RunRequestError(
                    "--strata requires at least one stratum name"
                )
            spec += ":strata=" + "+".join(parts)
        try:
            workload_name = resolve_workload_name(spec)
        except (KeyError, ValueError) as error:
            # str(KeyError) wraps its argument in quotes; raise the
            # message itself for both exception types.
            raise RunRequestError(
                error.args[0] if error.args else str(error)
            ) from error
        applicable = tasks_for_workload(workload_name)
        unknown = [t for t in wanted if t not in applicable]
        if unknown:
            raise RunRequestError(
                f"unknown tasks for workload {workload_name!r}: "
                f"{', '.join(unknown)} "
                f"(it supports: {', '.join(applicable)})"
            )
        wanted = wanted or list(applicable)
    else:
        if request.strata is not None:
            raise RunRequestError("--strata requires --workload")
        if not wanted:
            raise RunRequestError("run requires artifact ids or --workload")
        if wanted == ["all"]:
            wanted = list(ARTIFACT_IDS)
        unknown = [a for a in wanted if a not in EXPERIMENTS]
        if unknown:
            raise RunRequestError(f"unknown artifacts: {', '.join(unknown)}")
    # 0 means "materialised path": the one flag EngineConfig cannot check.
    if request.chunk_size is not None and request.chunk_size < 0:
        raise RunRequestError(f"--chunk-size must be >= 0, got {request.chunk_size}")
    try:
        engine_config = EngineConfig(
            seed=request.seed,
            workers=request.workers,
            cache_dir=None if request.no_cache else request.cache_dir,
            max_instances=request.max_instances,
            chunk_size=resolve_chunk_size(request.chunk_size, workload_name),
            max_concurrency=(
                DEFAULT_MAX_CONCURRENCY
                if request.max_concurrency is None
                else request.max_concurrency
            ),
            rps=request.rps,
            on_cell_error=request.on_cell_error,
            request_timeout=request.request_timeout,
            cell_deadline=request.cell_deadline,
            breaker_threshold=request.breaker_threshold,
        )
    except ValueError as error:  # "<field> must ...", respelled as the flag
        knob, _, requirement = str(error).partition(" ")
        raise RunRequestError(f"--{knob.replace('_', '-')} {requirement}") from error
    per_instance = [a for a in wanted if a in PER_INSTANCE_ARTIFACTS]
    if engine_config.chunk_size is not None and workload_name is None and per_instance:
        raise RunRequestError(
            f"{', '.join(per_instance)} read per-instance answers, which "
            "--chunk-size does not keep; run them without --chunk-size"
        )
    try:
        backend_spec = spec_from_cli(
            request.backend,
            opts=list(request.backend_opts),
            fixtures_dir=(
                str(request.fixtures_dir)
                if request.fixtures_dir is not None
                else None
            ),
            record_fixtures=request.record_fixtures,
        )
    except ValueError as error:
        raise RunRequestError(str(error)) from error
    if backend_spec.name not in backend_names():
        raise RunRequestError(
            f"unknown backend {backend_spec.name!r}; "
            f"see 'repro backends list'"
        )

    chaos_plan = None
    if request.chaos is not None:
        from repro.chaos import ChaosPlan, ChaosPlanError, wrap_backend_spec

        try:
            chaos_plan = ChaosPlan.parse(request.chaos)
            backend_spec = wrap_backend_spec(
                backend_spec, chaos_plan, request.seed
            )
        except ChaosPlanError as error:
            raise RunRequestError(str(error)) from error

    # The per-request timeout also folds into the openai_compat HTTP
    # transport (an explicit timeout= backend option wins): the
    # dispatcher's asyncio.wait_for is only the safety net.
    if (
        request.request_timeout is not None
        and backend_spec.name == "openai_compat"
        and backend_spec.option("timeout") is None
    ):
        from repro.llm.backends import BackendSpec

        options = dict(backend_spec.as_dict())
        options["timeout"] = str(request.request_timeout)
        backend_spec = BackendSpec.build(backend_spec.name, options)

    # Build the final spec once, so options no backend can work with
    # (a missing base_url, a non-numeric rate, an unknown inner backend)
    # are refused before the run is journalled or queued rather than
    # when its first cell runs.
    from repro.llm.backends import BackendError, create_backend
    from repro.llm.profiles import MODEL_PROFILES

    try:
        create_backend(backend_spec, MODEL_PROFILES[0]).close()
    except (BackendError, KeyError, ValueError) as error:
        # str(KeyError) wraps its argument in quotes; raise the message.
        raise RunRequestError(
            error.args[0] if error.args else str(error)
        ) from error

    return PreparedRun(
        wanted=wanted,
        workload_name=workload_name,
        engine_config=dataclasses.replace(engine_config, backend=backend_spec),
        runs_dir=request.runs_dir,
        record=request.record,
        chaos=request.chaos,
        chaos_plan=chaos_plan,
        origin=request.origin,
        client_id=request.client_id,
    )


def begin_journal(prepared: PreparedRun, runs_dir: Path):
    """Start the write-ahead journal for a prepared (recorded) run."""
    from repro.lifecycle import RunJournal

    return RunJournal.begin(runs_dir, prepared.config())


def prepare_resume(
    runs_dir: Path,
    run_id: str,
    *,
    artifacts: tuple[str, ...] = (),
    workload: Optional[str] = None,
    strata: Optional[str] = None,
    chaos: Optional[str] = None,
    record: bool = True,
    origin: str = "cli",
    client_id: str = "",
):
    """Load a journal and rebuild its run: ``(journal, PreparedRun)``.

    The manifest is authoritative: resuming under different settings
    would change cell cache keys and silently recompute instead of
    resuming, so grid flags on a resume are rejected up front.
    """
    from repro.engine.core import EngineConfig
    from repro.lifecycle import JournalError, RunJournal

    if artifacts or workload is not None or strata is not None:
        raise RunRequestError(
            "--resume reconstructs the grid from the journal manifest; "
            "drop the artifact/--workload/--strata arguments"
        )
    if chaos is not None:
        raise RunRequestError(
            "--resume does not re-arm --chaos: resume is the recovery "
            "path (flaky-backend chaos persists via the journalled "
            "backend spec)"
        )
    if not record:
        raise RunRequestError("--resume conflicts with --no-record")
    try:
        journal = RunJournal.load(runs_dir, run_id)
    except JournalError as error:
        raise RunRequestError(str(error)) from error
    cfg = journal.config
    states = journal.states()
    rendered = ", ".join(f"{state}={n}" for state, n in sorted(states.items()))
    prepared = PreparedRun(
        wanted=list(cfg.get("artifacts") or ()),
        workload_name=cfg.get("workload"),
        engine_config=EngineConfig.from_dict(cfg),
        runs_dir=Path(runs_dir),
        chaos=cfg.get("chaos"),
        origin=origin,
        client_id=client_id,
        resume_banner=(
            f"[resume] {journal.run_id}: {rendered or 'no journalled cells'}"
        ),
    )
    return journal, prepared


@dataclass
class RunOutcome:
    """What one :func:`execute_prepared` call did."""

    #: ``completed``, ``interrupted`` (drained; resumable), ``failed``.
    status: str
    #: The CLI exit code for this outcome (0 / 4 / 1).
    exit_code: int
    run_id: Optional[str] = None
    record_path: Optional[str] = None
    #: The interrupted/failed diagnostic line ("" on success).
    message: str = ""
    computed_cells: int = 0
    cached_cells: int = 0
    #: Rendered report text per artifact/task, in evaluation order.
    reports: list[dict] = field(default_factory=list)


def _run_errors() -> tuple:
    """Error classes a run can fail with by *cause*, not by *bug*."""
    from repro.engine.streaming import StreamError
    from repro.llm.backends import BackendError

    return (BackendError, StreamError)


def _info_stderr(message: str) -> None:
    print(message, file=sys.stderr)


def execute_prepared(
    prepared: PreparedRun,
    journal,
    *,
    interrupt=None,
    out_dir: Optional[Path] = None,
    emit: Callable[[str], None] = print,
    info: Callable[[str], None] = _info_stderr,
    on_cell_commit: Optional[Callable[[object], None]] = None,
) -> RunOutcome:
    """Evaluate one (possibly resumed) run under journal + interrupt latch.

    ``emit`` receives the report text the CLI prints to stdout, ``info``
    the diagnostics it prints to stderr; ``on_cell_commit`` (called with
    the engine after every committed cell, before any chaos hook) is the
    server's progress-event seam.
    """
    from repro.engine.core import ExperimentEngine
    from repro.experiments.registry import run_experiment
    from repro.lifecycle import (
        EXIT_INTERRUPTED,
        GracefulInterrupt,
        RunInterrupted,
    )
    from repro.reporting.run_record import RunRecordStore, record_from_engine

    config = prepared.engine_config
    engine = ExperimentEngine(config)
    engine.journal = journal
    if prepared.chaos_plan is not None:
        from repro.chaos import apply_chaos, corrupt_cache_segment

        apply_chaos(prepared.chaos_plan, engine)
        if prepared.chaos_plan.corrupts_segment and config.cache_dir is not None:
            corrupted = corrupt_cache_segment(config.cache_dir, seed=config.seed)
            if corrupted is not None:
                info(f"[chaos] corrupted cache segment {corrupted}")
    if interrupt is None:
        interrupt = GracefulInterrupt()
    engine.interrupt = interrupt
    if on_cell_commit is not None:
        # Chain in front of any chaos-installed hook: progress first,
        # then (deterministic) fault delivery.
        chained = engine.on_cell_commit

        def _commit_hook() -> None:
            on_cell_commit(engine)
            if chained is not None:
                chained()

        engine.on_cell_commit = _commit_hook
    wanted = prepared.wanted
    workload_name = prepared.workload_name
    artifact_seconds: dict[str, float] = {}
    reports: list[dict] = []
    run_started = time.perf_counter()
    try:
        with interrupt:
            if workload_name is not None:
                for task in wanted:
                    started = time.perf_counter()
                    text = workload_grid_text(engine, task, workload_name)
                    artifact_seconds[task] = round(
                        time.perf_counter() - started, 3
                    )
                    title = f"Task {task} over workload {workload_name}"
                    emit(f"\n=== {title} ===\n")
                    emit(text)
                    reports.append(
                        {"name": task, "title": title, "text": text}
                    )
                    if out_dir is not None:
                        out_dir.mkdir(parents=True, exist_ok=True)
                        (out_dir / f"{task}.txt").write_text(
                            f"{title}\n\n{text}\n", encoding="utf-8"
                        )
            else:
                for artifact in wanted:
                    started = time.perf_counter()
                    result = run_experiment(artifact, engine)
                    artifact_seconds[artifact] = round(
                        time.perf_counter() - started, 3
                    )
                    emit(f"\n=== {result.title} ===\n")
                    emit(result.text)
                    reports.append(
                        {
                            "name": artifact,
                            "title": result.title,
                            "text": result.text,
                        }
                    )
                    if out_dir is not None:
                        out_dir.mkdir(parents=True, exist_ok=True)
                        (out_dir / f"{artifact}.txt").write_text(
                            f"{result.title}\n\n{result.text}\n",
                            encoding="utf-8",
                        )
    except RunInterrupted as stop:
        hint = (
            f"; resume with 'repro run --resume {journal.run_id}'"
            if journal is not None
            else " (not resumable: run started with --no-record)"
        )
        message = f"interrupted by {stop.signal_name} — drained cleanly{hint}"
        info(message)
        return RunOutcome(
            status="interrupted",
            exit_code=EXIT_INTERRUPTED,
            run_id=journal.run_id if journal is not None else None,
            message=message,
            computed_cells=engine.computed_cells,
            cached_cells=engine.cached_cells,
            reports=reports,
        )
    except _run_errors() as error:
        # A named failure, not a traceback: the journal keeps the cells
        # committed so far, so the run is resumable after the cause
        # (dead endpoint, poisoned chunk ...) is fixed.
        hint = (
            f" — committed cells are journalled; resume with "
            f"'repro run --resume {journal.run_id}'"
            if journal is not None
            else ""
        )
        message = f"run failed: {type(error).__name__}: {error}{hint}"
        info(message)
        return RunOutcome(
            status="failed",
            exit_code=1,
            run_id=journal.run_id if journal is not None else None,
            message=message,
            computed_cells=engine.computed_cells,
            cached_cells=engine.cached_cells,
            reports=reports,
        )
    finally:
        engine.close()
    stream_stats = engine.stream_stats()
    info(
        f"[engine] workers={config.workers} "
        f"backend={config.backend.name} "
        f"cells computed={engine.computed_cells} "
        f"cached={engine.cached_cells}"
        + ("" if config.cache_dir is None else f" (cache: {config.cache_dir})")
    )
    if stream_stats is not None:
        info(
            f"[stream] chunk_size={config.chunk_size} "
            f"chunks={stream_stats['chunks']} "
            f"instances={stream_stats['instances']} "
            f"workers_effective={stream_stats['workers_used']} "
            f"redispatched={stream_stats['redispatched']}"
        )
    run_id = journal.run_id if journal is not None else None
    record_path: Optional[str] = None
    if prepared.record:
        record = record_from_engine(
            engine,
            artifacts=() if workload_name is not None else tuple(wanted),
            artifact_seconds=artifact_seconds,
            total_seconds=time.perf_counter() - run_started,
            notes=(
                f"workload grid over `{workload_name}` "
                f"(tasks: {', '.join(wanted)})"
                if workload_name is not None
                else ""
            ),
        )
        if journal is not None:
            # The record shares the journal's id (and start stamp), so
            # an interrupted-then-resumed run lands on the same record
            # path as an uninterrupted one.
            record = dataclasses.replace(
                record,
                run_id=journal.run_id,
                created_at=journal.created_at or record.created_at,
            )
        record = dataclasses.replace(
            record, origin=prepared.origin, client_id=prepared.client_id
        )
        path = RunRecordStore(prepared.runs_dir).save(record)
        info(f"[run-record] {record.run_id} -> {path}")
        run_id = record.run_id
        record_path = str(path)
    return RunOutcome(
        status="completed",
        exit_code=0,
        run_id=run_id,
        record_path=record_path,
        computed_cells=engine.computed_cells,
        cached_cells=engine.cached_cells,
        reports=reports,
    )


def resolve_chunk_size(
    flag: Optional[int], workload_name: Optional[str]
) -> Optional[int]:
    """Resolve ``--chunk-size`` into an engine chunk size (None = off).

    ``--chunk-size N`` forces streaming with N-instance chunks and
    ``--chunk-size 0`` forces the materialised path.  The default (no
    flag) is automatic: a synthetic ``--workload`` too large to
    materialise comfortably streams at the default chunk size, so
    ``repro run --workload synthetic:default:n=1000000`` runs in bounded
    memory without any extra flags, while the paper workloads (a few
    hundred queries) keep the materialised path they always had.
    """
    from repro.workloads.streaming import (
        DEFAULT_CHUNK_SIZE,
        STREAM_AUTO_THRESHOLD,
        streamable_total,
    )
    from repro.workloads.synthetic import is_synthetic

    if flag is not None:
        return None if flag == 0 else flag
    if workload_name is None or not is_synthetic(workload_name):
        return None
    total = streamable_total(workload_name)
    if total is not None and total > STREAM_AUTO_THRESHOLD:
        return DEFAULT_CHUNK_SIZE
    return None


def workload_grid_text(engine, task: str, workload_name: str) -> str:
    """Evaluate one task over one workload and render its metric table."""
    from repro.evalfw.report import render_table
    from repro.reporting.run_record import cell_record_from_result

    grid = engine.run_task(task, workloads=(workload_name,))
    model_order = {profile.name: i for i, profile in enumerate(engine.models)}
    rows = []
    for (model, _), cell in sorted(
        grid.items(), key=lambda item: model_order.get(item[0][0], 99)
    ):
        record = cell_record_from_result(
            cell,
            model_display=engine.profile(model).display_name,
            cached=False,
            seconds=None,
        )
        row: dict[str, object] = {
            "Model": record.model_display,
            "n": record.instances,
        }
        row.update(record.metrics)
        rows.append(row)
    return render_table(rows, f"{task} metrics on {workload_name}")


def regenerate_report(stored, *, cache_dir, out_dir, workers: int = 1):
    """Rebuild the report bundle for a stored :class:`RunRecord`.

    Re-reads every recorded task's grid through the engine cache, with
    the engine configuration :meth:`RunRecord.replay_config` gives: on
    a warm cache this touches no model at all, and the regenerated
    metrics are guaranteed consistent with the current code.

    Shared by ``repro report`` and the service's report endpoint.
    Returns ``(bundle, record, engine)`` — the engine exposes the
    cached/computed cell counters for diagnostics.
    """
    from repro.engine.core import ExperimentEngine
    from repro.reporting.bundle import write_report_bundle
    from repro.reporting.run_record import record_from_engine

    engine = ExperimentEngine(
        stored.replay_config(cache_dir=cache_dir, workers=workers)
    )
    try:
        grids = {
            task: engine.run_task(task, workloads=tuple(stored.workloads(task)))
            for task in stored.tasks()
        }
        fresh = record_from_engine(engine)
    finally:
        engine.close()
    record = fresh.with_identity(stored)
    bundle = write_report_bundle(record, out_dir, grids)
    return bundle, record, engine
