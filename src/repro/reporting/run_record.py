"""Run records: durable, comparable summaries of one grid evaluation.

A :class:`RunRecord` captures everything needed to reason about a run
after the fact without re-evaluating it: the engine configuration
fingerprint (seed, workers, ``max_instances``, source fingerprint), one
:class:`CellRecord` per evaluated (model, task, workload) cell with its
flattened metrics and confusion counts, per-artifact wall-clock timing,
and the engine's cache hit/miss statistics.

Records serialise to plain JSON and live under ``results/runs/`` (one
``<run_id>.json`` each), managed by :class:`RunRecordStore`.  They are
the input to the Markdown/HTML/JSON report bundle
(:mod:`repro.reporting.bundle`) and to cross-run comparison
(:mod:`repro.reporting.compare`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.lifecycle import CellFailure
from repro.lifecycle.atomic import write_atomic
from repro.lifecycle.layout import DEFAULT_RUNS_DIR, new_run_id, utc_now

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.engine.core import EngineConfig, ExperimentEngine
    from repro.evalfw.accumulate import CellResult

#: Bump when the serialised record format changes incompatibly.
RECORD_VERSION = 1

#: Metrics where a *lower* value is better (everything else: higher).
LOWER_IS_BETTER: frozenset[str] = frozenset(
    {"location.mae", "explanation.flawed_rate"}
)


@dataclass(frozen=True)
class CellRecord:
    """Metrics snapshot of one evaluated (model, task, workload) cell."""

    model: str
    model_display: str
    task: str
    workload: str
    instances: int
    cached: bool
    seconds: Optional[float]
    #: Flat metric map: ``binary.precision``, ``typed.f1``, ``location.mae`` ...
    metrics: dict[str, float] = field(default_factory=dict)
    #: Binary confusion counts: ``{"tp": .., "tn": .., "fp": .., "fn": ..}``.
    confusion: dict[str, int] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.model, self.task, self.workload)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CellRecord":
        return cls(
            model=data["model"],
            model_display=data.get("model_display", data["model"]),
            task=data["task"],
            workload=data["workload"],
            instances=int(data["instances"]),
            cached=bool(data["cached"]),
            seconds=data.get("seconds"),
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            confusion={k: int(v) for k, v in data.get("confusion", {}).items()},
        )


def cell_record_from_result(
    result: "CellResult",
    *,
    model_display: str,
    cached: bool,
    seconds: Optional[float],
) -> CellRecord:
    """Flatten one engine :class:`CellResult` into a :class:`CellRecord`.

    Each metric family is gated on the dataset actually defining it:
    ``binary.*`` needs boolean labels, ``typed.*`` type labels,
    ``location.*`` positions, and ``explanation.*`` (overlap F1 and
    flawed-response rate) gold explanation texts — so a record never
    reports a vacuous zero for a metric the task does not define.  The
    gates come from the cell's accumulated counts, so a streamed cell's
    record needs no dataset in memory.
    """
    metrics: dict[str, float] = {}
    confusion: dict[str, int] = {}
    if result.has_labels:
        binary = result.binary
        metrics["binary.precision"] = binary.precision
        metrics["binary.recall"] = binary.recall
        metrics["binary.f1"] = binary.f1
        metrics["binary.accuracy"] = binary.accuracy
        confusion = {
            "tp": binary.tp,
            "tn": binary.tn,
            "fp": binary.fp,
            "fn": binary.fn,
        }
    if result.types_present():
        typed = result.typed
        metrics["typed.precision"] = typed.precision
        metrics["typed.recall"] = typed.recall
        metrics["typed.f1"] = typed.f1
    if result.has_positions:
        location = result.location
        metrics["location.mae"] = location.mae
        metrics["location.hit_rate"] = location.hit_rate
    if result.has_gold and result.instance_count:
        metrics["explanation.overlap_f1"] = result.explanation_overlap_f1
        metrics["explanation.flawed_rate"] = result.flawed_rate
    return CellRecord(
        model=result.model,
        model_display=model_display,
        task=result.task,
        workload=result.workload,
        instances=result.instance_count,
        cached=cached,
        seconds=seconds,
        metrics={k: round(v, 6) for k, v in metrics.items()},
        confusion=confusion,
    )


@dataclass(frozen=True)
class RunRecord:
    """One persisted grid evaluation: config, cells, timing, cache stats."""

    run_id: str
    created_at: str  # ISO-8601 UTC
    seed: int
    workers: int
    max_instances: Optional[int]
    source_fingerprint: str
    cache_dir: Optional[str]
    #: Backend provenance: which model backend produced the answers.
    backend: str = "simulated"
    backend_fingerprint: str = ""
    backend_options: dict[str, str] = field(default_factory=dict)
    artifacts: tuple[str, ...] = ()
    artifact_seconds: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    computed_cells: int = 0
    cached_cells: int = 0
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: Parent-process analysis-memo counters (raw lex/parse runs plus
    #: hit/miss per memo table) — the provenance for how much parse work
    #: the run actually did versus how much the memo layer absorbed.
    #: Counted from the run's start, so earlier runs in the same process
    #: are excluded; jobs running at the same time in one process
    #: (``repro serve --max-concurrent-jobs``) still count each other's
    #: work.  Worker-process caches are per-process and not aggregated.
    analysis_cache_stats: dict[str, int] = field(default_factory=dict)
    #: Streaming provenance: the chunk size the run streamed with (None
    #: = materialised data path) and the work-queue counters (chunks,
    #: instances, workers_used, redispatched) when streaming was active.
    chunk_size: Optional[int] = None
    stream_stats: dict[str, int] = field(default_factory=dict)
    #: Rewrite provenance: the transform-catalog fingerprint rewrite
    #: cells were evaluated against ("" when the run had none) — the
    #: same value folded into their cache keys.
    rewrite_catalog: str = ""
    cells: tuple[CellRecord, ...] = ()
    #: Cell-error policy the run executed under, and the structured
    #: failures of cells it absorbed (skip/degrade) — the report layer
    #: renders these as explicit gaps, never silently missing rows.
    on_cell_error: str = "fail"
    failures: tuple[CellFailure, ...] = ()
    notes: str = ""
    #: Submission provenance: ``cli`` for `repro run`, ``service`` for
    #: grids submitted over the evaluation API (`repro serve`) — plus
    #: the submitting client's id, so `runs list`/`runs show` tell one
    #: provenance story across both entry points.
    origin: str = "cli"
    client_id: str = ""

    # -- accessors ---------------------------------------------------------

    def tasks(self) -> list[str]:
        """Distinct evaluated tasks, in first-seen order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.task not in seen:
                seen.append(cell.task)
        return seen

    def workloads(self, task: str) -> list[str]:
        """Distinct workloads a task was evaluated on, first-seen order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.task == task and cell.workload not in seen:
                seen.append(cell.workload)
        return seen

    def cell(self, model: str, task: str, workload: str) -> Optional[CellRecord]:
        for candidate in self.cells:
            if candidate.key == (model, task, workload):
                return candidate
        return None

    def replay_config(
        self, *, cache_dir: Optional[Path], workers: int = 1
    ) -> "EngineConfig":
        """The engine configuration that re-reads this run's cells.

        The run's seed, instance cap and backend, so every cell key
        matches what it cached, minus a recording run's ``mode`` option:
        a report replays and never re-records (record mode bypasses the
        cell cache).
        """
        from repro.engine.core import EngineConfig
        from repro.llm.backends import BackendSpec

        options = dict(self.backend_options)
        options.pop("mode", None)
        return EngineConfig(
            seed=self.seed,
            workers=workers,
            cache_dir=cache_dir,
            max_instances=self.max_instances,
            backend=BackendSpec.build(self.backend, options),
        )

    def with_identity(self, other: "RunRecord") -> "RunRecord":
        """This record's metrics under ``other``'s identity and config.

        Used by ``repro report``: metrics are regenerated through the
        cache (so they always reflect the current code, and the
        ``source_fingerprint`` and cache counters describe *that*
        regeneration pass), while the bundle keeps the original run's
        id, creation time, artifact list, wall-clock timings and engine
        configuration (workers, cache dir).
        """
        return replace(
            self,
            run_id=other.run_id,
            created_at=other.created_at,
            workers=other.workers,
            cache_dir=other.cache_dir,
            backend=other.backend,
            backend_fingerprint=other.backend_fingerprint,
            backend_options=dict(other.backend_options),
            artifacts=other.artifacts,
            artifact_seconds=dict(other.artifact_seconds),
            total_seconds=other.total_seconds,
            chunk_size=other.chunk_size,
            stream_stats=dict(other.stream_stats),
            on_cell_error=other.on_cell_error,
            failures=other.failures,
            notes=other.notes,
            origin=other.origin,
            client_id=other.client_id,
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["version"] = RECORD_VERSION
        data["artifacts"] = list(self.artifacts)
        data["cells"] = [cell.as_dict() for cell in self.cells]
        data["failures"] = [failure.as_dict() for failure in self.failures]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        version = data.get("version", RECORD_VERSION)
        if version != RECORD_VERSION:
            raise ValueError(
                f"unsupported run-record version {version!r} "
                f"(this build reads version {RECORD_VERSION})"
            )
        return cls(
            run_id=data["run_id"],
            created_at=data["created_at"],
            seed=int(data["seed"]),
            workers=int(data.get("workers", 1)),
            max_instances=data.get("max_instances"),
            source_fingerprint=data.get("source_fingerprint", ""),
            cache_dir=data.get("cache_dir"),
            backend=data.get("backend", "simulated"),
            backend_fingerprint=data.get("backend_fingerprint", ""),
            backend_options={
                k: str(v) for k, v in data.get("backend_options", {}).items()
            },
            artifacts=tuple(data.get("artifacts", ())),
            artifact_seconds={
                k: float(v) for k, v in data.get("artifact_seconds", {}).items()
            },
            total_seconds=float(data.get("total_seconds", 0.0)),
            computed_cells=int(data.get("computed_cells", 0)),
            cached_cells=int(data.get("cached_cells", 0)),
            cache_stats={
                k: int(v) for k, v in data.get("cache_stats", {}).items()
            },
            analysis_cache_stats={
                k: int(v)
                for k, v in data.get("analysis_cache_stats", {}).items()
            },
            chunk_size=data.get("chunk_size"),
            stream_stats={
                k: int(v) for k, v in data.get("stream_stats", {}).items()
            },
            rewrite_catalog=data.get("rewrite_catalog", ""),
            cells=tuple(
                CellRecord.from_dict(cell) for cell in data.get("cells", ())
            ),
            on_cell_error=data.get("on_cell_error", "fail"),
            failures=tuple(
                CellFailure.from_dict(failure)
                for failure in data.get("failures", ())
            ),
            notes=data.get("notes", ""),
            origin=data.get("origin", "cli"),
            client_id=data.get("client_id", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


def record_from_engine(
    engine: "ExperimentEngine",
    *,
    artifacts: tuple[str, ...] = (),
    artifact_seconds: Optional[dict[str, float]] = None,
    total_seconds: float = 0.0,
    created_at: Optional[str] = None,
    notes: str = "",
) -> RunRecord:
    """Snapshot an engine's evaluated cells into a :class:`RunRecord`.

    The engine accumulates every distinct cell it has served (cached or
    computed) in ``engine.results`` and per-cell provenance in
    ``engine.cell_log``; this turns that state into a durable record.
    """
    from repro.engine.cache import source_fingerprint
    from repro.sql.analysis_cache import counters as analysis_counters

    # engine.results holds the *last* serve of each cell, so its
    # provenance is the first log entry made under that serve's prompt:
    # repeat serves of one experiment keep the original computed/cached
    # flag, while a re-ask under a different prompt (a genuinely new
    # experiment for the same cell) resets it.
    last_prompt = {
        (e.model, e.task, e.workload): e.prompt for e in engine.cell_log
    }
    provenance: dict[tuple[str, str, str], tuple[bool, Optional[float]]] = {}
    for entry in engine.cell_log:
        key = (entry.model, entry.task, entry.workload)
        if entry.prompt == last_prompt[key]:
            provenance.setdefault(key, (entry.cached, entry.seconds))
    # Distinct-cell counts come from the provenance, not from the
    # engine's serve counters — those count repeat serves too (two
    # artifacts sharing a grid re-serve its cells from the cache), which
    # would make a cold run look warm.
    cached_count = sum(1 for cached, _ in provenance.values() if cached)
    computed_count = len(provenance) - cached_count
    from repro.tasks.base import PRIMARY_TASKS

    # Cells come out in the paper's presentation order: tasks as the
    # paper introduces them, then workload, then the paper's model order.
    task_order = {task: i for i, task in enumerate(PRIMARY_TASKS)}
    model_order = {profile.name: i for i, profile in enumerate(engine.models)}
    cells = []
    for key in sorted(
        engine.results,
        key=lambda k: (
            task_order.get(k[1], len(task_order)),
            k[1],
            k[2],
            model_order.get(k[0], len(model_order)),
            k[0],
        ),
    ):
        result = engine.results[key]
        cached, seconds = provenance.get(key, (True, None))
        cells.append(
            cell_record_from_result(
                result,
                model_display=engine.profile(result.model).display_name,
                cached=cached,
                seconds=seconds,
            )
        )
    created = created_at or utc_now()
    config = engine.config
    cache_stats = (
        engine.cache.stats.as_dict() if engine.cache is not None else {}
    )
    from repro.tasks.base import REWRITE_TASKS

    rewrite_catalog = ""
    if any(cell.task in REWRITE_TASKS for cell in cells):
        from repro.rewrite.catalog import catalog_fingerprint

        rewrite_catalog = catalog_fingerprint()
    record = RunRecord(
        run_id="",
        created_at=created,
        seed=config.seed,
        workers=config.workers,
        max_instances=config.max_instances,
        source_fingerprint=source_fingerprint(),
        cache_dir=str(config.cache_dir) if config.cache_dir else None,
        backend=config.backend.name,
        backend_fingerprint=config.backend.fingerprint(),
        backend_options=config.backend.as_dict(),
        artifacts=tuple(artifacts),
        artifact_seconds=dict(artifact_seconds or {}),
        total_seconds=round(total_seconds, 3),
        computed_cells=computed_count,
        cached_cells=cached_count,
        cache_stats=cache_stats,
        analysis_cache_stats=analysis_counters()
        .since(engine.analysis_baseline)
        .as_dict(),
        chunk_size=config.chunk_size,
        stream_stats=engine.stream_stats() or {},
        rewrite_catalog=rewrite_catalog,
        cells=tuple(cells),
        on_cell_error=config.on_cell_error,
        failures=tuple(engine.failures),
        notes=notes,
    )
    content = json.dumps(record.to_dict(), sort_keys=True)
    return replace(record, run_id=new_run_id(created, content))


@dataclass
class RunRecordStore:
    """Directory of run records (``<runs_dir>/<run_id>.json``)."""

    root: Path = DEFAULT_RUNS_DIR

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def path_for(self, run_id: str) -> Path:
        return self.root / f"{run_id}.json"

    def save(self, record: RunRecord) -> Path:
        return write_atomic(self.path_for(record.run_id), record.to_json())

    def run_ids(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    def load(self, run_id: str) -> RunRecord:
        """Load by exact id, unique id prefix, or literal file path."""
        direct = Path(run_id)
        if direct.is_file():
            return RunRecord.from_json(direct.read_text(encoding="utf-8"))
        path = self.path_for(run_id)
        if path.is_file():
            return RunRecord.from_json(path.read_text(encoding="utf-8"))
        matches = [rid for rid in self.run_ids() if rid.startswith(run_id)]
        if len(matches) == 1:
            return RunRecord.from_json(
                self.path_for(matches[0]).read_text(encoding="utf-8")
            )
        if matches:
            raise KeyError(
                f"ambiguous run id {run_id!r}: matches {', '.join(matches)}"
            )
        raise KeyError(f"no run record {run_id!r} under {self.root}")

    def records(self) -> list[RunRecord]:
        """All records, oldest first (run ids sort chronologically)."""
        return [self.load(run_id) for run_id in self.run_ids()]

    def latest(self) -> Optional[RunRecord]:
        ids = self.run_ids()
        return self.load(ids[-1]) if ids else None
