"""Experiment runner: models x workloads x tasks.

``ExperimentRunner`` is the façade every artifact goes through.  It
delegates dataset construction, chunked (optionally multi-process)
evaluation and result caching to :class:`repro.engine.ExperimentEngine`,
runs every model over every instance through the real
prompt/response/extraction path, and exposes the evaluated grids the
paper's tables are built from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.engine.core import EngineConfig, ExperimentEngine
from repro.evalfw.accumulate import CellResult
from repro.llm.backends import DEFAULT_MAX_CONCURRENCY, BackendSpec, SIMULATED_SPEC
from repro.llm.profiles import MODEL_PROFILES, ModelProfile
from repro.prompts.templates import PromptTemplate
from repro.tasks.base import TaskDataset
from repro.workloads.base import Workload


class ExperimentRunner:
    """Evaluates models over cached workloads/datasets via the engine.

    ``workers=1`` (the default) evaluates in-process; ``workers>1`` runs
    instance chunks on a work queue of processes with byte-identical
    results.
    Passing ``cache_dir`` persists evaluated cells on disk so repeated
    runs with unchanged inputs skip recomputation entirely.
    """

    def __init__(
        self,
        seed: int = 0,
        models: tuple[ModelProfile, ...] = MODEL_PROFILES,
        max_instances: Optional[int] = None,
        workers: int = 1,
        cache_dir: Optional[Path] = None,
        backend: BackendSpec = SIMULATED_SPEC,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        rps: Optional[float] = None,
        chunk_size: Optional[int] = None,
        on_cell_error: str = "fail",
        request_timeout: Optional[float] = None,
        cell_deadline: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
    ) -> None:
        config = EngineConfig(
            seed=seed,
            workers=workers,
            cache_dir=cache_dir,
            max_instances=max_instances,
            chunk_size=chunk_size,
            backend=backend,
            max_concurrency=max_concurrency,
            rps=rps,
            on_cell_error=on_cell_error,
            request_timeout=request_timeout,
            cell_deadline=cell_deadline,
            breaker_threshold=breaker_threshold,
        )
        self.engine = ExperimentEngine(config, models=models)

    # -- caching ---------------------------------------------------------------

    def workload(self, name: str) -> Workload:
        return self.engine.workload(name)

    def dataset(self, task: str, workload_name: str) -> TaskDataset:
        return self.engine.dataset(task, workload_name)

    def close(self) -> None:
        """Release the engine's worker pool, if one was started."""
        self.engine.close()

    # -- evaluation --------------------------------------------------------------

    def run_cell(
        self,
        model_name: str,
        task: str,
        workload_name: str,
        prompt: Optional[PromptTemplate] = None,
    ) -> CellResult:
        """Evaluate one model on one (task, workload) dataset."""
        return self.engine.run_cell(model_name, task, workload_name, prompt)

    def run_task(
        self, task: str, workloads: Optional[tuple[str, ...]] = None
    ) -> dict[tuple[str, str], CellResult]:
        """Evaluate all models on all of a task's workloads."""
        return self.engine.run_task(task, workloads)

    # -- reporting ---------------------------------------------------------------

    def run_record(
        self,
        artifacts: tuple[str, ...] = (),
        artifact_seconds: Optional[dict[str, float]] = None,
        total_seconds: float = 0.0,
        notes: str = "",
    ):
        """Snapshot everything this runner has evaluated as a RunRecord.

        The record captures the engine configuration, one metrics entry
        per distinct (model, task, workload) cell served so far, and the
        cache hit/miss statistics; persist it with
        :class:`repro.reporting.RunRecordStore` and render it with
        ``repro report``.  (Imported lazily: reporting sits downstream
        of the evaluation framework.)
        """
        from repro.reporting.run_record import record_from_engine

        return record_from_engine(
            self.engine,
            artifacts=artifacts,
            artifact_seconds=artifact_seconds,
            total_seconds=total_seconds,
            notes=notes,
        )


def metrics_table(
    grid: dict[tuple[str, str], CellResult],
    kind: str = "binary",
) -> list[dict[str, object]]:
    """Flatten a grid into printable rows (model x workload metrics).

    ``kind`` selects ``binary`` (P/R/F1), ``typed`` (weighted P/R/F1) or
    ``location`` (MAE / hit rate).
    """
    rows: list[dict[str, object]] = []
    by_model: dict[str, dict[str, CellResult]] = {}
    for (model, workload), cell in grid.items():
        by_model.setdefault(model, {})[workload] = cell
    for profile in MODEL_PROFILES:
        if profile.name not in by_model:
            continue
        row: dict[str, object] = {"Model": profile.display_name}
        for workload, cell in by_model[profile.name].items():
            if kind == "binary":
                metrics = cell.binary
                row[f"{workload}.Prec"] = metrics.precision
                row[f"{workload}.Rec"] = metrics.recall
                row[f"{workload}.F1"] = metrics.f1
            elif kind == "typed":
                metrics = cell.typed
                row[f"{workload}.Prec"] = metrics.precision
                row[f"{workload}.Rec"] = metrics.recall
                row[f"{workload}.F1"] = metrics.f1
            elif kind == "location":
                metrics = cell.location
                row[f"{workload}.MAE"] = metrics.mae
                row[f"{workload}.HR"] = metrics.hit_rate
            else:
                raise ValueError(f"unknown metrics kind {kind!r}")
        rows.append(row)
    return rows
