"""Write-ahead run journal: durable cell states under ``results/runs``.

Layout (every write goes through
:func:`repro.lifecycle.atomic.write_atomic`, as the cache's do)::

    <runs_dir>/<run_id>/journal/
        manifest.json          # run config, written once at start
        cells/<cell_id>.json   # one state file per grid cell

``manifest.json`` is written *before* any evaluation starts, so a run
killed at any point leaves enough on disk for ``repro run --resume`` to
reconstruct the exact grid (tasks, workload, backend, seed, chunking)
and continue.  Each cell file records the cell's position in the
``pending → in_flight → committed/failed/skipped/degraded`` state
machine; committed cells are skipped on resume via the
content-addressed cell cache (the journal records *progress*, the cache
records *bytes* — resume re-derives results through the cache, so a
journal lost entirely merely costs recomputation, never correctness).
"""

from __future__ import annotations

import hashlib
import json
import traceback as traceback_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.lifecycle.atomic import write_atomic
from repro.lifecycle.layout import new_run_id, utc_now

#: Bump when the journal format changes incompatibly.
JOURNAL_VERSION = 1

#: Cell state machine.  ``pending`` and ``in_flight`` are transient;
#: the other four are terminal for one run attempt (a resume moves
#: ``failed``/``in_flight`` cells back through the machine).
CELL_PENDING = "pending"
CELL_IN_FLIGHT = "in_flight"
CELL_COMMITTED = "committed"
CELL_FAILED = "failed"
CELL_SKIPPED = "skipped"
CELL_DEGRADED = "degraded"

CELL_STATES = (
    CELL_PENDING,
    CELL_IN_FLIGHT,
    CELL_COMMITTED,
    CELL_FAILED,
    CELL_SKIPPED,
    CELL_DEGRADED,
)

#: Keep the last N characters of a traceback in failure records.
_TRACEBACK_LIMIT = 4000


class JournalError(Exception):
    """A journal is missing, ambiguous, or unreadable."""


@dataclass(frozen=True)
class CellFailure:
    """Structured record of why one grid cell could not be evaluated.

    Carried by degraded/skipped cells into the journal and the final
    :class:`~repro.reporting.run_record.RunRecord`, so a grid that
    completed under ``--on-cell-error degrade`` shows *which* cells are
    gaps and *why* — never silently missing rows.
    """

    model: str
    task: str
    workload: str
    error_class: str
    message: str
    attempts: int = 1
    traceback: str = ""

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.model, self.task, self.workload)

    @classmethod
    def from_exception(
        cls,
        model: str,
        task: str,
        workload: str,
        exc: BaseException,
        attempts: int = 1,
    ) -> "CellFailure":
        trace = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
        return cls(
            model=model,
            task=task,
            workload=workload,
            error_class=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            traceback=trace[-_TRACEBACK_LIMIT:],
        )

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "task": self.task,
            "workload": self.workload,
            "error_class": self.error_class,
            "message": self.message,
            "attempts": self.attempts,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellFailure":
        return cls(
            model=data["model"],
            task=data["task"],
            workload=data["workload"],
            error_class=data.get("error_class", "Exception"),
            message=data.get("message", ""),
            attempts=int(data.get("attempts", 1)),
            traceback=data.get("traceback", ""),
        )


@dataclass(frozen=True)
class CellEntry:
    """One cell's journalled state."""

    cell_id: str
    descriptor: dict
    state: str
    updated_at: str = ""
    failure: Optional[CellFailure] = None

    @property
    def key(self) -> tuple[str, str, str]:
        d = self.descriptor
        return (d.get("model", ""), d.get("task", ""), d.get("workload", ""))


def cell_descriptor(model: str, task: str, workload: str) -> dict:
    """Canonical journal descriptor of one grid cell."""
    return {"model": model, "task": task, "workload": workload}


def cell_id_for(descriptor: dict) -> str:
    """Filesystem-safe stable id of a cell descriptor."""
    payload = json.dumps(descriptor, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunJournal:
    """One run's write-ahead journal directory."""

    root: Path
    run_id: str
    manifest: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def begin(
        cls,
        runs_dir: Path,
        config: dict,
        created_at: Optional[str] = None,
    ) -> "RunJournal":
        """Start a new journal: allocate a run id, persist the manifest.

        ``config`` must contain everything needed to re-run the same
        grid (it becomes ``manifest["config"]``, which ``--resume``
        feeds back through the CLI's run construction).
        """
        created = created_at or utc_now()
        content = json.dumps(config, sort_keys=True)
        run_id = new_run_id(created, content)
        root = Path(runs_dir) / run_id / "journal"
        (root / "cells").mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": JOURNAL_VERSION,
            "run_id": run_id,
            "created_at": created,
            "config": config,
        }
        journal = cls(root=root, run_id=run_id, manifest=manifest)
        write_atomic(
            root / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        return journal

    @classmethod
    def load(cls, runs_dir: Path, run_id: str) -> "RunJournal":
        """Open an existing journal by exact id or unique id prefix."""
        runs_dir = Path(runs_dir)
        root = runs_dir / run_id / "journal"
        if not (root / "manifest.json").is_file():
            matches = [
                candidate.parent.parent.name
                for candidate in sorted(
                    runs_dir.glob("*/journal/manifest.json")
                )
                if candidate.parent.parent.name.startswith(run_id)
            ]
            if len(matches) > 1:
                raise JournalError(
                    f"ambiguous run id {run_id!r}: "
                    f"matches {', '.join(matches)}"
                )
            if not matches:
                raise JournalError(
                    f"no run journal for {run_id!r} under {runs_dir}"
                )
            run_id = matches[0]
            root = runs_dir / run_id / "journal"
        try:
            manifest = json.loads(
                (root / "manifest.json").read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as exc:
            raise JournalError(
                f"unreadable journal manifest under {root}: {exc}"
            ) from exc
        version = manifest.get("version", JOURNAL_VERSION)
        if version != JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal version {version!r} "
                f"(this build reads version {JOURNAL_VERSION})"
            )
        (root / "cells").mkdir(parents=True, exist_ok=True)
        return cls(root=root, run_id=run_id, manifest=manifest)

    # -- accessors ---------------------------------------------------------

    @property
    def config(self) -> dict:
        return self.manifest.get("config", {})

    @property
    def created_at(self) -> str:
        return self.manifest.get("created_at", "")

    def _cell_path(self, cell_id: str) -> Path:
        return self.root / "cells" / f"{cell_id}.json"

    # -- state transitions -------------------------------------------------

    def record(
        self,
        descriptor: dict,
        state: str,
        failure: Optional[CellFailure] = None,
    ) -> str:
        """Journal one cell's state transition; returns its cell id."""
        if state not in CELL_STATES:
            raise ValueError(
                f"unknown cell state {state!r}; expected one of {CELL_STATES}"
            )
        cell_id = cell_id_for(descriptor)
        payload = {
            "cell": descriptor,
            "state": state,
            "updated_at": utc_now(),
        }
        if failure is not None:
            payload["failure"] = failure.as_dict()
        write_atomic(
            self._cell_path(cell_id),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        return cell_id

    # -- reading back ------------------------------------------------------

    def cells(self) -> list[CellEntry]:
        """Every journalled cell, sorted by cell id (stable order)."""
        entries = []
        cells_dir = self.root / "cells"
        if not cells_dir.is_dir():
            return []
        for path in sorted(cells_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # A torn cell file cannot happen via the atomic writer,
                # but a corrupted disk is survivable: treat the cell as
                # unjournalled (it will simply be re-evaluated).
                continue
            failure = None
            if payload.get("failure"):
                failure = CellFailure.from_dict(payload["failure"])
            entries.append(
                CellEntry(
                    cell_id=path.stem,
                    descriptor=payload.get("cell", {}),
                    state=payload.get("state", CELL_PENDING),
                    updated_at=payload.get("updated_at", ""),
                    failure=failure,
                )
            )
        return entries

    def states(self) -> dict[str, int]:
        """Count of cells per state (observability / `runs show`)."""
        counts: dict[str, int] = {}
        for entry in self.cells():
            counts[entry.state] = counts.get(entry.state, 0) + 1
        return counts

    def iter_failures(self) -> Iterator[CellFailure]:
        for entry in self.cells():
            if entry.failure is not None:
                yield entry.failure
