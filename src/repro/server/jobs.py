"""Durable job queue for the evaluation service.

One JSON file per job under ``<jobs_dir>/`` (``results/jobs/`` by
default), written through :func:`repro.lifecycle.atomic.write_atomic`
like the run journal, so a server killed at any instant
leaves every job either in its previous state or its next one, never
torn.  On restart, :meth:`JobStore.recover` moves ``running`` jobs back
to ``queued`` (keeping their run id, so execution resumes through the
run journal instead of recomputing).

State machine::

    queued ──▶ running ──▶ done
       │          │  ╲──▶ failed
       │          │  ╲──▶ queued      (graceful drain / crash recovery)
       ╰──────────┴─────▶ cancelled

Dedup is content-addressed: a job's ``fingerprint`` is the SHA-256 of
its resolved grid configuration (:meth:`repro.execution.PreparedRun.fingerprint`),
so re-submitting an identical grid attaches to the existing active or
completed job instead of evaluating twice.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.lifecycle.atomic import write_atomic
from repro.lifecycle.layout import stamped_id, utc_now

#: Bump when the job file format changes incompatibly.
JOBS_VERSION = 1

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)

#: States in which a fingerprint-identical submission attaches instead
#: of creating a new job (a failed or cancelled job may be retried by
#: submitting again — that creates a fresh job).
ATTACHABLE_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE)

#: Legal transitions.  ``running -> queued`` is the requeue edge used
#: by graceful drain and crash recovery; the three terminal states
#: have no outgoing edges.
_TRANSITIONS: dict[str, frozenset] = {
    JOB_QUEUED: frozenset({JOB_RUNNING, JOB_CANCELLED}),
    JOB_RUNNING: frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED, JOB_QUEUED}),
    JOB_DONE: frozenset(),
    JOB_FAILED: frozenset(),
    JOB_CANCELLED: frozenset(),
}


class JobError(Exception):
    """A job is missing, unreadable, or the store is misused."""


class JobStateError(JobError):
    """An illegal state-machine transition was attempted."""


@dataclass(frozen=True)
class Job:
    """One submitted grid evaluation and its queue state."""

    job_id: str
    fingerprint: str
    state: str
    request: dict = field(default_factory=dict)
    client_id: str = ""
    created_at: str = ""
    updated_at: str = ""
    #: How many times this grid was submitted (1 + dedup attaches).
    submissions: int = 1
    #: How many times execution started (resumes after drain/crash).
    attempts: int = 0
    #: The journalled run id, recorded before evaluation starts so a
    #: requeued job resumes the same run instead of starting another.
    run_id: str = ""
    #: The persisted RunRecord path once the job is done.
    record_path: str = ""
    #: The failure/cancellation message for terminal non-done states.
    error: str = ""

    @property
    def terminal(self) -> bool:
        return not _TRANSITIONS[self.state]

    def as_dict(self) -> dict:
        return {
            "version": JOBS_VERSION,
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "request": self.request,
            "client_id": self.client_id,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "submissions": self.submissions,
            "attempts": self.attempts,
            "run_id": self.run_id,
            "record_path": self.record_path,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        version = data.get("version", JOBS_VERSION)
        if version != JOBS_VERSION:
            raise JobError(
                f"unsupported job version {version!r} "
                f"(this build reads version {JOBS_VERSION})"
            )
        state = data.get("state", JOB_QUEUED)
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        return cls(
            job_id=data["job_id"],
            fingerprint=data.get("fingerprint", ""),
            state=state,
            request=dict(data.get("request", {})),
            client_id=data.get("client_id", ""),
            created_at=data.get("created_at", ""),
            updated_at=data.get("updated_at", ""),
            submissions=int(data.get("submissions", 1)),
            attempts=int(data.get("attempts", 0)),
            run_id=data.get("run_id", ""),
            record_path=data.get("record_path", ""),
            error=data.get("error", ""),
        )


class JobStore:
    """Directory of job files with atomic writes and enforced edges.

    Thread-safe within one process (the server mutates jobs from its
    HTTP loop and its executor threads); cross-process safety comes
    from one server owning one jobs directory at a time, with restart
    recovery handling anything a dead owner left ``running``.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # -- paths and IO ------------------------------------------------------

    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _write(self, job: Job) -> Job:
        write_atomic(
            self._path(job.job_id),
            json.dumps(job.as_dict(), indent=2, sort_keys=True) + "\n",
        )
        return job

    def get(self, job_id: str) -> Job:
        path = self._path(job_id)
        if not path.is_file():
            raise JobError(f"no job {job_id!r} under {self.root}")
        try:
            return Job.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise JobError(f"unreadable job file {path}: {exc}") from exc

    def jobs(self) -> list[Job]:
        """Every readable job, oldest first (stable by id on ties)."""
        entries = []
        for path in sorted(self.root.glob("*.json")):
            try:
                entries.append(
                    Job.from_dict(json.loads(path.read_text(encoding="utf-8")))
                )
            except (OSError, json.JSONDecodeError, JobError, KeyError):
                # A torn file cannot happen via the atomic writer; skip
                # anything else (foreign files, disk corruption) rather
                # than wedging the whole queue.
                continue
        return sorted(entries, key=lambda job: (job.created_at, job.job_id))

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- submission / dedup ------------------------------------------------

    def submit(
        self, fingerprint: str, request: dict, client_id: str = ""
    ) -> tuple[Job, bool]:
        """Enqueue a grid; returns ``(job, created)``.

        If a job with the same fingerprint is queued, running, or done,
        the submission *attaches* to it (``created=False``) — the
        content-addressed dedup that makes N identical concurrent
        submissions cost exactly one evaluation.  Failed or cancelled
        jobs do not absorb new submissions: resubmitting after a
        failure is the retry path and gets a fresh job.
        """
        with self._lock:
            for existing in self.jobs():
                if (
                    existing.fingerprint == fingerprint
                    and existing.state in ATTACHABLE_STATES
                ):
                    attached = replace(
                        existing,
                        submissions=existing.submissions + 1,
                        updated_at=utc_now(),
                    )
                    return self._write(attached), False
            created_at = utc_now()
            base = stamped_id(created_at, fingerprint)
            job_id = base
            suffix = 1
            while self._path(job_id).exists():
                suffix += 1
                job_id = f"{base}-{suffix}"
            job = Job(
                job_id=job_id,
                fingerprint=fingerprint,
                state=JOB_QUEUED,
                request=dict(request),
                client_id=client_id,
                created_at=created_at,
                updated_at=created_at,
            )
            return self._write(job), True

    # -- state transitions -------------------------------------------------

    def transition(self, job_id: str, state: str, **fields) -> Job:
        """Move a job along a legal edge, persisting extra ``fields``."""
        if state not in JOB_STATES:
            raise JobStateError(
                f"unknown job state {state!r}; expected one of {JOB_STATES}"
            )
        with self._lock:
            job = self.get(job_id)
            if state not in _TRANSITIONS[job.state]:
                raise JobStateError(
                    f"illegal transition {job.state!r} -> {state!r} "
                    f"for job {job_id}"
                )
            updated = replace(
                job, state=state, updated_at=utc_now(), **fields
            )
            return self._write(updated)

    def update(self, job_id: str, **fields) -> Job:
        """Persist metadata fields without changing state."""
        with self._lock:
            job = self.get(job_id)
            updated = replace(job, updated_at=utc_now(), **fields)
            return self._write(updated)

    def claim_next(self) -> Optional[Job]:
        """Atomically move the oldest queued job to running, if any."""
        with self._lock:
            for job in self.jobs():
                if job.state == JOB_QUEUED:
                    return self.transition(
                        job.job_id, JOB_RUNNING, attempts=job.attempts + 1
                    )
        return None

    def recover(self) -> list[Job]:
        """Requeue jobs a dead (or draining) owner left ``running``.

        Their run ids are kept, so re-execution goes through
        ``--resume`` semantics: committed cells replay from the journal
        + cache and the finished RunRecord is byte-identical to an
        uninterrupted run.
        """
        with self._lock:
            requeued = []
            for job in self.jobs():
                if job.state == JOB_RUNNING:
                    requeued.append(self.transition(job.job_id, JOB_QUEUED))
            return requeued
