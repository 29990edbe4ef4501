"""Evaluation-as-a-service: ``repro serve`` and its building blocks.

Three pieces, each usable on its own:

- :mod:`repro.server.jobs` — the durable, content-addressed job queue
  (one atomic JSON file per job under ``results/jobs/``).
- :mod:`repro.server.app` — the stdlib-asyncio HTTP server that fronts
  the queue and executes jobs through :mod:`repro.execution`, the same
  code path as ``repro run``.
- :mod:`repro.server.client` — a tiny urllib client for scripts, tests
  and CI.
"""

from repro.server.app import EvalServer, ServerConfig
from repro.server.client import ServiceClient, ServiceError
from repro.server.jobs import (
    ATTACHABLE_STATES,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    Job,
    JobError,
    JobStateError,
    JobStore,
)

__all__ = [
    "EvalServer",
    "ServerConfig",
    "ServiceClient",
    "ServiceError",
    "ATTACHABLE_STATES",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_STATES",
    "Job",
    "JobError",
    "JobStateError",
    "JobStore",
]
