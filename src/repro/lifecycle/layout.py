"""Where a run's files live by default, and how runs and jobs are named.

Journals, run records and service jobs share one UTC stamp format and
one sortable id scheme, so a journalled run and its record share an id.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

#: The content-addressed cell, dataset and workload cache.
DEFAULT_CACHE_DIR = Path(".repro-cache")
#: Run records (``<run_id>.json``) and their journals (``<run_id>/journal``).
DEFAULT_RUNS_DIR = Path("results/runs")
#: The evaluation service's durable job queue.
DEFAULT_JOBS_DIR = Path("results/jobs")
#: Report bundles.
DEFAULT_REPORTS_DIR = Path("reports")


def utc_now() -> str:
    """The current UTC time, to the second: ``2026-08-08T01:02:03Z``."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def stamped_id(created_at: str, digest: str) -> str:
    """``<created_at, compacted>-<first 8 characters of digest>``.

    Ids stamped later sort later; within one second they sort by digest.
    """
    stamp = created_at.replace("-", "").replace(":", "").replace("Z", "")
    return f"{stamp}-{digest[:8]}"


def new_run_id(created_at: str, content: str) -> str:
    """A run's :func:`stamped_id`, addressed by a hash of its content."""
    return stamped_id(created_at, hashlib.sha256(content.encode("utf-8")).hexdigest())
