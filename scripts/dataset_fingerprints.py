#!/usr/bin/env python
"""Print stable fingerprints of the labeled datasets the pipeline builds.

One sha256 per (task, workload) cell over a canonical JSON serialization
of every instance field that feeds evaluation.  Used by
``tests/test_dataset_identity.py`` to prove a refactor of the AST
mutation machinery left every dataset byte-identical.

Run: ``PYTHONPATH=src python scripts/dataset_fingerprints.py``
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.tasks.base import PRIMARY_TASKS, REWRITE_TASKS
from repro.tasks.registry import TASK_WORKLOADS, build_dataset, tasks_for_workload
from repro.workloads import load_workload

SYNTHETIC_SPECS = (
    "synthetic:default:n=60",
    "synthetic:joins:n=40",
    "synthetic:predicates:n=40",
    "synthetic:rewrite:n=8",
)

#: A family filter reaches only the rewrite tasks' pairs, so this spec
#: pins those two cells alone.
FAMILY_RESTRICTED_SPEC = "synthetic:rewrite:n=8:families=or-in+setop-exists"


def instance_blob(instance) -> dict:
    blob = asdict(instance)
    blob["props"] = asdict(instance.props)
    return blob


def dataset_fingerprint(task: str, workload_name: str, seed: int = 0) -> str:
    workload = load_workload(workload_name, seed)
    dataset = build_dataset(task, workload, seed)
    payload = json.dumps(
        [instance_blob(i) for i in dataset.instances],
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def all_cells() -> list[tuple[str, str]]:
    cells: list[tuple[str, str]] = []
    for task in PRIMARY_TASKS:
        for workload_name in TASK_WORKLOADS[task]:
            cells.append((task, workload_name))
    for spec in SYNTHETIC_SPECS:
        for task in tasks_for_workload(spec):
            cells.append((task, spec))
    for task in REWRITE_TASKS:
        cells.append((task, FAMILY_RESTRICTED_SPEC))
    return cells


def main() -> None:
    print("EXPECTED_FINGERPRINTS = {")
    for task, workload_name in all_cells():
        digest = dataset_fingerprint(task, workload_name)
        print(f'    ("{task}", "{workload_name}"): "{digest}",')
    print("}")


if __name__ == "__main__":
    main()
