"""Shared synthetic builders for the reporting-layer tests.

Everything is hand-built — no engine, no workload generation — so these
tests are fast and the golden file only moves when the *reporting* code
changes, never when model calibration does.
"""

from __future__ import annotations

from repro.evalfw.accumulate import CellResult
from repro.reporting.run_record import CellRecord, RunRecord
from repro.tasks.base import ModelAnswer, TaskDataset, TaskInstance

#: (label_type, position, label) per instance.
INSTANCE_SPECS = [
    ("aggr-attr", 3, True),
    ("alias-undefined", 7, True),
    (None, None, False),
    ("aggr-attr", 1, True),
    (None, None, False),
]

#: (predicted, predicted_type, predicted_position) per model.
PREDICTION_SPECS = {
    "gpt4": [
        (True, "aggr-attr", 3),
        (True, "alias-undefined", 9),
        (False, None, None),
        (True, "aggr-attr", 1),
        (False, None, None),
    ],
    "gemini": [
        (True, "alias-undefined", 5),
        (False, None, None),
        (True, "aggr-attr", 2),
        (None, None, None),
        (False, None, None),
    ],
}


def make_cell_result(
    model: str = "gpt4",
    task: str = "syntax_error",
    workload: str = "sdss",
    with_types: bool = True,
    with_positions: bool = True,
) -> CellResult:
    """A deterministic five-instance cell with all four confusion outcomes."""
    dataset = TaskDataset(task=task, workload=workload)
    answers = []
    for i, (label_type, position, label) in enumerate(INSTANCE_SPECS):
        dataset.instances.append(
            TaskInstance(
                instance_id=f"{workload}-q{i}",
                task=task,
                workload=workload,
                schema_name="s",
                payload={"query": "SELECT 1"},
                label=label,
                label_type=label_type if with_types else None,
                position=position if with_positions else None,
            )
        )
        predicted, predicted_type, predicted_position = PREDICTION_SPECS[model][i]
        answers.append(
            ModelAnswer(
                instance_id=f"{workload}-q{i}",
                model=model,
                response_text="synthetic",
                predicted=predicted,
                predicted_type=predicted_type if with_types else None,
                predicted_position=predicted_position if with_positions else None,
            )
        )
    return CellResult(
        model=model, task=task, workload=workload, dataset=dataset, answers=answers
    )


def make_cell_record(
    model: str = "gpt4",
    display: str = "GPT4",
    task: str = "syntax_error",
    workload: str = "sdss",
    f1: float = 0.9,
    **extra_metrics: float,
) -> CellRecord:
    metrics = {
        "binary.precision": round(f1 - 0.02, 6),
        "binary.recall": round(f1 + 0.02, 6),
        "binary.f1": f1,
        "binary.accuracy": f1,
    }
    metrics.update(extra_metrics)
    return CellRecord(
        model=model,
        model_display=display,
        task=task,
        workload=workload,
        instances=100,
        cached=False,
        seconds=0.25,
        metrics=metrics,
        confusion={"tp": 40, "tn": 45, "fp": 5, "fn": 10},
    )


def make_record(run_id: str = "20260101T000000-fixture0") -> RunRecord:
    """A fixed two-task record covering binary, typed and location tables."""
    cells = (
        make_cell_record(
            "gpt4", "GPT4", "syntax_error", "sdss", 0.95,
            **{"typed.precision": 0.93, "typed.recall": 0.92, "typed.f1": 0.92},
        ),
        make_cell_record(
            "gemini", "Gemini", "syntax_error", "sdss", 0.74,
            **{"typed.precision": 0.70, "typed.recall": 0.66, "typed.f1": 0.67},
        ),
        make_cell_record(
            "gpt4", "GPT4", "miss_token", "sqlshare", 0.96,
            **{
                "typed.precision": 0.90, "typed.recall": 0.89, "typed.f1": 0.89,
                "location.mae": 4.1, "location.hit_rate": 0.61,
            },
        ),
        make_cell_record(
            "gemini", "Gemini", "miss_token", "sqlshare", 0.79,
            **{
                "typed.precision": 0.74, "typed.recall": 0.55, "typed.f1": 0.58,
                "location.mae": 9.9, "location.hit_rate": 0.37,
            },
        ),
    )
    return RunRecord(
        run_id=run_id,
        created_at="2026-01-01T00:00:00Z",
        seed=0,
        workers=2,
        max_instances=None,
        source_fingerprint="deadbeefcafe" * 4,
        cache_dir=".repro-cache",
        artifacts=("table3", "table4"),
        artifact_seconds={"table3": 1.5, "table4": 2.25},
        total_seconds=3.75,
        computed_cells=4,
        cached_cells=0,
        cache_stats={"hits": 0, "misses": 4, "writes": 4},
        cells=cells,
        notes="fixture record",
    )

