"""Golden-file regression for ``metrics_table``.

Locks row ordering (paper model order, display names) and column naming
(``<workload>.<Metric>``) against refactors of the engine.  The
grid is synthetic — hand-built instances and answers — so the golden
file only moves when the table *shape or arithmetic* changes, never when
model calibration does.

Regenerate after an intentional change with:

    PYTHONPATH=src python tests/evalfw/test_metrics_table_golden.py --regen
"""

import json
from pathlib import Path

from repro.evalfw import CellResult, metrics_table
from repro.tasks.base import ModelAnswer, TaskDataset, TaskInstance

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "metrics_table.json"

#: (label, label_type, position) per instance; varied enough that every
#: confusion-cell and metric is non-trivial.
_INSTANCES = [
    (True, "aggr-attr", 3),
    (True, "alias-undefined", 7),
    (False, None, None),
    (True, "aggr-attr", 1),
    (False, None, None),
]

#: (predicted, predicted_type, predicted_position) per model.
_PREDICTIONS = {
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


def _cell(model: str, workload: str) -> CellResult:
    dataset = TaskDataset(task="syntax_error", workload=workload)
    answers = []
    for i, (label, label_type, position) in enumerate(_INSTANCES):
        dataset.instances.append(
            TaskInstance(
                instance_id=f"{workload}-q{i}",
                task="syntax_error",
                workload=workload,
                schema_name="s",
                payload={"query": "SELECT 1"},
                label=label,
                label_type=label_type,
                position=position,
            )
        )
        predicted, predicted_type, predicted_position = _PREDICTIONS[model][i]
        answers.append(
            ModelAnswer(
                instance_id=f"{workload}-q{i}",
                model=model,
                response_text="synthetic",
                predicted=predicted,
                predicted_type=predicted_type,
                predicted_position=predicted_position,
            )
        )
    return CellResult(
        model=model,
        task="syntax_error",
        workload=workload,
        dataset=dataset,
        answers=answers,
    )


def _grid():
    return {
        (model, workload): _cell(model, workload)
        for model in ("gpt4", "gemini")
        for workload in ("sdss", "sqlshare")
    }


def _snapshot() -> dict:
    grid = _grid()
    snapshot = {}
    for kind in ("binary", "typed", "location"):
        rows = metrics_table(grid, kind)
        snapshot[kind] = {
            "columns": [list(row.keys()) for row in rows],
            "rows": rows,
        }
    return snapshot


def test_metrics_table_matches_golden():
    assert GOLDEN.exists(), f"golden file missing: {GOLDEN} (run with --regen)"
    golden = json.loads(GOLDEN.read_text())
    snapshot = json.loads(json.dumps(_snapshot()))  # normalise tuples etc.
    for kind in ("binary", "typed", "location"):
        assert snapshot[kind]["columns"] == golden[kind]["columns"], (
            f"{kind}: column names/order changed"
        )
        assert snapshot[kind]["rows"] == golden[kind]["rows"], (
            f"{kind}: row values/order changed"
        )


def test_rows_follow_paper_model_order():
    rows = metrics_table(_grid(), "binary")
    assert [row["Model"] for row in rows] == ["GPT4", "Gemini"]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(_snapshot(), indent=2) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
