"""Task layer: instance generators, dataset builds and the request/parse
plumbing that turns a task instance into a model answer."""

from repro.tasks.base import (
    MISS_TOKEN,
    PERFORMANCE_PRED,
    PRIMARY_TASKS,
    QUERY_EQUIV,
    QUERY_EXP,
    REWRITE_EQUIVALENCE,
    REWRITE_SPEEDUP,
    REWRITE_TASKS,
    SECONDARY_TASKS,
    SYNTAX_ERROR,
    ModelAnswer,
    TaskDataset,
    TaskInstance,
)
from repro.tasks.explanation import explanation_overlap_f1
from repro.tasks.registry import TASK_WORKLOADS, build_dataset
from repro.tasks.skills import SKILL_TASK_MAP, render_skill_table, skill_marks

__all__ = [
    "TaskInstance",
    "TaskDataset",
    "ModelAnswer",
    "PRIMARY_TASKS",
    "SECONDARY_TASKS",
    "SYNTAX_ERROR",
    "MISS_TOKEN",
    "QUERY_EQUIV",
    "PERFORMANCE_PRED",
    "QUERY_EXP",
    "REWRITE_EQUIVALENCE",
    "REWRITE_SPEEDUP",
    "REWRITE_TASKS",
    "TASK_WORKLOADS",
    "build_dataset",
    "explanation_overlap_f1",
    "SKILL_TASK_MAP",
    "skill_marks",
    "render_skill_table",
]
