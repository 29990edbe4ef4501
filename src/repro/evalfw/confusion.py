"""Confusion outcomes: classify each (instance, answer) as TP/TN/FP/FN."""

from __future__ import annotations

from typing import Optional

from repro.evalfw.metrics import classify_binary
from repro.tasks.base import ModelAnswer, TaskInstance

TP = "TP"
TN = "TN"
FP = "FP"
FN = "FN"

OUTCOMES: tuple[str, ...] = (TP, TN, FP, FN)


def outcome(truth: bool, prediction: Optional[bool]) -> str:
    """The confusion cell for one example (None prediction = wrong)."""
    return classify_binary(truth, prediction).upper()


def outcome_of(instance: TaskInstance, answer: ModelAnswer) -> str:
    return outcome(bool(instance.label), answer.predicted)


def group_by_outcome(
    instances: list[TaskInstance], answers: list[ModelAnswer]
) -> dict[str, list[TaskInstance]]:
    """Partition instances into the four confusion cells."""
    if len(instances) != len(answers):
        raise ValueError("instances and answers must align")
    groups: dict[str, list[TaskInstance]] = {cell: [] for cell in OUTCOMES}
    for instance, answer in zip(instances, answers):
        groups[outcome_of(instance, answer)].append(instance)
    return groups
