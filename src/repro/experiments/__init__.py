"""Experiment registry: one entry per paper table and figure."""

from repro.experiments.artifacts import ExperimentResult
from repro.experiments.registry import (
    ARTIFACT_IDS,
    EXPERIMENTS,
    run_experiment,
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "ARTIFACT_IDS",
    "run_experiment",
]
