"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper artifact through the experiment
registry, timed with pytest-benchmark, and prints/saves the same rows or
series the paper reports (under ``results/``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import pytest

from repro.engine import EngineConfig, ExperimentEngine
from repro.experiments import run_experiment

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def engine() -> Iterator[ExperimentEngine]:
    """One shared engine so workloads/datasets are generated once."""
    with ExperimentEngine(EngineConfig(seed=0)) as engine:
        yield engine


@pytest.fixture(scope="session")
def emit():
    """Print an artifact report and persist it under results/."""

    def _emit(result) -> None:
        print(f"\n=== {result.title} ===\n{result.text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{result.artifact}.txt").write_text(
            f"{result.title}\n\n{result.text}\n"
        )

    return _emit


@pytest.fixture(scope="session")
def save_report():
    """Print an ablation report and persist it under results/."""

    def _save(name: str, text: str) -> None:
        print(f"\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _save


@pytest.fixture()
def reproduce(benchmark, engine, emit):
    """Run one artifact exactly once under the benchmark timer."""

    def _reproduce(artifact: str):
        result = benchmark.pedantic(
            run_experiment, args=(artifact, engine), rounds=1, iterations=1
        )
        emit(result)
        return result

    return _reproduce
