"""Tests of the benchmark itself: error accounting, trace reconciliation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))
run.WORK.mkdir(exist_ok=True)

#: A grid small enough for a test: one task, five models, three instances.
TINY = ("--seed", "0", "run", "performance_pred", "--workload", "sdss",
        "--max-instances", "3", "--workers", "1",
        "--cache-dir", "{root}/cache", "--runs-dir", "{root}/runs")


def error_rate(sample: dict) -> float:
    attempted, failed = run.check_sample(sample, None)
    return failed / attempted


def test_clean_grid_has_no_errors_and_a_wrong_digest_is_wrong_output():
    sample = run.run_child(list(TINY), report=False)
    assert error_rate(sample) == 0.0
    with pytest.raises(run.WrongOutput):
        run.check_sample(sample, {"digest": "0" * 64})


def test_flaky_backend_with_skip_raises_error_rate():
    # Half the requests fail more times than the dispatcher retries, so
    # their cells are skipped instead of failing the run.
    chaos = ("--chaos", "flaky:rate=0.5:fail_attempts=9", "--on-cell-error", "skip")
    sample = run.run_child([*TINY, *chaos], report=False)
    assert sample["status"] == "completed"
    assert error_rate(sample) > 0.0


def test_counts_must_repeat_exactly():
    runs = [{"llm.requests": 10}, {"llm.requests": 11}]
    with pytest.raises(run.WrongOutput):
        run.check_counts(runs, None)
    run.check_counts([{"llm.requests": 10}], {"llm.requests": 10})


def test_self_times_and_unattributed_reconcile_with_traced_wall():
    sample = run.run_child(list(TINY), trace=True)
    layers = run.grid_layers(sample)
    self_total = sum(layers[f"{name}_s"] for name in tracing.SPAN_NAMES)
    assert self_total + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], abs=1e-6
    )
    # Spans cover the run: what no layer claims is glue, not a layer.
    assert 0 <= layers["trace.unattributed_s"] < 0.1 * layers["trace.wall_s"]
    assert layers["llm.requests"] == layers["tasks.requests_rendered"] == 15


def test_self_time_subtracts_children_per_thread():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    outer = tracer.enter("engine.evaluate")  # t=0
    inner = tracer.enter("llm.backend")  # t=1
    tracer.exit(inner)  # t=2
    tracer.exit(outer)  # t=3

    def other_thread():
        frame = tracer.enter("tasks.render")
        tracer.exit(frame)

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    summary = tracer.summary()
    assert summary["engine.evaluate_s"] == 2
    assert summary["llm.backend_s"] == 1
    assert summary["tasks.render_s"] == 1
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, -1]


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert time.monotonic() - started < 180
    for line in completed.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert Path(run.ROOT / spec["paths"][0]) == run.HERE
