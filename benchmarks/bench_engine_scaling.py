"""Engine scaling microbenchmark: serial vs pooled workers vs warm cache.

Runs a full task grid (all models x the task's workloads) three ways —
in-process serial, across a worker pool, and again from a warm on-disk
cache — verifies all three produce identical metrics, and writes the
timings to ``benchmarks/BENCH_engine_scaling.json`` (see the README in
this directory for the BENCH_*.json convention).

The parallel numbers are wall-clock and therefore bounded by the CPUs
actually available (``cpu_count`` is recorded alongside): on a
single-core container the worker pool can at best tie the serial path,
while the warm-cache run is hardware-independent — it skips both
dataset construction and cell evaluation entirely.

The ``resilience`` section prices crash-safety: the write-ahead run
journal's overhead on a straight-through run, and the wall-clock cost
of an interrupt (chaos SIGTERM after 2 committed cells) plus
``--resume`` round-trip against never having been interrupted — with
the resumed metrics required to be identical.

The ``streaming`` section is the memory-scaling curve for the chunked
data path: one streamed cell (gpt4 x syntax_error) at each instance
count, each point measured in a *fresh* subprocess so ``ru_maxrss`` is
that point's true peak RSS rather than a high-water mark inherited from
an earlier, larger point.  The headline number is ``rss_flat_ratio`` —
peak RSS of the largest point over the smallest of the top three — which
stays under 1.5 because memory is bounded by the chunk size, not the
instance count.

Usage:

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py \
        [--task query_equiv] [--workers 4] [--max-instances N] \
        [--stream-points 1000,10000,100000,1000000]

    # CI modes (no BENCH rewrite):
    ... bench_engine_scaling.py --check-baseline   # RSS regression gate
    ... bench_engine_scaling.py --scale-smoke      # 2-worker streaming smoke
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.evalfw.runner import ExperimentRunner, metrics_table

OUT = Path(__file__).resolve().parent / "BENCH_engine_scaling.json"
SRC = Path(__file__).resolve().parent.parent / "src"

#: Chunk size the streaming curve (and its CI gates) measures at.
STREAM_CHUNK_SIZE = 2000

#: Instance counts for the committed streaming curve.
STREAM_POINTS = (1_000, 10_000, 100_000, 1_000_000)

#: Fresh peak RSS may exceed the committed baseline by this factor
#: before ``--check-baseline`` fails (allocator and platform noise).
RSS_BUDGET_FACTOR = 1.5

#: Fallback RSS budget (MB) when no committed baseline point exists.
RSS_FALLBACK_BUDGET_MB = 1000.0


def _timed_grid(runner: ExperimentRunner, task: str):
    start = time.perf_counter()
    grid = runner.run_task(task)
    return time.perf_counter() - start, grid


def _cpus_available() -> int | None:
    """CPUs this process may actually run on (container quota aware).

    ``os.cpu_count()`` reports the host's cores; under CPU affinity or a
    container quota the schedulable set can be much smaller, which is
    the number that bounds real parallel speedup.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count()


def run(task: str, workers: int, max_instances: int | None, seed: int) -> dict:
    cpus = _cpus_available()
    results: dict = {
        "task": task,
        "seed": seed,
        "workers_requested": workers,
        "workers_effective": min(workers, cpus) if cpus else workers,
        "max_instances": max_instances,
        "cpu_count": os.cpu_count(),
        "cpus_available": cpus,
    }

    serial = ExperimentRunner(seed=seed, max_instances=max_instances)
    serial_s, serial_grid = _timed_grid(serial, task)
    results["cells"] = len(serial_grid)
    results["instances_per_cell"] = {
        workload: len(cell.dataset)
        for (_, workload), cell in serial_grid.items()
    }
    results["serial_s"] = round(serial_s, 3)
    reference = metrics_table(serial_grid, "binary")

    # Cold: pool start-up, worker-side dataset builds, chunk evaluation.
    cold = ExperimentRunner(seed=seed, max_instances=max_instances, workers=workers)
    try:
        cold_s, parallel_grid = _timed_grid(cold, task)
        # Steady state: datasets in memory, pool warm — pure chunked
        # evaluation throughput (what a long multi-artifact run sees).
        cold.engine.computed_cells = 0
        steady_s, _ = _timed_grid(cold, task)
    finally:
        cold.close()
    results["parallel_cold_s"] = round(cold_s, 3)
    results["parallel_steady_s"] = round(steady_s, 3)
    results["speedup_cold"] = round(serial_s / cold_s, 2) if cold_s else None
    results["identical"] = metrics_table(parallel_grid, "binary") == reference

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        cold_cache = ExperimentRunner(
            seed=seed, max_instances=max_instances, cache_dir=cache_dir
        )
        cold_cache_s, _ = _timed_grid(cold_cache, task)
        warm_cache = ExperimentRunner(
            seed=seed, max_instances=max_instances, cache_dir=cache_dir
        )
        warm_cache_s, cached_grid = _timed_grid(warm_cache, task)
        results["cache_cold_s"] = round(cold_cache_s, 3)
        results["cache_warm_s"] = round(warm_cache_s, 4)
        results["cache_speedup"] = (
            round(cold_cache_s / warm_cache_s, 1) if warm_cache_s else None
        )
        results["cache_hit_cells"] = warm_cache.engine.cached_cells
        results["cache_recomputed_cells"] = warm_cache.engine.computed_cells
        results["cache_stats"] = warm_cache.engine.cache.stats.as_dict()
        results["cache_identical"] = metrics_table(cached_grid, "binary") == reference
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return results


def bench_dispatcher(
    levels: tuple[int, ...] = (1, 4, 8),
    requests: int = 400,
    latency_s: float = 0.002,
) -> dict:
    """Dispatcher throughput at several ``--max-concurrency`` levels.

    Uses a latency-injecting fake backend (an async sleep standing in
    for network round-trip time), so the measured requests/second shows
    how much of the per-request latency the dispatcher's bounded
    concurrency actually hides: ideal scaling is linear in the level
    until CPU or rate limits bite.
    """
    import asyncio

    from repro.llm.backends.base import BaseBackend, ModelRequest
    from repro.llm.backends.dispatch import AsyncDispatcher
    from repro.llm.base import LLMResponse

    class LatencyBackend(BaseBackend):
        name = "latency-sim"

        async def acomplete(self, request: ModelRequest) -> LLMResponse:
            await asyncio.sleep(latency_s)
            return LLMResponse(text="Yes.", model=request.model)

    batch = [
        ModelRequest(
            request_id=f"bench-{i}",
            task="performance_pred",
            model="gpt4",
            prompt_text=f"bench prompt {i}",
        )
        for i in range(requests)
    ]
    throughput: dict[str, dict] = {}
    for level in levels:
        dispatcher = AsyncDispatcher(LatencyBackend(), max_concurrency=level)
        start = time.perf_counter()
        responses = dispatcher.run_sync(batch)
        elapsed = time.perf_counter() - start
        assert len(responses) == requests
        throughput[str(level)] = {
            "seconds": round(elapsed, 4),
            "rps": round(requests / elapsed, 1) if elapsed else None,
        }
    return {
        "requests": requests,
        "simulated_latency_s": latency_s,
        "by_max_concurrency": throughput,
    }


def bench_resilience(seed: int) -> dict:
    """Journal overhead and the interrupt → resume round-trip cost.

    Runs one small 5-cell grid (``syntax_error`` x all models over a
    synthetic workload) through the real CLI four ways: unjournalled
    (``--no-record``), journalled, interrupted after 2 committed cells
    (a chaos-plan SIGTERM), and resumed.  Publishes two headline
    numbers: ``journal_overhead_pct`` (the write-ahead journal's cost
    on a straight-through run) and ``resume_round_trip_overhead_pct``
    (interrupt + resume wall clock vs never having been interrupted —
    the price of crash-safety when the crash actually happens).  The
    resumed metrics must be identical to the uninterrupted run's.
    """
    import contextlib
    import io

    from repro.cli import main as cli_main
    from repro.lifecycle import EXIT_INTERRUPTED
    from repro.reporting.run_record import RunRecordStore

    spec = "synthetic:setops:n=8"
    base = Path(tempfile.mkdtemp(prefix="repro-bench-resilience-"))

    def timed_run(label: str, *extra: str) -> tuple[float, int]:
        root = base / label
        argv = [
            "run",
            "syntax_error",
            "--workload",
            spec,
            "--max-instances",
            "8",
            "--cache-dir",
            str(root / "cache"),
            "--runs-dir",
            str(root / "runs"),
            *extra,
        ]
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
        return time.perf_counter() - start, code

    def metrics_of(label: str) -> dict:
        record = RunRecordStore(base / label / "runs").latest()
        return {
            (c.model, c.task, c.workload): dict(c.metrics)
            for c in record.cells
        }

    try:
        # Discarded warmup: the first grid in a process pays the
        # analysis-cache misses; timing it would bias the comparison.
        timed_run("warmup", "--no-record")
        no_journal_s, code = timed_run("plain", "--no-record")
        assert code == 0, f"unjournalled run exited {code}"
        journal_s, code = timed_run("journalled")
        assert code == 0, f"journalled run exited {code}"

        interrupted_s, code = timed_run(
            "resumed", "--chaos", "sigterm:after-cells=2"
        )
        assert code == EXIT_INTERRUPTED, f"interrupted run exited {code}"
        (manifest,) = (base / "resumed" / "runs").glob(
            "*/journal/manifest.json"
        )
        run_id = manifest.parent.parent.name
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(
                [
                    "run",
                    "--resume",
                    run_id,
                    "--runs-dir",
                    str(base / "resumed" / "runs"),
                ]
            )
        resume_s = time.perf_counter() - start
        assert code == 0, f"resume exited {code}"
        record = RunRecordStore(base / "resumed" / "runs").latest()
        identical = metrics_of("resumed") == metrics_of("journalled")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    return {
        "grid": f"syntax_error x all models over {spec}",
        "cells": len(record.cells),
        "no_journal_s": round(no_journal_s, 3),
        "journal_s": round(journal_s, 3),
        "journal_overhead_pct": round(
            (journal_s - no_journal_s) / no_journal_s * 100, 1
        )
        if no_journal_s
        else None,
        "interrupted_s": round(interrupted_s, 3),
        "resume_s": round(resume_s, 3),
        "resume_cached_cells": record.cached_cells,
        "resume_computed_cells": record.computed_cells,
        "resume_round_trip_overhead_pct": round(
            (interrupted_s + resume_s - journal_s) / journal_s * 100, 1
        )
        if journal_s
        else None,
        "resume_identical": identical,
    }


def stream_point(
    n: int, chunk_size: int, workers: int, seed: int
) -> dict:
    """Measure one streamed cell in *this* process: time + peak RSS.

    Peak RSS is the max of this process's ``ru_maxrss`` and its
    children's (the queue workers) — the number that would OOM a
    container.  Meaningful only in a process that has done no larger
    work beforehand; use :func:`stream_point_subprocess` from a driver.
    """
    import resource

    from repro.engine.core import EngineConfig, ExperimentEngine
    from repro.llm.profiles import MODEL_PROFILES

    profile = next(p for p in MODEL_PROFILES if p.name == "gpt4")
    started = time.perf_counter()
    config = EngineConfig(
        seed=seed, workers=workers, chunk_size=chunk_size, max_instances=n
    )
    with ExperimentEngine(config, (profile,)) as engine:
        result = engine.run_cell(
            "gpt4", "syntax_error", f"synthetic:default:n={n}"
        )
        stats = engine.stream_stats()
    seconds = time.perf_counter() - started
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "n": n,
        "instances": result.instance_count,
        "chunks": stats["chunks"] if stats else None,
        "seconds": round(seconds, 3),
        "instances_per_s": round(result.instance_count / seconds, 1)
        if seconds
        else None,
        "maxrss_self_mb": round(self_kb / 1024, 1),
        "maxrss_children_mb": round(child_kb / 1024, 1),
        "maxrss_mb": round(max(self_kb, child_kb) / 1024, 1),
        "workers_used": stats["workers_used"] if stats else None,
    }


def stream_point_subprocess(
    n: int, chunk_size: int, workers: int, seed: int
) -> dict:
    """Run one streaming measurement in a fresh interpreter.

    Fresh matters: ``ru_maxrss`` is a process-lifetime high-water mark,
    so measuring successive points in one process would report every
    point at the largest point's peak.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--point",
            str(n),
            "--chunk-size",
            str(chunk_size),
            "--workers",
            str(workers),
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"stream point n={n} failed (exit {proc.returncode}):\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_streaming(
    points: tuple[int, ...], chunk_size: int, workers: int, seed: int
) -> dict:
    """The instances-vs-RSS-vs-wallclock curve for the streamed path."""
    measured = []
    for n in points:
        point = stream_point_subprocess(n, chunk_size, workers, seed)
        measured.append(point)
        print(
            f"stream n={n:>9,} : {point['seconds']:>9.3f}s  "
            f"peak RSS {point['maxrss_mb']:.1f} MB  "
            f"({point['instances_per_s']} inst/s)"
        )
    top = sorted(measured, key=lambda p: p["n"])[-3:]
    rss_values = [p["maxrss_mb"] for p in top]
    ratio = (
        round(max(rss_values) / min(rss_values), 3)
        if len(rss_values) > 1 and min(rss_values)
        else None
    )
    return {
        "task": "syntax_error",
        "model": "gpt4",
        "workload_pattern": "synthetic:default:n=<n>",
        "chunk_size": chunk_size,
        "workers": workers,
        "points": measured,
        "rss_flat_ratio": ratio,
        "rss_flat": ratio is not None and ratio <= 1.5,
    }


def _committed_baseline_mb(n: int) -> float | None:
    """Peak RSS of the committed streaming point for ``n``, if any."""
    if not OUT.is_file():
        return None
    try:
        committed = json.loads(OUT.read_text())
        for point in committed.get("streaming", {}).get("points", ()):
            if point.get("n") == n:
                return float(point["maxrss_mb"])
    except (ValueError, KeyError, TypeError):
        return None
    return None


def check_baseline(seed: int) -> int:
    """Bounded-memory regression gate: n=100k must fit the tracked budget."""
    n = 100_000
    baseline = _committed_baseline_mb(n)
    budget = (
        baseline * RSS_BUDGET_FACTOR
        if baseline is not None
        else RSS_FALLBACK_BUDGET_MB
    )
    point = stream_point_subprocess(n, STREAM_CHUNK_SIZE, 1, seed)
    source = (
        f"{RSS_BUDGET_FACTOR}x committed baseline {baseline:.1f} MB"
        if baseline is not None
        else "fallback budget (no committed baseline)"
    )
    print(
        f"stream n={n:,}: peak RSS {point['maxrss_mb']:.1f} MB, "
        f"budget {budget:.1f} MB ({source})"
    )
    if point["maxrss_mb"] > budget:
        print(
            f"FAIL: streamed peak RSS {point['maxrss_mb']:.1f} MB exceeds "
            f"the {budget:.1f} MB budget — the chunked data path is no "
            "longer bounding memory"
        )
        return 1
    print("OK: streamed peak RSS within budget")
    return 0


def scale_smoke(seed: int) -> int:
    """CI smoke: a 2-worker streamed run completes in bounded memory.

    On a multi-CPU host the work queue must actually spread chunks over
    more than one worker process; on a 1-CPU host that assertion is
    skipped with a notice (pool scheduling may legitimately serialise).
    """
    n = 20_000
    baseline = _committed_baseline_mb(100_000)
    budget = (
        baseline * RSS_BUDGET_FACTOR
        if baseline is not None
        else RSS_FALLBACK_BUDGET_MB
    )
    cpus = _cpus_available()
    point = stream_point_subprocess(n, STREAM_CHUNK_SIZE, 2, seed)
    print(
        f"scale-smoke n={n:,} workers=2: {point['seconds']:.3f}s, "
        f"peak RSS {point['maxrss_mb']:.1f} MB (budget {budget:.1f} MB), "
        f"workers_used={point['workers_used']} on {cpus} CPU(s)"
    )
    if point["instances"] != n:
        print(f"FAIL: expected {n} instances, streamed {point['instances']}")
        return 1
    if point["maxrss_mb"] > budget:
        print(f"FAIL: peak RSS {point['maxrss_mb']:.1f} MB over budget")
        return 1
    if cpus is not None and cpus > 1:
        if not point["workers_used"] or point["workers_used"] < 2:
            print(
                "FAIL: multi-CPU host but the streamed run used "
                f"{point['workers_used']} worker process(es) — the work "
                "queue is not distributing chunks"
            )
            return 1
    else:
        print(
            "NOTICE: 1 CPU available — skipping the workers_used>1 "
            "assertion (queue scheduling may serialise on one core)"
        )
    print("OK: scale smoke passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", default="query_equiv")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-instances", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--stream-points",
        default=",".join(str(n) for n in STREAM_POINTS),
        help="comma-separated instance counts for the streaming curve",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=STREAM_CHUNK_SIZE,
        help="chunk size for streaming measurements",
    )
    parser.add_argument(
        "--point", type=int, default=None,
        help="internal: measure one streaming point in this process",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="RSS regression gate against the committed BENCH JSON",
    )
    parser.add_argument(
        "--scale-smoke", action="store_true",
        help="CI smoke: 2-worker streamed run, bounded RSS",
    )
    args = parser.parse_args(argv)

    if args.point is not None:
        print(
            json.dumps(
                stream_point(args.point, args.chunk_size, args.workers, args.seed)
            )
        )
        return 0
    if args.check_baseline:
        return check_baseline(args.seed)
    if args.scale_smoke:
        return scale_smoke(args.seed)

    results = run(args.task, args.workers, args.max_instances, args.seed)
    results["dispatcher"] = bench_dispatcher()
    results["resilience"] = bench_resilience(args.seed)
    points = tuple(
        int(part) for part in args.stream_points.split(",") if part
    )
    results["streaming"] = bench_streaming(
        points, args.chunk_size, workers=1, seed=args.seed
    )
    OUT.write_text(json.dumps(results, indent=2) + "\n")

    print(f"grid            : {args.task}, {results['cells']} cells on "
          f"{results['cpu_count']} CPU(s)")
    print(f"serial          : {results['serial_s']:.3f}s")
    print(
        f"{args.workers} workers cold  : {results['parallel_cold_s']:.3f}s "
        f"(x{results['speedup_cold']}), steady-state "
        f"{results['parallel_steady_s']:.3f}s"
    )
    print(f"cache cold      : {results['cache_cold_s']:.3f}s")
    print(
        f"cache warm      : {results['cache_warm_s']:.4f}s "
        f"(x{results['cache_speedup']}, {results['cache_hit_cells']} cells, "
        f"{results['cache_recomputed_cells']} recomputed)"
    )
    print(f"identical       : {results['identical'] and results['cache_identical']}")
    dispatcher = results["dispatcher"]
    rendered = ", ".join(
        f"c={level}: {stats['rps']} rps"
        for level, stats in dispatcher["by_max_concurrency"].items()
    )
    print(
        f"dispatcher      : {dispatcher['requests']} reqs @ "
        f"{dispatcher['simulated_latency_s'] * 1000:.0f}ms fake latency — "
        f"{rendered}"
    )
    resilience = results["resilience"]
    print(
        f"resilience      : journal overhead "
        f"{resilience['journal_overhead_pct']}% "
        f"({resilience['journal_s']:.3f}s vs {resilience['no_journal_s']:.3f}s); "
        f"interrupt+resume {resilience['resume_round_trip_overhead_pct']}% "
        f"({resilience['interrupted_s']:.3f}s + {resilience['resume_s']:.3f}s, "
        f"{resilience['resume_cached_cells']} cells resumed warm, "
        f"identical: {resilience['resume_identical']})"
    )
    streaming = results["streaming"]
    print(
        f"streaming       : {len(streaming['points'])} points @ chunk "
        f"{streaming['chunk_size']} — peak-RSS flat ratio "
        f"{streaming['rss_flat_ratio']} (flat: {streaming['rss_flat']})"
    )
    print(f"wrote {OUT}")
    if not (results["identical"] and results["cache_identical"]):
        return 1
    if results["cache_recomputed_cells"]:
        return 1
    if not streaming["rss_flat"]:
        return 1
    if not resilience["resume_identical"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
