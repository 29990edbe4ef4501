"""The repo's measurement harness: hot-path throughput, the engine grid,
the dispatcher, crash-safety costs and the streamed-memory curve.

A full run measures every section and writes
``benchmarks/BENCH_harness.json`` (or ``--out``), next to one host
fingerprint.  ``--check`` is the CI gate: it measures the gated
sections, compares them with the committed JSON and writes nothing.

Sections:

* ``throughput`` — the six gated corpus rates of :data:`BASELINE_METRICS`:
  raw and memoized lexing and parsing of the three SQL-log workloads'
  queries, catalog rewrite chains over a fixed synthetic corpus, and
  generation of the SQL-log workloads.  A run times :data:`ROUNDS`
  interleaved rounds in a fresh interpreter, each round timing every
  metric once, so a burst of host noise hits all metrics of a round
  alike.  The work is fixed (seed 0) whatever ``--seed`` says.
* ``grid`` — every model over the five primary tasks' paper
  workloads: serial, through the worker pool cold and then steady,
  into an empty on-disk cache and back out of it warm.  The pooled and
  cached answers must equal the serial ones.
* ``dispatcher`` — async-dispatcher throughput at several
  ``--max-concurrency`` levels against a latency-injecting backend.
* ``resilience`` — the run journal's overhead and the interrupt →
  ``--resume`` round trip, through the real CLI.
* ``streaming`` — wall time and peak RSS of one streamed cell at each
  ``--stream-points`` instance count, each in a fresh interpreter.

Usage:

    PYTHONPATH=src python benchmarks/harness.py [--workers N] [--seed S] \\
        [--stream-points 1000,10000,100000,1000000] [--out FILE]
    PYTHONPATH=src python benchmarks/harness.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import tempfile
import time
from multiprocessing import get_context
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_harness.json"

#: The grid: every model over each of these tasks' paper workloads.
GRID_TASKS: tuple[str, ...] = (
    "syntax_error",
    "miss_token",
    "query_equiv",
    "performance_pred",
    "query_exp",
)

#: ``--check`` caps every grid cell at this many instances.
CHECK_MAX_INSTANCES = 25

#: The SQL-log workloads whose queries form the lexer/parser corpus and
#: whose generation is timed.
CORPUS_WORKLOADS: tuple[str, ...] = ("sdss", "sqlshare", "join_order")

#: Fixed corpus and chain depth (the pair generator's hard-positive
#: depth) of the rewrite measurement.
REWRITE_CORPUS_WORKLOAD = "synthetic:rewrite:n=40"
REWRITE_CHAIN_STEPS = 3

#: Seed of all throughput work, so every run times what the baseline timed.
THROUGHPUT_SEED = 0

#: Interleaved rounds per throughput run.
ROUNDS = 9

#: Fresh-interpreter throughput runs a full run pools into the baseline.
BASELINE_RUNS = 3

#: Memoized lookups per cached timing.  One memoized sweep of the
#: ~700-text corpus takes ~0.1 ms; this many lookups put the timed
#: region near half a second, far above scheduler hiccups.
CACHED_LOOKUPS = 2_400_000

#: Throughputs gated against the committed baseline.  All time fixed
#: work, so a ``--check`` run compares with a full run's numbers.
BASELINE_METRICS: tuple[str, ...] = (
    "lexer.raw_tokens_per_s",
    "lexer.cached_texts_per_s",
    "parser.raw_texts_per_s",
    "parser.cached_texts_per_s",
    "rewrite.rewrites_per_s",
    "workloads.queries_per_s",
)

#: Allowed regression of a metric's normalized score (see
#: :func:`baseline_scores`).
BASELINE_TOLERANCE = 0.2

#: Absolute ``--check`` floors, ~3x away from what a CI runner measures:
#: they catch order-of-magnitude breakage on any hardware.
CHECK_MAX_WARM_GRID_S = 6.0
CHECK_MIN_PARSE_TEXTS_PER_S = 150.0

#: Chunk size of every streamed measurement.
STREAM_CHUNK_SIZE = 2000

#: Instance counts of a full run's streaming curve.
STREAM_POINTS: tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)

#: The curve is flat when the peak RSS of its top three points differs
#: by at most this factor.
RSS_FLAT_RATIO = 1.5

#: ``--check`` streams this many instances on one worker and requires
#: the peak RSS within this factor of the committed point's (or within
#: the fallback budget when the committed curve lacks the point).
RSS_GATE_POINT = 100_000
RSS_BUDGET_FACTOR = 1.5
RSS_FALLBACK_BUDGET_MB = 1000.0

#: ``--check``'s scale smoke: this many instances on this many workers,
#: within the same RSS budget.
SCALE_SMOKE_POINT = 20_000
SCALE_SMOKE_WORKERS = 2


def usable_cpus() -> int:
    """CPUs this process may run on (affinity and container aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def host_fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": usable_cpus(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg": [round(load, 2) for load in os.getloadavg()],
    }


#: ``prctl`` option: the signal this process gets when its parent exits.
_PR_SET_PDEATHSIG = 1


def _exit_with(parent: int) -> None:
    """Have the kernel SIGKILL this process when *parent* exits (Linux).

    That covers every way the harness can end, SIGKILL included.  The
    parent may have exited before the request took effect, so check.
    """
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # no prctl: not Linux
        pass
    if os.getppid() != parent:
        os._exit(1)


def _fresh_child(conn, parent: int, fn, args) -> None:
    _exit_with(parent)
    try:
        outcome = (True, fn(*args))
    except Exception as error:  # raised again in the parent
        outcome = (False, error)
    conn.send(outcome)
    conn.close()


def in_fresh_process(fn, *args):
    """``fn(*args)`` in a new interpreter: no memo, allocator state or
    peak RSS carried over from this process.

    The child does not outlive the harness: it is killed when the
    harness unwinds (Ctrl-C) and by the kernel when the harness dies.
    """
    context = get_context("spawn")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_fresh_child, args=(send, os.getpid(), fn, args))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, RuntimeError(f"{fn!r} died in its fresh process")
    except BaseException:
        child.kill()
        raise
    finally:
        child.join()
        receive.close()
    if not ok:
        raise value
    return value


# -- throughput ---------------------------------------------------------------


def verify_raw_work(texts: list[str]) -> bool:
    """Prove "raw" numbers cannot be served from the memo layer.

    After a full cache clear, one sweep through the cached entry points
    must advance the raw-work counters by at least one unit per
    *distinct* text (corpora repeat texts, and repeats are legitimate
    memo hits).  If it does not, the clear is broken, or the counters
    are, and every raw throughput would be a memoized one.
    """
    from repro.sql import analysis_cache

    analysis_cache.clear_caches()
    for text in texts:
        analysis_cache.tokenize_cached(text)
        analysis_cache.try_parse_cached(text)
    counts = analysis_cache.counters()
    distinct = len(set(texts))
    return counts.raw_tokenizes >= distinct and counts.raw_parses >= distinct


def _timed(fn, *args) -> float:
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def _sweep(fn, texts: list[str], loops: int = 1) -> None:
    for _ in range(loops):
        for text in texts:
            fn(text)


def measure_throughput(rounds: int = ROUNDS) -> dict:
    """Time every gated metric once per round, *rounds* times, here.

    Raw lexing and parsing make one corpus pass with the memo cleared;
    the rewrite measurement runs the pair generator's whole per-query
    pipeline (clone, opportunity seeding, chain, render) with each
    query's RNG re-seeded, so every round does identical work.
    """
    import random

    from repro.rewrite.catalog import apply_rewrite_chain
    from repro.rewrite.pairs import seed_rewrite_sites
    from repro.sql.analysis_cache import (
        clear_caches,
        tokenize_cached,
        try_parse_cached,
    )
    from repro.sql.lexer import tokenize
    from repro.sql.nodes import clone
    from repro.sql.parser import try_parse
    from repro.workloads import load_workload

    texts = [
        query.text
        for name in CORPUS_WORKLOADS
        for query in load_workload(name, THROUGHPUT_SEED).queries
    ]
    tokens = sum(len(tokenize(text)) for text in texts)
    loops = max(1, round(CACHED_LOOKUPS / len(texts)))
    rewrite_workload = load_workload(REWRITE_CORPUS_WORKLOAD, THROUGHPUT_SEED)
    rewrite_corpus = [
        (query, rewrite_workload.schema_for(query))
        for query in rewrite_workload.select_queries()
    ]

    def rewrite_sweep() -> tuple[int, int]:
        chains = steps = 0
        for index, (query, schema) in enumerate(rewrite_corpus):
            rng = random.Random(THROUGHPUT_SEED * 10_007 + index)
            base = clone(query.statement)
            seed_rewrite_sites(base, schema, rng)
            chain = apply_rewrite_chain(
                base, schema, rng, max_steps=REWRITE_CHAIN_STEPS
            )
            if chain is not None:
                chains += 1
                steps += len(chain.steps)
        return chains, steps

    def generate() -> int:
        return sum(
            len(load_workload(name, THROUGHPUT_SEED)) for name in CORPUS_WORKLOADS
        )

    chains, steps = rewrite_sweep()
    generated = generate()
    measured = []
    for _ in range(rounds):
        clear_caches()
        lex_s = _timed(_sweep, tokenize, texts)
        _sweep(tokenize_cached, texts)
        lex_cached_s = _timed(_sweep, tokenize_cached, texts, loops)
        clear_caches()
        parse_s = _timed(_sweep, try_parse, texts)
        _sweep(try_parse_cached, texts)
        parse_cached_s = _timed(_sweep, try_parse_cached, texts, loops)
        rewrite_s = _timed(rewrite_sweep)
        generate_s = _timed(generate)
        measured.append(
            {
                "lexer.raw_tokens_per_s": round(tokens / lex_s),
                "lexer.cached_texts_per_s": round(len(texts) * loops / lex_cached_s),
                "parser.raw_texts_per_s": round(len(texts) / parse_s, 1),
                "parser.cached_texts_per_s": round(len(texts) * loops / parse_cached_s),
                "rewrite.rewrites_per_s": round(steps / rewrite_s, 1),
                "workloads.queries_per_s": round(generated / generate_s, 1),
            }
        )
    return {
        "corpus": {
            "texts": len(texts),
            "tokens": tokens,
            "parsed": sum(1 for text in texts if try_parse(text) is not None),
            "cached_lookups": len(texts) * loops,
            "rewrite_queries": len(rewrite_corpus),
            "rewrite_chains": chains,
            "rewrite_steps": steps,
            "generated_queries": generated,
        },
        "raw_counters_advance": verify_raw_work(texts),
        "rounds": measured,
    }


def measure_throughput_runs(runs: int) -> dict:
    """*runs* fresh-interpreter throughput runs, their rounds pooled."""
    measured = [in_fresh_process(measure_throughput) for _ in range(runs)]
    rounds = [row for run in measured for row in run["rounds"]]
    return {
        "corpus": measured[0]["corpus"],
        "raw_counters_advance": all(run["raw_counters_advance"] for run in measured),
        "runs": runs,
        "median": {
            name: statistics.median(row[name] for row in rounds)
            for name in BASELINE_METRICS
        },
        "rounds": rounds,
    }


def baseline_scores(rounds: list[dict], baseline: dict) -> dict[str, float]:
    """Each metric's throughput relative to the baseline, runner speed
    normalized out round by round.

    CI runners are not the host that recorded the baseline, and a host
    drifts from minute to minute.  Within one round every metric's
    now/baseline ratio is divided by the round's median ratio: a round
    that ran uniformly slow moves every ratio alike and normalizes to
    ~1.0, while a regression in one hot path drags only its own
    ratio.  A metric's score is its median over the rounds, so one
    disturbed round cannot fail it.
    """
    names = [name for name in BASELINE_METRICS if baseline.get(name, 0) > 0]
    if not names or not rounds:
        return {}
    normalized: dict[str, list[float]] = {name: [] for name in names}
    for measured in rounds:
        ratios = {name: measured[name] / baseline[name] for name in names}
        speed = statistics.median(ratios.values())
        for name in names:
            normalized[name].append(ratios[name] / speed)
    return {name: statistics.median(values) for name, values in normalized.items()}


def check_against_baseline(
    rounds: list[dict], baseline: dict, tolerance: float = BASELINE_TOLERANCE
) -> list[str]:
    """Failure strings for metrics scoring under ``1 - tolerance``."""
    scores = baseline_scores(rounds, baseline)
    if not scores:
        return ["baseline holds no comparable throughput metrics"]
    floor = 1.0 - tolerance
    return [
        f"{name}: {score:.2f}x of baseline after normalizing out each "
        f"round's runner speed (floor {floor:.2f})"
        for name, score in scores.items()
        if score < floor
    ]


# -- grid -----------------------------------------------------------------------


def measure_grid(workers: int, max_instances: int | None, seed: int) -> dict:
    """The grid serial, pooled cold then steady, cache cold then warm."""
    from repro.engine.core import EngineConfig, ExperimentEngine
    from repro.sql.analysis_cache import clear_caches

    def run_grid(repeats: int = 1, **options) -> tuple[list[float], dict, object]:
        """Time the grid *repeats* times on one new engine, memo cleared:
        (seconds per repeat, the last grids, the engine)."""
        clear_caches()
        engine = ExperimentEngine(
            EngineConfig(seed=seed, max_instances=max_instances, **options)
        )
        seconds = []
        try:
            for _ in range(repeats):
                started = time.perf_counter()
                grids = {task: engine.run_task(task) for task in GRID_TASKS}
                seconds.append(time.perf_counter() - started)
        finally:
            engine.close()
        return seconds, grids, engine

    def answers(grids: dict) -> dict:
        return {
            (task, model, workload): cell.answers
            for task, grid in grids.items()
            for (model, workload), cell in grid.items()
        }

    (serial_s,), serial, _ = run_grid()
    # Cold pays pool start-up and the worker-side dataset builds; steady
    # is chunked evaluation alone, datasets in memory.
    (cold_s, steady_s), pooled, _ = run_grid(repeats=2, workers=workers)
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-harness-cache-"))
    try:
        (cache_cold_s,), _, _ = run_grid(cache_dir=cache_dir)
        (cache_warm_s,), cached, warm = run_grid(cache_dir=cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "tasks": list(GRID_TASKS),
        "max_instances": max_instances,
        "workers": workers,
        "cells": sum(len(grid) for grid in serial.values()),
        "instances": sum(
            cell.instance_count for grid in serial.values() for cell in grid.values()
        ),
        "serial_s": round(serial_s, 3),
        "parallel_cold_s": round(cold_s, 3),
        "parallel_steady_s": round(steady_s, 3),
        "cache_cold_s": round(cache_cold_s, 3),
        "cache_warm_s": round(cache_warm_s, 4),
        "identical": answers(pooled) == answers(serial),
        "cache_identical": answers(cached) == answers(serial),
        "cache_hit_cells": warm.cached_cells,
        "cache_recomputed_cells": warm.computed_cells,
        "cache_stats": warm.cache.stats.as_dict(),
    }


# -- dispatcher and resilience ----------------------------------------------------


def measure_dispatcher(
    levels: tuple[int, ...] = (1, 4, 8),
    requests: int = 400,
    latency_s: float = 0.002,
) -> dict:
    """Dispatcher throughput at several ``--max-concurrency`` levels.

    The fake backend's async sleep stands in for network round-trip
    time, so requests/second shows how much per-request latency the
    bounded concurrency hides: ideal scaling is linear in the level.
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
        started = time.perf_counter()
        responses = dispatcher.run_sync(batch)
        elapsed = time.perf_counter() - started
        if len(responses) != requests:
            raise RuntimeError(f"dispatcher returned {len(responses)}/{requests}")
        throughput[str(level)] = {
            "seconds": round(elapsed, 4),
            "rps": round(requests / elapsed, 1),
        }
    return {
        "requests": requests,
        "simulated_latency_s": latency_s,
        "by_max_concurrency": throughput,
    }


def measure_resilience(seed: int) -> dict:
    """Journal overhead and the interrupt → resume round-trip cost.

    Runs one 5-cell grid (``syntax_error`` x all models over a small
    synthetic workload) through the real CLI unjournalled
    (``--no-record``), journalled, interrupted after 2 committed cells
    by a chaos SIGTERM, and resumed.  The resumed metrics must equal
    the uninterrupted run's.
    """
    import contextlib
    import io

    from repro.cli import main as cli_main
    from repro.lifecycle import EXIT_INTERRUPTED
    from repro.reporting.run_record import RunRecordStore

    spec = "synthetic:setops:n=8"
    base = Path(tempfile.mkdtemp(prefix="repro-harness-resilience-"))

    def timed_cli(argv: list[str]) -> tuple[float, int]:
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
        return time.perf_counter() - started, code

    def timed_run(label: str, *extra: str) -> tuple[float, int]:
        root = base / label
        return timed_cli(
            [
                "--seed", str(seed),
                "run", "syntax_error",
                "--workload", spec,
                "--max-instances", "8",
                "--cache-dir", str(root / "cache"),
                "--runs-dir", str(root / "runs"),
                *extra,
            ]
        )

    def metrics_of(label: str) -> dict:
        record = RunRecordStore(base / label / "runs").latest()
        return {(c.model, c.task, c.workload): dict(c.metrics) for c in record.cells}

    def expect(code: int, wanted: int, what: str) -> None:
        if code != wanted:
            raise RuntimeError(f"{what} exited {code}, expected {wanted}")

    try:
        # Discarded warm-up: the first grid in a process pays the
        # analysis-cache misses, which would bias the comparison.
        timed_run("warmup", "--no-record")
        no_journal_s, code = timed_run("plain", "--no-record")
        expect(code, 0, "unjournalled run")
        journal_s, code = timed_run("journalled")
        expect(code, 0, "journalled run")
        interrupted_s, code = timed_run("resumed", "--chaos", "sigterm:after-cells=2")
        expect(code, EXIT_INTERRUPTED, "interrupted run")
        runs_dir = base / "resumed" / "runs"
        (manifest,) = runs_dir.glob("*/journal/manifest.json")
        resume_s, code = timed_cli(
            ["run", "--resume", manifest.parent.parent.name, "--runs-dir", str(runs_dir)]
        )
        expect(code, 0, "resume")
        record = RunRecordStore(runs_dir).latest()
        identical = metrics_of("resumed") == metrics_of("journalled")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return {
        "grid": f"syntax_error x all models over {spec}",
        "cells": len(record.cells),
        "no_journal_s": round(no_journal_s, 3),
        "journal_s": round(journal_s, 3),
        "journal_overhead_pct": round((journal_s - no_journal_s) / no_journal_s * 100, 1),
        "interrupted_s": round(interrupted_s, 3),
        "resume_s": round(resume_s, 3),
        "resume_cached_cells": record.cached_cells,
        "resume_computed_cells": record.computed_cells,
        "resume_round_trip_overhead_pct": round(
            (interrupted_s + resume_s - journal_s) / journal_s * 100, 1
        ),
        "resume_identical": identical,
    }


# -- streaming ------------------------------------------------------------------------


def _own_peak_rss_mb() -> float:
    """Peak RSS of this process image, in MB.

    Not ``ru_maxrss``: Linux carries it across ``exec``, so a process
    started by a large parent reads at least the parent's RSS at fork.
    ``VmHWM`` belongs to this image alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:  # no procfs
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stream_point(n: int, workers: int, seed: int) -> dict:
    """One streamed cell (gpt4 x syntax_error) of *n* instances, here.

    Peak RSS is the larger of this process's and its queue workers',
    the number that would OOM a container.  It means something only in
    a process that did no larger work before: run it through
    :func:`in_fresh_process`.
    """
    from repro.engine.core import EngineConfig, ExperimentEngine
    from repro.llm.profiles import MODEL_PROFILES

    profile = next(p for p in MODEL_PROFILES if p.name == "gpt4")
    started = time.perf_counter()
    config = EngineConfig(
        seed=seed, workers=workers, chunk_size=STREAM_CHUNK_SIZE, max_instances=n
    )
    with ExperimentEngine(config, (profile,)) as engine:
        result = engine.run_cell("gpt4", "syntax_error", f"synthetic:default:n={n}")
        stats = engine.stream_stats()
    seconds = time.perf_counter() - started
    own_mb = _own_peak_rss_mb()
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "n": n,
        "workers": workers,
        "instances": result.instance_count,
        "chunks": stats["chunks"],
        "seconds": round(seconds, 3),
        "instances_per_s": round(result.instance_count / seconds, 1),
        "maxrss_self_mb": round(own_mb, 1),
        "maxrss_children_mb": round(children_mb, 1),
        "maxrss_mb": round(max(own_mb, children_mb), 1),
        "workers_used": stats["workers_used"],
    }


def measure_streaming(points: tuple[int, ...], seed: int) -> dict:
    """The instances-vs-RSS-vs-wall-time curve of the streamed path."""
    measured = [in_fresh_process(stream_point, n, 1, seed) for n in sorted(points)]
    top = [point["maxrss_mb"] for point in measured[-3:]]
    ratio = round(max(top) / min(top), 3)
    return {
        "task": "syntax_error",
        "model": "gpt4",
        "workload_pattern": "synthetic:default:n=<n>",
        "chunk_size": STREAM_CHUNK_SIZE,
        "points": measured,
        "rss_flat_ratio": ratio,
        "rss_flat": ratio <= RSS_FLAT_RATIO,
    }


def rss_budget_mb(committed: dict) -> tuple[float, str]:
    """The streamed-RSS budget of ``--check``, and where it came from."""
    for point in committed.get("streaming", {}).get("points", ()):
        if point["n"] == RSS_GATE_POINT:
            return (
                point["maxrss_mb"] * RSS_BUDGET_FACTOR,
                f"{RSS_BUDGET_FACTOR}x the committed {point['maxrss_mb']:.1f} MB",
            )
    return RSS_FALLBACK_BUDGET_MB, "fallback: no committed n=100,000 point"


def check_streaming(seed: int, committed: dict) -> tuple[dict, list[str]]:
    """The n=100k RSS gate and the 2-worker scale smoke."""
    budget, source = rss_budget_mb(committed)
    gate = in_fresh_process(stream_point, RSS_GATE_POINT, 1, seed)
    smoke = in_fresh_process(stream_point, SCALE_SMOKE_POINT, SCALE_SMOKE_WORKERS, seed)
    failures = [
        f"streamed n={point['n']:,} peak RSS {point['maxrss_mb']:.1f} MB exceeds "
        f"the {budget:.1f} MB budget: the chunked path no longer bounds memory"
        for point in (gate, smoke)
        if point["maxrss_mb"] > budget
    ]
    if smoke["instances"] != SCALE_SMOKE_POINT:
        failures.append(
            f"scale smoke streamed {smoke['instances']} of {SCALE_SMOKE_POINT} instances"
        )
    # One CPU may legitimately serialise the queue onto one worker.
    if usable_cpus() > 1 and smoke["workers_used"] < SCALE_SMOKE_WORKERS:
        failures.append(
            f"scale smoke used {smoke['workers_used']} worker process(es) on "
            f"{usable_cpus()} CPUs: the work queue is not distributing chunks"
        )
    section = {"rss_budget_mb": round(budget, 1), "rss_budget_source": source}
    return {**section, "gate": gate, "scale_smoke": smoke}, failures


# -- runs -----------------------------------------------------------------------------


def integrity_failures(results: dict) -> list[str]:
    """Failures either kind of run reports: wrong numbers, not slow ones."""
    throughput, grid = results["throughput"], results["grid"]
    failures = []
    if not throughput["raw_counters_advance"]:
        failures.append(
            "raw counters did not advance after clear_caches(): raw lexer "
            "and parser numbers may be served from the memo"
        )
    if not throughput["corpus"]["rewrite_chains"]:
        failures.append(
            "rewrite measurement applied no chains: the corpus or the "
            "opportunity seeders are broken"
        )
    if not grid["identical"]:
        failures.append("pooled grid answers differ from the serial ones")
    if not grid["cache_identical"]:
        failures.append("cached grid answers differ from the serial ones")
    if grid["cache_recomputed_cells"]:
        failures.append(
            f"{grid['cache_recomputed_cells']} cell(s) recomputed on a warm cache"
        )
    return failures


def check_failures(results: dict, committed: dict) -> list[str]:
    """The ``--check`` gates beyond :func:`integrity_failures`."""
    throughput, grid = results["throughput"], results["grid"]
    failures = check_against_baseline(
        throughput["rounds"], committed.get("throughput", {}).get("median", {})
    )
    if grid["cache_warm_s"] > CHECK_MAX_WARM_GRID_S:
        failures.append(
            f"warm-cache grid took {grid['cache_warm_s']:.2f}s "
            f"(limit {CHECK_MAX_WARM_GRID_S}s)"
        )
    parse_rate = throughput["median"]["parser.raw_texts_per_s"]
    if parse_rate < CHECK_MIN_PARSE_TEXTS_PER_S:
        failures.append(
            f"parser.raw_texts_per_s {parse_rate:.0f} under the "
            f"{CHECK_MIN_PARSE_TEXTS_PER_S:.0f} floor"
        )
    return failures


def print_results(results: dict, committed: dict | None = None) -> None:
    host = results["host"]
    print(
        f"host            : {host['cpus_available']}/{host['cpu_count']} CPUs, "
        f"Python {host['python']} on {host['machine']}, load {host['loadavg']}"
    )
    throughput = results["throughput"]
    corpus = throughput["corpus"]
    print(
        f"throughput      : {throughput['runs']} run(s) x {ROUNDS} rounds over "
        f"{corpus['texts']} texts, {corpus['rewrite_queries']} rewrite queries, "
        f"{corpus['generated_queries']} generated queries"
    )
    baseline = (committed or {}).get("throughput", {}).get("median", {})
    scores = baseline_scores(throughput["rounds"], baseline)
    for name in BASELINE_METRICS:
        line = f"  {name:<26}: {throughput['median'][name]:>12,.1f}/s"
        if name in scores:
            line += f"  (baseline {baseline[name]:,.1f}/s, score {scores[name]:.2f})"
        print(line)
    grid = results["grid"]
    print(
        f"grid            : {grid['cells']} cells, {grid['instances']} instances, "
        f"serial {grid['serial_s']:.3f}s, {grid['workers']} workers cold "
        f"{grid['parallel_cold_s']:.3f}s / steady {grid['parallel_steady_s']:.3f}s, "
        f"cache cold {grid['cache_cold_s']:.3f}s / warm {grid['cache_warm_s']:.4f}s "
        f"(identical: {grid['identical'] and grid['cache_identical']})"
    )
    if "dispatcher" in results:
        dispatcher = results["dispatcher"]
        rendered = ", ".join(
            f"c={level}: {stats['rps']} rps"
            for level, stats in dispatcher["by_max_concurrency"].items()
        )
        print(f"dispatcher      : {dispatcher['requests']} requests, {rendered}")
    if "resilience" in results:
        resilience = results["resilience"]
        print(
            f"resilience      : journal overhead {resilience['journal_overhead_pct']}%, "
            f"interrupt+resume {resilience['resume_round_trip_overhead_pct']}% "
            f"(identical: {resilience['resume_identical']})"
        )
    streaming = results["streaming"]
    points = streaming.get("points") or [streaming["gate"], streaming["scale_smoke"]]
    for point in points:
        print(
            f"stream n={point['n']:>9,} : {point['seconds']:>8.3f}s on "
            f"{point['workers_used']} worker(s), peak RSS {point['maxrss_mb']:.1f} MB"
        )
    if "rss_flat_ratio" in streaming:
        print(f"rss flat ratio  : {streaming['rss_flat_ratio']}")
    else:
        print(
            f"rss budget      : {streaming['rss_budget_mb']} MB "
            f"({streaming['rss_budget_source']})"
        )


def run_full(workers: int, seed: int, points: tuple[int, ...], out: Path) -> int:
    results = {
        "host": host_fingerprint(),
        "seed": seed,
        "throughput": measure_throughput_runs(BASELINE_RUNS),
        "grid": measure_grid(workers, None, seed),
        "dispatcher": measure_dispatcher(),
        "resilience": measure_resilience(seed),
        "streaming": measure_streaming(points, seed),
    }
    out.write_text(json.dumps(results, indent=2) + "\n")
    print_results(results)
    print(f"wrote {out}")
    failures = integrity_failures(results)
    if not results["resilience"]["resume_identical"]:
        failures.append("resumed metrics differ from the uninterrupted run's")
    if not results["streaming"]["rss_flat"]:
        failures.append(
            "streamed peak RSS is not flat: ratio "
            f"{results['streaming']['rss_flat_ratio']} > {RSS_FLAT_RATIO}"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def run_check(workers: int, seed: int) -> int:
    committed = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() else {}
    results = {
        "host": host_fingerprint(),
        "throughput": measure_throughput_runs(1),
        "grid": measure_grid(workers, CHECK_MAX_INSTANCES, seed),
    }
    results["streaming"], stream_failures = check_streaming(seed, committed)
    print_results(results, committed)
    failures = (
        integrity_failures(results)
        + check_failures(results, committed)
        + stream_failures
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"check           : ok ({len(BASELINE_METRICS)} throughputs within "
            f"{BASELINE_TOLERANCE:.0%} of baseline, floors, identity, RSS budget, "
            "scale smoke)"
        )
    return 1 if failures else 0


def _points(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: measure the gated sections, compare them with the "
        "committed JSON, write nothing",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the grid, resilience and streaming sections "
        "(throughput always times seed 0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=usable_cpus(),
        help="worker processes of the pooled grid (default: usable CPUs)",
    )
    parser.add_argument(
        "--stream-points",
        type=_points,
        default=STREAM_POINTS,
        help="comma-separated instance counts of a full run's streaming curve",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=BENCH_JSON,
        help="where a full run writes its JSON (default: the committed file)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.check:
        return run_check(args.workers, args.seed)
    return run_full(args.workers, args.seed, args.stream_points, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
