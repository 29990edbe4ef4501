"""Hot-path performance benchmark (``repro bench``).

Measures the three hot paths the engine's wall time is made of and
writes the numbers to ``benchmarks/BENCH_hotpaths.json`` so a reviewer
can see what a change shipped with:

* **lexer / parser throughput** — raw (uncached) tokenize and parse
  rates over the combined query corpus of the three SQL-log workloads,
  plus the memoized rates when the analysis cache is available;
* **rewrite throughput** — catalog transform chains (clone, seed,
  apply, render) per second over a fixed synthetic corpus, the hot
  path of the rewrite-pair generator;
* **dataset build** — serial construction of every (task, workload)
  dataset of the paper grid;
* **grid wall time** — the full grid (all models x all tasks x their
  workloads) cold in-process, cold through a worker pool with an empty
  cache, and warm from the on-disk cache; parallel answers are checked
  byte-identical to the serial ones.

The JSON keeps a ``before`` and an ``after`` section (``--phase``)
so a perf change records its own speedup.  ``--quick`` caps the grid
for CI smoke use; ``--check`` fails loudly when a quick run regresses
past generous (3x) thresholds — a guard against silent hot-path
regressions that stays robust to CI hardware noise.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

#: Grid evaluated by the benchmark: every primary task over its
#: paper workloads (imported lazily to keep module import cheap).
BENCH_TASKS: tuple[str, ...] = (
    "syntax_error",
    "miss_token",
    "query_equiv",
    "performance_pred",
    "query_exp",
)

#: The three SQL-log workloads whose queries form the lexer/parser corpus.
CORPUS_WORKLOADS: tuple[str, ...] = ("sdss", "sqlshare", "join_order")

#: Instance cap used by ``--quick`` (CI smoke mode).
QUICK_MAX_INSTANCES = 25

#: Fixed-size corpus for the rewrite-throughput measurement.  Like the
#: lexer/parser corpus it does not scale with ``--quick``, so a quick
#: CI run stays comparable to the committed full-run baseline.
REWRITE_CORPUS_WORKLOAD = "synthetic:rewrite:n=40"

#: Chain depth used by the rewrite measurement (the hard-positive
#: depth the pair generator uses).
REWRITE_CHAIN_STEPS = 3

#: ``--check`` thresholds for quick mode.  Values are ~3x worse than
#: what a cold CI container measures with the shipped code, so they trip
#: on real hot-path regressions (an accidentally quadratic lexer, a
#: cache that stopped hitting) but not on hardware noise.
QUICK_MAX_WARM_GRID_S = 6.0
QUICK_MIN_PARSE_TEXTS_PER_S = 150.0


def _default_out() -> Path:
    return Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_hotpaths.json"


def _reset_process_caches() -> None:
    """Drop memoized parse/analysis state so each phase measures cold.

    On code bases without the analysis cache this is a no-op, which
    keeps the benchmark runnable on a pre-cache checkout for ``before``
    numbers.
    """
    try:
        from repro.sql import analysis_cache
    except ImportError:
        return
    analysis_cache.clear_caches()


def _verify_raw_work(texts: list[str]) -> Optional[bool]:
    """Prove "raw" numbers cannot be silently served from the memo layer.

    After a full cache clear, one sweep through the cached entry points
    must advance the raw-work counters by at least one unit per
    *distinct* text (real corpora repeat texts; repeats are legitimate
    memo hits) — if it does not, the clear is broken (or the counters
    are), and every "raw" throughput number in this file would be a
    lie.  Returns None on code bases without the analysis cache.
    """
    try:
        from repro.sql import analysis_cache
    except ImportError:
        return None
    distinct = len(set(texts))
    analysis_cache.clear_caches()
    for text in texts:
        analysis_cache.tokenize_cached(text)
        analysis_cache.try_parse_cached(text)
    counts = analysis_cache.counters()
    return counts.raw_tokenizes >= distinct and counts.raw_parses >= distinct


def _corpus(seed: int) -> list[str]:
    from repro.workloads import load_workload

    texts: list[str] = []
    for name in CORPUS_WORKLOADS:
        texts.extend(q.text for q in load_workload(name, seed).queries)
    return texts


def _best_of(repeats: int, fn, setup=None) -> float:
    """Best wall time of *repeats* runs; *setup* runs untimed before each.

    Raw (cold) measurements pass ``setup=_reset_process_caches`` so that
    every repetition starts from an empty memo layer — without it, any
    delegation from the "raw" functions into the process-wide caches
    would silently turn repetitions 2..n into warm-path measurements.
    """
    best = float("inf")
    for _ in range(repeats):
        if setup is not None:
            setup()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _warm_loops(corpus_size: int, target_lookups: int = 300_000) -> int:
    """How many corpus sweeps a warm-path timing needs to be measurable.

    One memoized sweep of the ~700-text corpus finishes in under 100µs —
    timer-granularity territory, where a single scheduler hiccup swings
    the "measured" throughput several-fold (and with it, any baseline
    ratio computed from it).  Looping to ~300k lookups puts the timed
    region in the tens of milliseconds, where the number is stable even
    on a loaded single-CPU container.
    """
    return max(1, round(target_lookups / max(1, corpus_size)))


#: Repetitions for the warm (memoized) timings.  The timed region is
#: tens of milliseconds, so extra best-of repetitions are nearly free
#: and squeeze scheduler hiccups out of the baseline-gated numbers.
WARM_REPEATS = 5


def measure_lexer(texts: list[str], repeats: int = 3) -> dict:
    """Raw tokenize throughput (and memoized, when the cache exists)."""
    from repro.sql.lexer import tokenize

    total_tokens = sum(len(tokenize(text)) for text in texts)
    total_chars = sum(len(text) for text in texts)
    seconds = _best_of(
        repeats,
        lambda: [tokenize(text) for text in texts],
        setup=_reset_process_caches,
    )
    result = {
        "texts": len(texts),
        "tokens": total_tokens,
        "chars": total_chars,
        "raw_s": round(seconds, 4),
        "raw_tokens_per_s": round(total_tokens / seconds) if seconds else None,
        "raw_texts_per_s": round(len(texts) / seconds, 1) if seconds else None,
    }
    verified = _verify_raw_work(texts)
    if verified is not None:
        result["raw_counters_advance"] = verified
    try:
        from repro.sql.analysis_cache import tokenize_cached
    except ImportError:
        return result
    _reset_process_caches()
    for text in texts:  # populate
        tokenize_cached(text)
    loops = _warm_loops(len(texts))
    warm = _best_of(
        max(repeats, WARM_REPEATS),
        lambda: [tokenize_cached(text) for _ in range(loops) for text in texts],
    )
    result["cached_s"] = round(warm / loops, 6)
    result["cached_texts_per_s"] = (
        round(len(texts) * loops / warm, 1) if warm else None
    )
    return result


def measure_parser(texts: list[str], repeats: int = 3) -> dict:
    """Raw try_parse throughput (and memoized, when the cache exists)."""
    from repro.sql.parser import try_parse

    parsed = sum(1 for text in texts if try_parse(text) is not None)
    seconds = _best_of(
        repeats,
        lambda: [try_parse(text) for text in texts],
        setup=_reset_process_caches,
    )
    result = {
        "texts": len(texts),
        "parsed": parsed,
        "raw_s": round(seconds, 4),
        "raw_texts_per_s": round(len(texts) / seconds, 1) if seconds else None,
    }
    verified = _verify_raw_work(texts)
    if verified is not None:
        result["raw_counters_advance"] = verified
    try:
        from repro.sql.analysis_cache import try_parse_cached
    except ImportError:
        return result
    _reset_process_caches()
    for text in texts:
        try_parse_cached(text)
    loops = _warm_loops(len(texts))
    warm = _best_of(
        max(repeats, WARM_REPEATS),
        lambda: [try_parse_cached(text) for _ in range(loops) for text in texts],
    )
    result["cached_s"] = round(warm / loops, 6)
    result["cached_texts_per_s"] = (
        round(len(texts) * loops / warm, 1) if warm else None
    )
    return result


def measure_rewrite(seed: int, repeats: int = 3) -> dict:
    """Catalog transform throughput: rewrite chains applied per second.

    Times the full per-query pipeline the rewrite-pair generator runs —
    clone, opportunity seeding, chain application, rendering — so the
    number tracks what producing one rewritten query costs end to end.
    The per-query RNG is re-seeded deterministically, so every timed
    repetition performs identical work.
    """
    import random

    from repro.rewrite.catalog import apply_rewrite_chain
    from repro.rewrite.pairs import seed_rewrite_sites
    from repro.sql.nodes import clone
    from repro.workloads import load_workload

    workload = load_workload(REWRITE_CORPUS_WORKLOAD, seed)
    corpus = [(q, workload.schema_for(q)) for q in workload.select_queries()]

    def sweep() -> tuple[int, int]:
        chains = steps = 0
        for index, (query, schema) in enumerate(corpus):
            rng = random.Random(seed * 10_007 + index)
            base = clone(query.statement)
            seed_rewrite_sites(base, schema, rng)
            chain = apply_rewrite_chain(
                base, schema, rng, max_steps=REWRITE_CHAIN_STEPS
            )
            if chain is not None:
                chains += 1
                steps += len(chain.steps)
        return chains, steps

    chains, steps = sweep()
    seconds = _best_of(repeats, sweep)
    return {
        "queries": len(corpus),
        "chains": chains,
        "steps": steps,
        "raw_s": round(seconds, 4),
        "chains_per_s": round(chains / seconds, 1) if seconds else None,
        "rewrites_per_s": round(steps / seconds, 1) if seconds else None,
    }


def _grid_answers(grids: dict) -> dict:
    """Flatten grids to {(task, model, workload): answers} for identity checks."""
    return {
        (task, model, workload): cell.answers
        for task, grid in grids.items()
        for (model, workload), cell in grid.items()
    }


def _run_grid(runner, tasks: tuple[str, ...]) -> dict:
    return {task: runner.run_task(task) for task in tasks}


def measure_grid(
    workers: int,
    max_instances: Optional[int],
    seed: int,
    tasks: tuple[str, ...] = BENCH_TASKS,
) -> dict:
    """Serial cold vs parallel cold (empty cache) vs warm cache wall time."""
    import shutil
    import tempfile

    from repro.evalfw.runner import ExperimentRunner

    result: dict = {"tasks": list(tasks)}

    # Dataset build, measured on its own: the dominant cost of a cold run.
    _reset_process_caches()
    build_runner = ExperimentRunner(seed=seed, max_instances=max_instances)
    from repro.tasks.registry import TASK_WORKLOADS

    started = time.perf_counter()
    for task in tasks:
        for workload in TASK_WORKLOADS[task]:
            build_runner.dataset(task, workload)
    result["dataset_build_s"] = round(time.perf_counter() - started, 3)
    # Evaluation on the already-built datasets (the other half of "cold").
    started = time.perf_counter()
    serial_grids = _run_grid(build_runner, tasks)
    result["serial_eval_s"] = round(time.perf_counter() - started, 3)
    result["serial_cold_s"] = round(
        result["dataset_build_s"] + result["serial_eval_s"], 3
    )
    result["cells"] = sum(len(grid) for grid in serial_grids.values())
    result["instances"] = sum(
        len(cell.dataset)
        for grid in serial_grids.values()
        for cell in grid.values()
    )
    build_runner.close()
    reference = _grid_answers(serial_grids)

    # Cold parallel: worker pool + empty on-disk cache, like a first
    # `repro run all --workers N` on a fresh checkout.
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-hotpaths-"))
    try:
        _reset_process_caches()
        cold = ExperimentRunner(
            seed=seed,
            max_instances=max_instances,
            workers=workers,
            cache_dir=cache_dir,
        )
        try:
            started = time.perf_counter()
            parallel_grids = _run_grid(cold, tasks)
            result["parallel_cold_s"] = round(time.perf_counter() - started, 3)
        finally:
            cold.close()
        result["identical"] = _grid_answers(parallel_grids) == reference

        # Warm: every cell served from the cache, no model calls at all.
        _reset_process_caches()
        warm = ExperimentRunner(
            seed=seed,
            max_instances=max_instances,
            cache_dir=cache_dir,
        )
        try:
            started = time.perf_counter()
            warm_grids = _run_grid(warm, tasks)
            result["warm_s"] = round(time.perf_counter() - started, 4)
        finally:
            warm.close()
        result["warm_identical"] = _grid_answers(warm_grids) == reference
        result["warm_cached_cells"] = warm.engine.cached_cells
        result["warm_computed_cells"] = warm.engine.computed_cells
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def measure(
    workers: int = 4,
    max_instances: Optional[int] = None,
    seed: int = 0,
    tasks: tuple[str, ...] = BENCH_TASKS,
) -> dict:
    """Run the full hot-path measurement suite for one phase."""
    texts = _corpus(seed)
    measurements = {
        "lexer": measure_lexer(texts),
        "parser": measure_parser(texts),
        "rewrite": measure_rewrite(seed),
        "grid": measure_grid(workers, max_instances, seed, tasks),
    }
    return measurements


def _speedups(before: dict, after: dict) -> dict:
    """Before/after ratios for the headline numbers (higher = faster)."""

    def ratio(path: tuple[str, ...], invert: bool = False) -> Optional[float]:
        b, a = before, after
        for key in path:
            if not isinstance(b, dict) or not isinstance(a, dict):
                return None
            b, a = b.get(key), a.get(key)
        if not isinstance(b, (int, float)) or not isinstance(a, (int, float)):
            return None
        if invert:
            b, a = a, b
        return round(b / a, 2) if a else None

    return {
        "dataset_build": ratio(("grid", "dataset_build_s")),
        "serial_cold": ratio(("grid", "serial_cold_s")),
        "parallel_cold": ratio(("grid", "parallel_cold_s")),
        "warm": ratio(("grid", "warm_s")),
        "lexer_raw_throughput": ratio(
            ("lexer", "raw_tokens_per_s"), invert=True
        ),
        "parser_raw_throughput": ratio(
            ("parser", "raw_texts_per_s"), invert=True
        ),
        "rewrite_throughput": ratio(
            ("rewrite", "rewrites_per_s"), invert=True
        ),
    }


#: Metrics compared by :func:`check_against_baseline`.  Only corpus
#: throughput rates qualify: they are independent of ``--quick``'s grid
#: scaling (the lex/parse corpus is always the full three SQL-log
#: workloads, the rewrite corpus a fixed synthetic workload), so a
#: quick CI run is comparable to the committed full-run baseline.
BASELINE_METRICS: tuple[tuple[str, str], ...] = (
    ("lexer", "raw_tokens_per_s"),
    ("lexer", "cached_texts_per_s"),
    ("parser", "raw_texts_per_s"),
    ("parser", "cached_texts_per_s"),
    ("rewrite", "rewrites_per_s"),
)

#: Allowed per-metric regression vs the baseline, after normalizing out
#: overall runner speed (see :func:`check_against_baseline`).
BASELINE_TOLERANCE = 0.2


def check_against_baseline(
    measurements: dict, baseline: dict, tolerance: float = BASELINE_TOLERANCE
) -> list[str]:
    """Ratio-based regression check vs a committed baseline measurement.

    CI runners are not the machine that recorded the baseline, so
    absolute comparisons are meaningless.  Instead, each throughput
    metric's now/baseline ratio is divided by the *median* ratio across
    all metrics: a uniformly slower (or faster) machine moves every
    ratio equally, normalizing to ~1.0, while a regression in one hot
    path drags only its own normalized ratio down.  A metric fails when
    its normalized ratio drops below ``1 - tolerance``.

    Returns a list of human-readable failure strings (empty = pass).
    """
    from statistics import median

    ratios: dict[str, float] = {}
    for section, key in BASELINE_METRICS:
        now = measurements.get(section, {}).get(key)
        base = baseline.get(section, {}).get(key)
        if (
            isinstance(now, (int, float))
            and isinstance(base, (int, float))
            and base > 0
        ):
            ratios[f"{section}.{key}"] = now / base
    if not ratios:
        return ["baseline holds no comparable throughput metrics"]
    speed = median(ratios.values())
    if speed <= 0:
        return [f"degenerate baseline ratios: {ratios}"]
    failures = []
    floor = 1.0 - tolerance
    for name, ratio in sorted(ratios.items()):
        normalized = ratio / speed
        if normalized < floor:
            failures.append(
                f"{name}: {ratio:.2f}x of baseline "
                f"({normalized:.2f}x after normalizing out runner speed "
                f"{speed:.2f}x; floor {floor:.2f})"
            )
    return failures


def run_bench(
    phase: str = "after",
    workers: int = 4,
    max_instances: Optional[int] = None,
    seed: int = 0,
    out: Optional[Path] = None,
    quick: bool = False,
    check: bool = False,
    check_baseline: bool = False,
) -> int:
    """Measure one phase, merge into the BENCH JSON, optionally check.

    Returns a process exit code (0 = ok, 1 = identity or threshold
    failure).
    """
    out = Path(out) if out is not None else _default_out()
    if quick and max_instances is None:
        max_instances = QUICK_MAX_INSTANCES

    payload: dict = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except ValueError:
            payload = {}
    # The committed "after" section is the baseline for --check-baseline;
    # capture it before this run's measurements overwrite the phase.
    baseline = payload.get("after", {})

    measurements = measure(workers, max_instances, seed)
    try:
        cpus_available: Optional[int] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus_available = None
    payload.update(
        {
            "workers": workers,
            "max_instances": max_instances,
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "cpus_available": cpus_available,
        }
    )
    payload[phase] = measurements
    if "before" in payload and "after" in payload:
        payload["speedup"] = _speedups(payload["before"], payload["after"])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    grid = measurements["grid"]
    print(f"corpus          : {measurements['lexer']['texts']} texts, "
          f"{measurements['lexer']['tokens']} tokens")
    print(f"lexer raw       : {measurements['lexer']['raw_s']:.3f}s "
          f"({measurements['lexer']['raw_tokens_per_s']} tokens/s)")
    print(f"parser raw      : {measurements['parser']['raw_s']:.3f}s "
          f"({measurements['parser']['raw_texts_per_s']} texts/s)")
    rewrite = measurements["rewrite"]
    print(f"rewrite chains  : {rewrite['raw_s']:.3f}s "
          f"({rewrite['rewrites_per_s']} rewrites/s over "
          f"{rewrite['queries']} queries)")
    print(f"dataset build   : {grid['dataset_build_s']:.3f}s")
    print(f"serial cold     : {grid['serial_cold_s']:.3f}s "
          f"({grid['cells']} cells, {grid['instances']} instances)")
    print(f"parallel cold   : {grid['parallel_cold_s']:.3f}s "
          f"(workers={workers}, identical={grid['identical']})")
    print(f"warm cache      : {grid['warm_s']:.4f}s "
          f"({grid['warm_cached_cells']} cached, "
          f"{grid['warm_computed_cells']} computed)")
    if "speedup" in payload:
        print(f"speedup         : {json.dumps(payload['speedup'])}")
    print(f"wrote {out}")

    code = 0
    if not grid["identical"] or not grid["warm_identical"]:
        print("FAIL: parallel/cached answers differ from serial", flush=True)
        code = 1
    for section in ("lexer", "parser"):
        if measurements[section].get("raw_counters_advance") is False:
            print(
                f"FAIL: {section} raw counters did not advance after "
                "clear_caches() — raw numbers may be cache-served"
            )
            code = 1
    if not measurements["rewrite"]["chains"]:
        print(
            "FAIL: rewrite benchmark applied no chains — the corpus or "
            "the opportunity seeders are broken"
        )
        code = 1
    if check_baseline:
        failures = check_against_baseline(measurements, baseline)
        if failures:
            for failure in failures:
                print(f"FAIL: baseline regression — {failure}")
            code = 1
        else:
            print(
                f"baseline check  : ok ({len(BASELINE_METRICS)} throughput "
                f"metrics within {BASELINE_TOLERANCE:.0%} after speed "
                "normalization)"
            )
    if check:
        parse_rate = measurements["parser"]["raw_texts_per_s"] or 0.0
        if grid["warm_s"] > QUICK_MAX_WARM_GRID_S:
            print(
                f"FAIL: warm-cache grid took {grid['warm_s']:.2f}s "
                f"(threshold {QUICK_MAX_WARM_GRID_S}s)"
            )
            code = 1
        if parse_rate < QUICK_MIN_PARSE_TEXTS_PER_S:
            print(
                f"FAIL: raw parse throughput {parse_rate:.0f} texts/s "
                f"(threshold {QUICK_MIN_PARSE_TEXTS_PER_S})"
            )
            code = 1
        if code == 0:
            print("check           : ok (thresholds are ~3x headroom)")
    return code
