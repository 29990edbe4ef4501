"""One benchmark sample, in a fresh interpreter.

``run.py`` starts this script once per sample, so every grid run pays
the same cold process costs a user's ``repro run`` pays (imports, empty
parse memo) and a traced sample cannot warm the next one.

    child.py grid OUT [--trace] [--report DIR] -- REPRO-ARGV...
        Run ``repro REPRO-ARGV`` (a ``run`` command) through the same
        calls as ``repro run``: ``prepare_run``, ``begin_journal``,
        ``execute_prepared``.  With ``--report``, then regenerate the
        run's report bundle from the warm cache, as ``repro report``
        does.  Writes timings, the record summary and (traced) the
        per-layer summary to OUT as JSON.

    child.py host OUT --trace -- JOBS RUNS CACHE REPORTS
        Host ``EvalServer`` on an ephemeral port with tracing installed,
        print ``[serve] listening on URL`` to stderr like ``repro serve``,
        and on SIGTERM drain, then write the per-layer summary to OUT.

Timestamps are ``time.monotonic()``, which is system-wide on Linux, so
the parent can subtract its own spawn time from them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def record_summary(record: dict) -> dict:
    """What the benchmark checks and counts in one RunRecord (as JSON).

    ``digest`` covers every cell's identity, size and metrics, so two
    runs of one grid agree on it exactly when their results agree.
    """
    cells = sorted(
        (
            cell["model"],
            cell["task"],
            cell["workload"],
            cell["instances"],
            cell["metrics"],
            cell["confusion"],
        )
        for cell in record["cells"]
    )
    digest = hashlib.sha256(
        json.dumps(cells, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "digest": digest,
        "cells": len(cells),
        "failures": len(record.get("failures", ())),
        "computed": sum(1 for cell in record["cells"] if not cell["cached"]),
        "cached": sum(1 for cell in record["cells"] if cell["cached"]),
        "answered": sum(
            cell["instances"] for cell in record["cells"] if not cell["cached"]
        ),
        "stream_chunks": record.get("stream_stats", {}).get("chunks", 0),
        "stream_redispatched": record.get("stream_stats", {}).get(
            "redispatched", 0
        ),
    }


def _dir_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _sql_counters() -> dict:
    from repro.sql.analysis_cache import counters

    return counters().as_dict()


def _sql_delta(before: dict, after: dict) -> dict:
    delta = {key: after[key] - before[key] for key in after}
    lookups = sum(
        delta[f"{table}_{kind}"]
        for table in ("tokenize", "parse", "analysis")
        for kind in ("hits", "misses")
    )
    hits = delta["tokenize_hits"] + delta["parse_hits"] + delta["analysis_hits"]
    return {
        "sql.parses": delta["raw_parses"],
        "sql.memo_hit_ratio": hits / lookups if lookups else 0.0,
    }


def grid(out: Path, trace: bool, report_dir: str | None, argv: list[str]) -> int:
    from repro import cli, execution
    from repro.reporting.run_record import RunRecordStore

    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    args = cli.build_parser().parse_args(argv)
    sql_before = _sql_counters()
    t_prepare = time.monotonic()
    prepared = execution.prepare_run(execution.request_from_args(args))
    t_ready = time.monotonic()
    journal = (
        None if args.no_record else execution.begin_journal(prepared, args.runs_dir)
    )
    outcome = execution.execute_prepared(
        prepared, journal, out_dir=args.out, info=lambda message: None
    )
    t_done = time.monotonic()
    result: dict = {
        "t_prepare": t_prepare,
        "t_ready": t_ready,
        "t_done": t_done,
        "status": outcome.status,
        "message": outcome.message,
        "computed_cells": outcome.computed_cells,
        "cached_cells": outcome.cached_cells,
    }
    if outcome.record_path:
        record = json.loads(Path(outcome.record_path).read_text(encoding="utf-8"))
        result["record"] = record_summary(record)
        if report_dir is not None and outcome.status == "completed":
            stored = RunRecordStore(args.runs_dir).load(outcome.run_id)
            execution.regenerate_report(
                stored, cache_dir=args.cache_dir, out_dir=Path(report_dir)
            )
    t_end = time.monotonic()
    result["t_end"] = t_end
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        layers = tracer.summary()
        layers.update(_sql_delta(sql_before, _sql_counters()))
        layers["engine.cache.bytes"] = (
            _dir_bytes(Path(args.cache_dir)) if Path(args.cache_dir).is_dir() else 0
        )
        result["layers"] = layers
        tracer.dump(out.with_suffix(".spans.jsonl"))
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def host(out: Path, dirs: list[str]) -> int:
    """Host ``EvalServer`` with tracing until SIGTERM (see module doc)."""
    import asyncio
    import signal

    import tracing

    tracer = tracing.install()
    from repro.server import EvalServer, ServerConfig

    jobs, runs, cache, reports = (Path(item) for item in dirs)
    config = ServerConfig(
        port=0, jobs_dir=jobs, runs_dir=runs, cache_dir=cache, reports_dir=reports
    )

    async def serve() -> None:
        server = EvalServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(
            signal.SIGTERM, lambda: asyncio.ensure_future(server.shutdown("SIGTERM"))
        )
        print(f"[serve] listening on {server.url}", file=sys.stderr, flush=True)
        await server.serve_until_shutdown()

    sql_before = _sql_counters()
    asyncio.run(serve())
    layers = tracer.summary()
    layers.update(_sql_delta(sql_before, _sql_counters()))
    layers["engine.cache.bytes"] = _dir_bytes(cache) if cache.is_dir() else 0
    tracer.dump(out.with_suffix(".spans.jsonl"))
    out.write_text(
        json.dumps({"layers": layers, "peak_rss_mb": peak_rss_mb()}), encoding="utf-8"
    )
    return 0


def main(argv: list[str]) -> int:
    mode, out, *rest = argv
    split = rest.index("--")
    options, tail = rest[:split], rest[split + 1 :]
    if mode == "grid":
        report_dir = (
            options[options.index("--report") + 1] if "--report" in options else None
        )
        return grid(Path(out), "--trace" in options, report_dir, tail)
    if mode == "host":
        return host(Path(out), tail)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
