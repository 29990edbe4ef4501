"""Command-line interface: ``python -m repro`` / ``repro-sql``.

Subcommands:

* ``list`` — show all reproducible artifacts;
* ``run <artifact> [...]`` — run one or more artifact reproductions
  (``all`` runs everything) and print their reports.  ``--workers N``
  runs instance chunks on N worker processes (byte-identical output);
  cells are cached under ``--cache-dir`` unless ``--no-cache`` is given.
  Every run that evaluates grid cells also persists a RunRecord under
  ``--runs-dir`` (``results/runs/`` by default; ``--no-record`` skips)
  plus a write-ahead journal, so an interrupted run (Ctrl-C, SIGTERM,
  crash — exit code 4) continues with ``run --resume RUN_ID`` to
  byte-identical metrics.  ``--on-cell-error skip|degrade`` completes a
  grid around failing cells, ``--request-timeout`` / ``--cell-deadline``
  bound a hung endpoint, ``--breaker-threshold`` tunes the backend
  circuit breaker, and ``--chaos PLAN`` arms the fault-injection
  harness (see docs/RESILIENCE.md);
* ``workloads`` — print the Table 2 overview for all four workloads;
* ``rewrite list|apply`` — inspect the semantics-preserving rewrite
  catalog or apply it to a SQL statement (``--name``, ``--families``,
  ``--steps``, ``--schema``);
* ``backends list`` — show the registered model backends.  ``run``
  selects one with ``--backend NAME`` (plus ``--backend-opt KEY=VALUE``
  for endpoint options, ``--max-concurrency`` / ``--rps`` for the
  dispatcher, and ``--fixtures-dir`` / ``--record-fixtures`` for the
  record/replay transport);
* ``cache info|clear`` — inspect or wipe the on-disk result cache;
* ``runs list|show`` — browse persisted RunRecords;
* ``report [RUN_ID]`` — render the Markdown + HTML + JSON report bundle
  for a stored run (latest by default), re-reading cells from the
  engine cache — zero model invocations when the cache is warm;
* ``report --compare RUN_A RUN_B`` — align two stored runs and flag
  metric regressions (exit code 3 when any are found);
* ``export`` — write the labeled benchmark datasets to JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.registry import ARTIFACT_IDS, EXPERIMENTS
from repro.lifecycle.layout import (
    DEFAULT_CACHE_DIR,
    DEFAULT_JOBS_DIR,
    DEFAULT_REPORTS_DIR,
    DEFAULT_RUNS_DIR,
)

#: Errors a record load can surface: missing/ambiguous ids (KeyError),
#: unreadable files (OSError), corrupt JSON or version mismatches
#: (ValueError, which json.JSONDecodeError subclasses).
_RECORD_ERRORS = (KeyError, OSError, ValueError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sql",
        description=(
            "Reproduction of 'Evaluating SQL Understanding in Large "
            "Language Models' (EDBT 2025)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="generation seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible artifacts")

    run_parser = subparsers.add_parser(
        "run", help="run artifact reproductions or a workload grid"
    )
    run_parser.add_argument(
        "artifacts",
        nargs="*",
        help=(
            f"artifact ids ({', '.join(ARTIFACT_IDS)}) or 'all'; with "
            "--workload: task names to restrict the grid to"
        ),
    )
    run_parser.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help=(
            "evaluate a task grid over one workload instead of artifacts: "
            "a paper workload (sdss, sqlshare, join_order, spider) or a "
            "synthetic spec such as synthetic:default or synthetic:joins:n=1000"
        ),
    )
    run_parser.add_argument(
        "--strata",
        default=None,
        metavar="S1,S2,...",
        help="restrict a synthetic --workload to these strata",
    )
    run_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to also write one .txt report per artifact",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for cell evaluation (1 = in-process)",
    )
    run_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stream cells in N-instance chunks (bounded memory); 0 forces "
            "the materialised path; default: auto — large synthetic "
            "workloads stream, everything else materialises"
        ),
    )
    run_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        help="directory for the on-disk result cache",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell, neither reading nor writing the cache",
    )
    run_parser.add_argument(
        "--runs-dir",
        type=Path,
        default=DEFAULT_RUNS_DIR,
        help="directory where the run's RunRecord is persisted",
    )
    run_parser.add_argument(
        "--no-record",
        action="store_true",
        help="do not persist a RunRecord for this run",
    )
    run_parser.add_argument(
        "--max-instances",
        type=int,
        default=None,
        help="cap instances per dataset (smoke runs, fixture recording)",
    )
    run_parser.add_argument(
        "--backend",
        default="simulated",
        help="model backend (see 'repro backends list')",
    )
    run_parser.add_argument(
        "--backend-opt",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="backend option (repeatable), e.g. base_url=http://host/v1",
    )
    run_parser.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="dispatcher in-flight request bound (default 8)",
    )
    run_parser.add_argument(
        "--rps",
        type=float,
        default=None,
        help="dispatcher sustained requests/second (default: unthrottled)",
    )
    run_parser.add_argument(
        "--fixtures-dir",
        type=Path,
        default=None,
        help="fixtures directory for the replay backend",
    )
    run_parser.add_argument(
        "--record-fixtures",
        action="store_true",
        help="replay backend records through its inner backend",
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help=(
            "resume an interrupted run from its journal under --runs-dir; "
            "the grid, backend and seed come from the journal manifest, so "
            "no other grid flags are allowed"
        ),
    )
    run_parser.add_argument(
        "--on-cell-error",
        choices=("fail", "skip", "degrade"),
        default="fail",
        help=(
            "policy when one grid cell cannot be evaluated: fail aborts the "
            "run (default), skip/degrade record a structured failure and "
            "continue with the remaining cells"
        ),
    )
    run_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-request wall-clock timeout (HTTP transport + dispatcher "
            "safety net); default: backend default (60s for openai_compat)"
        ),
    )
    run_parser.add_argument(
        "--cell-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per grid cell (default: unbounded)",
    )
    run_parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        metavar="N",
        help=(
            "circuit breaker trips after N consecutive backend failures "
            "(0 disables; default: auto — on for openai_compat, off for "
            "the in-process backends)"
        ),
    )
    run_parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help=(
            "arm a fault-injection plan against this run, e.g. "
            "'flaky:rate=0.3:kind=429;sigterm:after-cells=2' "
            "(see docs/RESILIENCE.md)"
        ),
    )

    subparsers.add_parser("workloads", help="print the Table 2 overview")

    rewrite_parser = subparsers.add_parser(
        "rewrite",
        help="inspect or apply the semantics-preserving rewrite catalog",
    )
    rewrite_sub = rewrite_parser.add_subparsers(dest="action", required=True)
    rewrite_sub.add_parser("list", help="show the rewrite catalog")
    apply_parser = rewrite_sub.add_parser(
        "apply", help="apply catalog rewrites to a SQL statement"
    )
    apply_parser.add_argument("sql", help="the SELECT statement to rewrite")
    apply_parser.add_argument(
        "--name",
        default=None,
        help="apply one specific transform by catalog name",
    )
    apply_parser.add_argument(
        "--families",
        default=None,
        metavar="F1+F2",
        help="restrict to these '+'-separated transform families",
    )
    apply_parser.add_argument(
        "--steps",
        type=int,
        default=1,
        help="maximum chain length (default 1)",
    )
    apply_parser.add_argument(
        "--schema",
        default=None,
        choices=("sdss", "imdb"),
        help="resolve columns against this schema (enables "
        "schema-dependent transforms such as star expansion)",
    )

    backends_parser = subparsers.add_parser(
        "backends", help="list the registered model backends"
    )
    backends_parser.add_argument("action", choices=("list",))

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or wipe the on-disk result cache"
    )
    cache_parser.add_argument("action", choices=("info", "clear"))
    cache_parser.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR, help="cache directory"
    )

    runs_parser = subparsers.add_parser(
        "runs", help="browse persisted run records"
    )
    runs_parser.add_argument("action", choices=("list", "show"))
    runs_parser.add_argument(
        "run_id", nargs="?", default=None, help="run id (for 'show')"
    )
    runs_parser.add_argument(
        "--runs-dir", type=Path, default=DEFAULT_RUNS_DIR, help="records directory"
    )

    report_parser = subparsers.add_parser(
        "report",
        help="render a Markdown+HTML+JSON report bundle from a stored run",
    )
    report_parser.add_argument(
        "run_id",
        nargs="?",
        default=None,
        help="run id to report on (default: the latest record)",
    )
    report_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        default=None,
        help="compare two stored runs and flag metric regressions",
    )
    report_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="regression threshold for --compare (default 0.005)",
    )
    report_parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_REPORTS_DIR,
        help="directory to write the report bundle under",
    )
    report_parser.add_argument(
        "--runs-dir", type=Path, default=DEFAULT_RUNS_DIR, help="records directory"
    )
    report_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        help="engine cache to re-read cells from",
    )
    report_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes if any cells must be recomputed",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the evaluation service (HTTP API over a durable job queue)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 binds an ephemeral port, printed on stderr)",
    )
    serve_parser.add_argument(
        "--max-concurrent-jobs",
        type=int,
        default=1,
        help="evaluation jobs executed in parallel",
    )
    serve_parser.add_argument(
        "--jobs-dir",
        type=Path,
        default=DEFAULT_JOBS_DIR,
        help="durable job-queue directory",
    )
    serve_parser.add_argument(
        "--runs-dir", type=Path, default=DEFAULT_RUNS_DIR, help="records directory"
    )
    serve_parser.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR, help="cache directory"
    )
    serve_parser.add_argument(
        "--reports-dir",
        type=Path,
        default=DEFAULT_REPORTS_DIR,
        help="directory report bundles are written under",
    )
    serve_parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client requests per second (default: unlimited)",
    )
    serve_parser.add_argument(
        "--rate-limit-burst",
        type=float,
        default=None,
        help="per-client burst allowance (default: max(rate, 1))",
    )

    export_parser = subparsers.add_parser(
        "export", help="export the labeled benchmark datasets to JSON"
    )
    export_parser.add_argument(
        "--out", type=Path, default=Path("benchmark_data"), help="output directory"
    )
    export_parser.add_argument(
        "--tasks", nargs="*", default=None, help="restrict to these tasks"
    )
    return parser


def _cmd_run(args) -> int:
    """Run (or resume) a grid through the shared execution layer.

    All validation, journaling and evaluation semantics live in
    :mod:`repro.execution` — the same code path the evaluation service
    (`repro serve`) executes jobs through — so the CLI only maps flags
    to a :class:`~repro.execution.RunRequest` and exit codes back out.
    """
    from repro import execution

    if args.resume is not None:
        try:
            journal, prepared = execution.prepare_resume(
                args.runs_dir,
                args.resume,
                artifacts=tuple(args.artifacts),
                workload=args.workload,
                strata=args.strata,
                chaos=args.chaos,
                record=not args.no_record,
            )
        except execution.RunRequestError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(prepared.resume_banner, file=sys.stderr)
    else:
        try:
            prepared = execution.prepare_run(execution.request_from_args(args))
        except execution.RunRequestError as error:
            print(str(error), file=sys.stderr)
            return 2
        journal = (
            None
            if args.no_record
            else execution.begin_journal(prepared, args.runs_dir)
        )
    outcome = execution.execute_prepared(prepared, journal, out_dir=args.out)
    return outcome.exit_code


def _cmd_rewrite(args) -> int:
    from repro.evalfw.report import render_table
    from repro.rewrite import CATALOG, catalog_fingerprint

    if args.action == "list":
        rows = [
            {
                "name": transform.name,
                "family": transform.family,
                "description": transform.description,
            }
            for transform in CATALOG
        ]
        print(render_table(rows, "Semantics-preserving rewrite catalog"))
        print(f"catalog fingerprint: {catalog_fingerprint()[:12]}")
        return 0

    from repro.rewrite import apply_rewrite, apply_rewrite_chain
    from repro.sql import try_parse
    from repro.util import derive_rng

    if args.steps < 1:
        print(f"--steps must be >= 1, got {args.steps}", file=sys.stderr)
        return 2
    if args.name is not None and args.families is not None:
        print("--name conflicts with --families", file=sys.stderr)
        return 2
    statement = try_parse(args.sql)
    if statement is None:
        print(f"could not parse SQL: {args.sql!r}", file=sys.stderr)
        return 2
    schema = None
    if args.schema is not None:
        from repro.workloads.synthetic import build_schema

        schema = build_schema(args.schema)
    families = (
        tuple(part for part in args.families.split("+") if part)
        if args.families is not None
        else None
    )
    rng = derive_rng("rewrite-cli", args.seed)
    try:
        if args.name is not None:
            applied = apply_rewrite(
                statement, schema, rng, name=args.name, original_text=args.sql
            )
            if applied is None:
                print(
                    f"no applicable site for {args.name!r} in this statement",
                    file=sys.stderr,
                )
                return 1
            print(applied.text)
            print(f"-- {applied.name}: {applied.detail}", file=sys.stderr)
            return 0
        chain = apply_rewrite_chain(
            statement,
            schema,
            rng,
            max_steps=args.steps,
            families=families,
            original_text=args.sql,
        )
    except (KeyError, ValueError) as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    if chain is None:
        print("no catalog transform applies to this statement", file=sys.stderr)
        return 1
    print(chain.text)
    for step in chain.steps:
        print(f"-- {step.name}: {step.detail}", file=sys.stderr)
    return 0


def _cmd_runs(args) -> int:
    from repro.evalfw.report import render_table
    from repro.reporting.run_record import RunRecordStore

    store = RunRecordStore(args.runs_dir)
    if args.action == "list":
        try:
            records = store.records()
        except _RECORD_ERRORS as error:
            print(f"unreadable run record: {error}", file=sys.stderr)
            return 2
        if not records:
            print(f"no run records under {store.root}")
            return 0
        rows = [
            {
                "run_id": record.run_id,
                "created": record.created_at,
                "origin": record.origin,
                "seed": record.seed,
                "workers": record.workers,
                "artifacts": len(record.artifacts),
                "cells": len(record.cells),
                "cached": record.cached_cells,
                "computed": record.computed_cells,
                "seconds": record.total_seconds,
            }
            for record in records
        ]
        print(render_table(rows, f"Run records in {store.root}"))
        return 0
    if args.run_id is None:
        print("runs show requires a run id", file=sys.stderr)
        return 2
    try:
        record = store.load(args.run_id)
    except _RECORD_ERRORS as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"run_id   : {record.run_id}")
    print(f"created  : {record.created_at}")
    origin_line = record.origin
    if record.client_id:
        origin_line += f" (client: {record.client_id})"
    print(f"origin   : {origin_line}")
    print(f"seed     : {record.seed}  workers: {record.workers}")
    print(f"source   : {record.source_fingerprint[:12]}")
    backend_line = record.backend
    if record.backend_options:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(record.backend_options.items())
        )
        backend_line += f" ({rendered})"
    print(f"backend  : {backend_line}")
    print(f"cache    : {record.cache_dir or '(disabled)'}")
    print(f"artifacts: {', '.join(record.artifacts) or '(none)'}")
    print(
        f"cells    : {len(record.cells)} "
        f"({record.cached_cells} cached, {record.computed_cells} computed)"
    )
    if record.on_cell_error != "fail" or record.failures:
        print(
            f"policy   : --on-cell-error {record.on_cell_error} "
            f"({len(record.failures)} cell(s) absorbed)"
        )
    from repro.lifecycle import JournalError, RunJournal

    try:
        journal = RunJournal.load(args.runs_dir, record.run_id)
    except JournalError:
        journal = None
    if journal is not None:
        states = journal.states()
        rendered = ", ".join(
            f"{state}={n}" for state, n in sorted(states.items())
        )
        print(f"journal  : {rendered or '(no journalled cells)'}")
    if record.failures:
        rows = [
            {
                "model": failure.model,
                "task": failure.task,
                "workload": failure.workload,
                "error": failure.error_class,
                "attempts": failure.attempts,
            }
            for failure in record.failures
        ]
        print()
        print(render_table(rows, "Degraded / skipped cells"))
    if record.cells:
        rows = [
            {
                "model": cell.model_display,
                "task": cell.task,
                "workload": cell.workload,
                "n": cell.instances,
                "F1": cell.metrics.get("binary.f1", "-"),
                "source": "cache" if cell.cached else "computed",
            }
            for cell in record.cells
        ]
        print()
        print(render_table(rows, "Evaluated cells"))
    return 0


def _cmd_report(args) -> int:
    from repro.reporting.compare import (
        DEFAULT_THRESHOLD,
        compare_runs,
        render_comparison,
    )
    from repro.reporting.run_record import RunRecordStore

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2

    store = RunRecordStore(args.runs_dir)

    if args.compare is not None:
        try:
            before = store.load(args.compare[0])
            after = store.load(args.compare[1])
        except _RECORD_ERRORS as error:
            print(str(error), file=sys.stderr)
            return 2
        threshold = (
            args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
        )
        comparison = compare_runs(before, after, threshold=threshold)
        print(render_comparison(comparison))
        return 3 if comparison.has_regressions else 0

    if args.run_id is not None:
        try:
            stored = store.load(args.run_id)
        except _RECORD_ERRORS as error:
            print(str(error), file=sys.stderr)
            return 2
    else:
        try:
            stored = store.latest()
        except _RECORD_ERRORS as error:
            print(f"unreadable run record: {error}", file=sys.stderr)
            return 2
        if stored is None:
            print(
                f"no run records under {store.root}; run "
                "'python -m repro run all' first",
                file=sys.stderr,
            )
            return 2

    from repro import execution

    bundle, _record, engine = execution.regenerate_report(
        stored,
        cache_dir=args.cache_dir,
        out_dir=args.out,
        workers=args.workers,
    )
    print(
        f"[report] cells: {engine.cached_cells} cached, "
        f"{engine.computed_cells} computed",
        file=sys.stderr,
    )
    for path in (bundle.markdown, bundle.json_path, bundle.html_index):
        print(path)
    return 0


def _cmd_serve(args) -> int:
    """Run the evaluation service until SIGTERM/SIGINT drains it."""
    import asyncio
    import signal

    from repro.server import EvalServer, ServerConfig

    if args.max_concurrent_jobs < 1:
        print(
            f"--max-concurrent-jobs must be >= 1, got {args.max_concurrent_jobs}",
            file=sys.stderr,
        )
        return 2
    if args.rate_limit is not None and args.rate_limit <= 0:
        print(
            f"--rate-limit must be > 0, got {args.rate_limit}", file=sys.stderr
        )
        return 2

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_concurrent_jobs=args.max_concurrent_jobs,
        jobs_dir=args.jobs_dir,
        runs_dir=args.runs_dir,
        cache_dir=args.cache_dir,
        reports_dir=args.reports_dir,
        rate_limit_rps=args.rate_limit,
        rate_limit_burst=args.rate_limit_burst,
    )

    async def _serve() -> None:
        server = EvalServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig,
                lambda name=sig.name: asyncio.ensure_future(
                    server.shutdown(name)
                ),
            )
        # The tests (and scripts) discover an ephemeral --port 0 from
        # this line, so its shape is part of the service's contract.
        print(f"[serve] listening on {server.url}", file=sys.stderr)
        await server.serve_until_shutdown()
        counts = server.store.counts()
        print(
            f"[serve] drained on {server.shutdown_signal}: "
            f"{counts.get('queued', 0)} queued, "
            f"{counts.get('done', 0)} done, "
            f"{counts.get('failed', 0)} failed",
            file=sys.stderr,
        )

    try:
        asyncio.run(_serve())
    except OSError as error:
        print(f"serve failed: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for artifact, (description, _) in EXPERIMENTS.items():
            print(f"{artifact:8s} {description}")
        return 0
    if args.command == "workloads":
        from repro.evalfw.report import render_table
        from repro.workloads import load_workload, workload_stats

        rows = [
            workload_stats(load_workload(name, args.seed)).as_row()
            for name in ("sdss", "sqlshare", "join_order", "spider")
        ]
        print(render_table(rows, "Table 2: Workload statistics overview"))
        return 0
    if args.command == "export":
        from repro.tasks.export import export_benchmark

        written = export_benchmark(args.out, seed=args.seed, tasks=args.tasks)
        for path in written:
            print(path)
        print(f"exported {len(written)} dataset files to {args.out}")
        return 0
    if args.command == "backends":
        from repro.llm.backends import describe_backends

        width = max(len(name) for name, _ in describe_backends())
        for name, description in describe_backends():
            print(f"{name:{width}s}  {description}")
        return 0
    if args.command == "cache":
        from repro.engine.cache import ResultCache

        cache = ResultCache(args.cache_dir)
        if args.action == "clear":
            removed = cache.clear()
            print(f"removed {removed} cached entries from {args.cache_dir}")
        else:
            print(f"cache dir : {args.cache_dir}")
            print(f"cells     : {len(cache.entries())}")
            print(f"datasets  : {len(cache.dataset_entries())}")
            print(f"workloads : {len(cache.workload_entries())}")
            print(f"size      : {cache.size_bytes()} bytes")
        return 0
    if args.command == "rewrite":
        return _cmd_rewrite(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
