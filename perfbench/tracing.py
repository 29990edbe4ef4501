"""Span tracing for the benchmark's traced runs, installed from outside.

:func:`install` wraps the public functions and methods of each layer of
``repro`` in place, so nothing under ``src/`` changes.  Every call of a
wrapped function records a span: its name, start, end, parent span and
run id.  Spans stay in memory; :meth:`Tracer.summary` turns them into
per-layer self times and counts, and :meth:`Tracer.dump` writes them out
when the traced process ends.

Self time is a span's duration minus the part its child spans cover.
Spans nest per thread (the service runs jobs and reports on executor
threads), so each thread keeps its own stack.

Some callers bind a function at import time (``engine.core`` does
``from repro.tasks.registry import build_dataset``), so wrapping the
defining module alone would miss them.  :func:`_rebind` replaces every
binding of the original object in every loaded ``repro`` module.  Calls
inside worker processes (the streamed path's queue workers) are not
visible: they show up as the parent's ``engine.stream.wait`` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Modules imported before patching, so every by-value binding of a
#: wrapped function already exists when :func:`_rebind` looks for it.
_PRELOAD = (
    "repro.cli",
    "repro.execution",
    "repro.engine.core",
    "repro.engine.streaming",
    "repro.engine.worker",
    "repro.equivalence.checker",
    "repro.equivalence.pairs",
    "repro.evalfw.accumulate",
    "repro.experiments.artifacts",
    "repro.reporting.bundle",
    "repro.server.app",
    "repro.tasks.streaming",
    "repro.workloads.streaming",
)

#: Span names, one per layer boundary; ``<name>_s`` is the layer's self
#: time in :meth:`Tracer.summary`.
SPAN_NAMES = (
    "workloads.load",
    "tasks.build_dataset",
    "equivalence.verdict",
    "data.sqlite_execute",
    "data.db_open",
    "sql.parse",
    "tasks.render",
    "llm.dispatch",
    "llm.backend",
    "tasks.extract",
    "engine.cache.get",
    "engine.cache.put",
    "engine.evaluate",
    "engine.stream.wait",
    "lifecycle.journal",
    "evalfw.metrics",
    "reporting.render",
    "reporting.record",
    "reporting.bundle",
    "experiments.run",
    "execution.prepare",
    "execution.execute",
    "execution.report",
)


class _Frame:
    __slots__ = ("index", "start", "child")

    def __init__(self, index: int, start: float) -> None:
        self.index = index
        self.start = start
        self.child = 0.0


class Tracer:
    """In-memory span store with per-thread nesting."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent index, run id, self seconds]``.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.run_id = ""
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1].index if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._local.run_id, 0.0])
        frame = _Frame(index, self.clock())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        span = self.spans[frame.index]
        span[1], span[2], span[5] = frame.start, end, duration - frame.child
        if stack:
            stack[-1].child += duration

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def set_run_id(self, run_id: str) -> str:
        """Tag this thread's next spans with *run_id*; returns the old id."""
        self._stack()
        previous, self._local.run_id = self._local.run_id, run_id
        return previous

    def summary(self) -> dict:
        """Self seconds per span name (``<name>_s``) plus the counters."""
        self_time: dict[str, float] = defaultdict(float)
        for name, _start, _end, _parent, _run, seconds in self.spans:
            self_time[name] += seconds
        out = {f"{name}_s": self_time.get(name, 0.0) for name in SPAN_NAMES}
        out["spans"] = len(self.spans)
        out["self_total_s"] = sum(self_time.values())
        out.update(self.counts)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "run_id", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class _TracedIterator:
    """Times each ``next()`` of a generator as one span."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.exit(frame)

    def close(self) -> None:
        closer = getattr(self._inner, "close", None)
        if closer is not None:
            closer()


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module binding of *original* at *replacement*."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _resolve(owner: str):
    """A module, or a class inside one (``pkg.module.Class``)."""
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module_name, _, attr = owner.rpartition(".")
        return getattr(importlib.import_module(module_name), attr)


def _patch(owner: str, attribute: str, make_wrapper) -> None:
    target = _resolve(owner)
    if isinstance(target, type):
        raw = target.__dict__[attribute]
        if isinstance(raw, classmethod):
            setattr(target, attribute, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(target, attribute, make_wrapper(raw))
        return
    original = getattr(target, attribute)
    _rebind(original, make_wrapper(original))


def install(tracer: Tracer | None = None) -> Tracer:
    """Wrap every layer boundary of ``repro`` and return the tracer."""
    tracer = tracer or Tracer()
    for module in _PRELOAD:
        importlib.import_module(module)

    def span(name: str, count: str | None = None, on_result=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if count is not None:
                    tracer.count(count)
                frame = tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if on_result is not None:
                    on_result(args, result)
                return result

            return wrapper

        return make

    def generator(name: str, count: str | None = None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if count is not None:
                    tracer.count(count)
                return _TracedIterator(tracer, name, fn(*args, **kwargs))

            return wrapper

        return make

    def with_run_id(name: str, run_id_of):
        def make(fn):
            traced = span(name)(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                previous = tracer.set_run_id(run_id_of(args, kwargs))
                try:
                    return traced(*args, **kwargs)
                finally:
                    tracer.set_run_id(previous)

            return wrapper

        return make

    def cache_get(args, result) -> None:
        tracer.count("engine.cache.hits" if result is not None else "engine.cache.misses")

    def extracted(args, result) -> None:
        tracer.count("tasks.answers_extracted", len(result))

    def dispatch(fn):
        @functools.wraps(fn)
        def wrapper(self, requests, *args, **kwargs):
            stats = self.stats
            failures, retries = stats.failures, stats.retries
            tracer.count("llm.dispatch_batches")
            tracer.count("llm.requests", len(requests))
            frame = tracer.enter("llm.dispatch")
            try:
                return fn(self, requests, *args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.count("llm.requests_failed", stats.failures - failures)
                tracer.count("llm.retries", stats.retries - retries)

        return wrapper

    _patch("repro.workloads", "load_workload", span("workloads.load", "workloads.loads"))
    _patch(
        "repro.workloads.streaming",
        "stream_workload",
        span("workloads.load", "workloads.loads"),
    )
    _patch("repro.workloads.streaming.WorkloadStream", "__iter__", generator("workloads.load"))
    _patch(
        "repro.tasks.registry",
        "build_dataset",
        span("tasks.build_dataset", "tasks.datasets_built"),
    )
    _patch(
        "repro.tasks.streaming",
        "iter_instance_chunks",
        generator("tasks.build_dataset", "tasks.datasets_built"),
    )
    _patch(
        "repro.equivalence.checker.EquivalenceChecker",
        "verdict",
        span("equivalence.verdict", "equivalence.verdicts"),
    )
    _patch(
        "repro.data.sqlite_backend.SqliteDatabase",
        "execute",
        span("data.sqlite_execute", "data.sqlite_executes"),
    )
    _patch(
        "repro.data.sqlite_backend.SqliteDatabase",
        "__init__",
        span("data.db_open", "data.db_opens"),
    )
    _patch("repro.sql.lexer", "tokenize", span("sql.parse"))
    _patch("repro.sql.parser.Parser", "__init__", span("sql.parse"))
    _patch("repro.sql.parser.Parser", "parse_statement", span("sql.parse"))
    _patch(
        "repro.tasks.registry",
        "build_request",
        span("tasks.render", "tasks.requests_rendered"),
    )
    _patch("repro.llm.backends.dispatch.AsyncDispatcher", "run_sync", dispatch)
    _patch(
        "repro.llm.backends.simulated.SimulatedBackend",
        "complete",
        span("llm.backend"),
    )
    _patch(
        "repro.tasks.registry",
        "answers_from_responses",
        span("tasks.extract", on_result=extracted),
    )
    for method in (
        "get",
        "get_dataset",
        "get_workload",
        "get_cell_manifest",
        "get_dataset_manifest",
    ):
        _patch(
            "repro.engine.cache.ResultCache",
            method,
            span("engine.cache.get", "engine.cache.gets", on_result=cache_get),
        )
    for method in ("iter_cell_segments", "iter_dataset_segments"):
        _patch("repro.engine.cache.ResultCache", method, generator("engine.cache.get"))
    for method in (
        "put",
        "put_dataset",
        "put_workload",
        "put_cell_segment",
        "put_dataset_segment",
        "commit_cell_segments",
        "commit_dataset_segments",
    ):
        _patch(
            "repro.engine.cache.ResultCache",
            method,
            span("engine.cache.put", "engine.cache.puts"),
        )
    for method in ("run_task", "run_cell"):
        _patch("repro.engine.core.ExperimentEngine", method, span("engine.evaluate"))
    _patch(
        "repro.engine.streaming.StreamingEvaluator",
        "evaluate_cell",
        span("engine.stream.wait"),
    )
    _patch(
        "repro.lifecycle.journal.RunJournal",
        "record",
        span("lifecycle.journal", "lifecycle.journal_writes"),
    )
    _patch(
        "repro.lifecycle.journal.RunJournal",
        "begin",
        span("lifecycle.journal", "lifecycle.journal_writes"),
    )
    for function in (
        "binary_metrics",
        "binary_metrics_from_counts",
        "weighted_metrics",
        "weighted_metrics_from_counts",
        "location_metrics",
        "location_metrics_from_counts",
    ):
        _patch("repro.evalfw.metrics", function, span("evalfw.metrics"))
    _patch("repro.evalfw.accumulate.CellAccumulator", "add_chunk", span("evalfw.metrics"))
    for function in ("render_table", "render_histogram", "render_matrix", "render_breakdown"):
        _patch("repro.evalfw.report", function, span("reporting.render"))
    _patch("repro.reporting.run_record", "record_from_engine", span("reporting.record"))
    _patch("repro.reporting.run_record.RunRecordStore", "save", span("reporting.record"))
    _patch("repro.reporting.bundle", "write_report_bundle", span("reporting.bundle"))
    _patch("repro.experiments.registry", "run_experiment", span("experiments.run"))
    _patch("repro.execution", "prepare_run", span("execution.prepare"))
    _patch(
        "repro.execution",
        "execute_prepared",
        with_run_id(
            "execution.execute",
            lambda args, kwargs: getattr(args[1], "run_id", "") if len(args) > 1 else "",
        ),
    )
    _patch(
        "repro.execution",
        "regenerate_report",
        with_run_id("execution.report", lambda args, kwargs: args[0].run_id),
    )
    return tracer
