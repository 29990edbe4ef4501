"""Evaluation-as-a-service: a stdlib-only async HTTP API over the engine.

``repro serve`` binds :class:`EvalServer`: an ``asyncio.start_server``
HTTP/1.1 endpoint that accepts grid submissions, enqueues them on the
durable :class:`~repro.server.jobs.JobStore`, and executes them through
:mod:`repro.execution` — literally the same prepare/journal/execute
path as ``repro run``, so cache keys, RunRecords and resume semantics
are shared verbatim with the CLI.

Endpoints::

    POST   /v1/runs               submit a grid (dedups by fingerprint)
    GET    /v1/runs               list jobs
    GET    /v1/runs/{id}          job state + progress events (polling)
    GET    /v1/runs/{id}/events   the same progress as an SSE stream
    GET    /v1/runs/{id}/report   regenerate + serve the report bundle
    DELETE /v1/runs/{id}          cancel (queued: immediately; running:
                                  drains the in-flight cell first)
    GET    /v1/cache/{key}        inspect one cell-cache entry
    GET    /healthz               liveness + queue/stat counters

Multi-tenant concerns ride existing machinery: per-client rate limits
are dispatcher :class:`TokenBucket`\\ s in non-blocking mode (429 +
``Retry-After``), and graceful SIGTERM drains the in-flight cell via
the PR-8 interrupt latch, requeues running jobs with their run ids,
and lets a restarted server resume them byte-identically.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro.lifecycle.layout import (
    DEFAULT_CACHE_DIR,
    DEFAULT_JOBS_DIR,
    DEFAULT_REPORTS_DIR,
    DEFAULT_RUNS_DIR,
)
from repro.server.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobError,
    JobStore,
)

#: Poll interval for SSE streaming and drain waits (seconds).
_POLL_SECONDS = 0.05

#: A cell cache key: a sha256 hex digest (see :func:`repro.engine.cache.cell_key`).
_CELL_KEY = re.compile(r"[0-9a-f]{64}")

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServerConfig:
    """Everything one :class:`EvalServer` needs to run."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``EvalServer.port``.
    port: int = 0
    max_concurrent_jobs: int = 1
    jobs_dir: Path = DEFAULT_JOBS_DIR
    runs_dir: Path = DEFAULT_RUNS_DIR
    cache_dir: Path = DEFAULT_CACHE_DIR
    reports_dir: Path = DEFAULT_REPORTS_DIR
    #: Per-client request rate (None = unlimited) and burst allowance.
    rate_limit_rps: Optional[float] = None
    rate_limit_burst: Optional[float] = None
    #: Injectable clock for the rate limiter (tests drive virtual time).
    clock: Callable[[], float] = time.monotonic


@dataclass
class _JobRuntime:
    """In-memory, per-process state of one job's execution."""

    interrupt: object = None
    events: list[dict] = field(default_factory=list)
    cancel_requested: bool = False


class EvalServer:
    """The evaluation service: HTTP front, durable queue, engine back."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = JobStore(config.jobs_dir)
        self.stats = {
            "jobs_executed": 0,
            "cells_computed": 0,
            "cells_cached": 0,
            "dedup_hits": 0,
            "rate_limited": 0,
        }
        self._runtime: dict[str, _JobRuntime] = {}
        self._runtime_lock = threading.Lock()
        self._buckets: dict[str, object] = {}
        self._active: set[str] = set()
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, config.max_concurrent_jobs),
            thread_name_prefix="repro-job",
        )
        self._stopped: Optional[asyncio.Event] = None
        self.shutdown_signal: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        """Bind the socket, recover orphaned jobs, start dispatching."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        for job in self.store.recover():
            self._post_event(
                job.job_id,
                "recovered",
                {"state": JOB_QUEUED, "run_id": job.run_id},
            )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._pump()

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` completes."""
        assert self._stopped is not None
        await self._stopped.wait()

    async def shutdown(self, signal_name: str = "SIGTERM") -> None:
        """Graceful drain: stop accepting, finish in-flight, requeue.

        Running jobs get their interrupt latch triggered; the engine
        drains the in-flight cell at its next checkpoint, the executor
        thread requeues the job with its run id, and a restarted server
        resumes it from the journal.  Queued jobs simply stay queued on
        disk.  Idempotent: repeated signals during the drain no-op.
        """
        if self._draining:
            return
        self._draining = True
        self.shutdown_signal = signal_name
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        with self._runtime_lock:
            for job_id in list(self._active):
                runtime = self._runtime.get(job_id)
                if runtime is not None and runtime.interrupt is not None:
                    runtime.interrupt.trigger(signal_name)
        while self._active:
            await asyncio.sleep(_POLL_SECONDS)
        self._executor.shutdown(wait=True)
        if self._stopped is not None:
            self._stopped.set()

    # -- job scheduling ----------------------------------------------------

    def _pump(self) -> None:
        """Claim queued jobs while executor slots are free (loop thread)."""
        if self._draining:
            return
        while len(self._active) < self.config.max_concurrent_jobs:
            job = self.store.claim_next()
            if job is None:
                return
            self._active.add(job.job_id)
            self._post_event(
                job.job_id, "started", {"attempt": job.attempts}
            )
            assert self._loop is not None
            future = self._loop.run_in_executor(
                self._executor, self._run_job_safe, job
            )
            future.add_done_callback(
                lambda _f, job_id=job.job_id: self._job_finished(job_id)
            )

    def _job_finished(self, job_id: str) -> None:
        self._active.discard(job_id)
        if not self._draining:
            self._pump()

    def _runtime_for(self, job_id: str) -> _JobRuntime:
        with self._runtime_lock:
            runtime = self._runtime.get(job_id)
            if runtime is None:
                runtime = self._runtime[job_id] = _JobRuntime()
            return runtime

    def _post_event(self, job_id: str, event: str, data: dict) -> None:
        """Append one progress event (callable from any thread)."""
        runtime = self._runtime_for(job_id)
        with self._runtime_lock:
            runtime.events.append(
                {"seq": len(runtime.events), "event": event, "data": data}
            )

    def _events_since(self, job_id: str, since: int) -> list[dict]:
        runtime = self._runtime_for(job_id)
        with self._runtime_lock:
            return list(runtime.events[since:])

    def _run_job_safe(self, job) -> None:
        try:
            self._run_job(job)
        except Exception as exc:  # noqa: BLE001 - job must reach a state
            try:
                self.store.transition(
                    job.job_id,
                    JOB_FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                )
            except JobError:
                pass
            self._post_event(
                job.job_id,
                "failed",
                {"error": f"{type(exc).__name__}: {exc}"},
            )

    def _run_job(self, job) -> None:
        """Execute one claimed job (executor thread).

        Runs through :mod:`repro.execution` end to end — the same
        prepare/journal/execute code as ``repro run`` — with the
        journal begun (or resumed) under the server's runs dir and the
        interrupt latch exposed for graceful drain / cancellation.
        """
        from repro import execution
        from repro.lifecycle import GracefulInterrupt

        job_id = job.job_id
        runtime = self._runtime_for(job_id)
        # Poll-only in a worker thread: install() cannot (and must not)
        # touch signal handlers here; shutdown() triggers it directly.
        interrupt = GracefulInterrupt()
        runtime.interrupt = interrupt
        try:
            if job.run_id:
                journal, prepared = execution.prepare_resume(
                    self.config.runs_dir,
                    job.run_id,
                    origin="service",
                    client_id=job.client_id,
                )
                self._post_event(
                    job_id, "info", {"message": prepared.resume_banner}
                )
            else:
                request = execution.request_from_payload(
                    job.request,
                    cache_dir=self.config.cache_dir,
                    runs_dir=self.config.runs_dir,
                    origin="service",
                    client_id=job.client_id,
                )
                prepared = execution.prepare_run(request)
                journal = execution.begin_journal(
                    prepared, self.config.runs_dir
                )
                # Persisted before evaluation starts: a crash between
                # here and completion leaves enough to resume.
                self.store.update(job_id, run_id=journal.run_id)
        except execution.RunRequestError as error:
            self.store.transition(job_id, JOB_FAILED, error=str(error))
            self._post_event(job_id, "failed", {"error": str(error)})
            return
        outcome = execution.execute_prepared(
            prepared,
            journal,
            interrupt=interrupt,
            emit=lambda text: self._post_event(
                job_id, "text", {"text": text}
            ),
            info=lambda message: self._post_event(
                job_id, "info", {"message": message}
            ),
            on_cell_commit=lambda engine: self._post_event(
                job_id,
                "cell",
                {
                    "computed": engine.computed_cells,
                    "cached": engine.cached_cells,
                },
            ),
        )
        self.stats["jobs_executed"] += 1
        self.stats["cells_computed"] += outcome.computed_cells
        self.stats["cells_cached"] += outcome.cached_cells
        if outcome.status == "completed":
            self.store.transition(
                job_id,
                JOB_DONE,
                run_id=outcome.run_id or job.run_id,
                record_path=outcome.record_path or "",
            )
            self._post_event(
                job_id, "done", {"run_id": outcome.run_id}
            )
        elif outcome.status == "interrupted":
            if runtime.cancel_requested:
                self.store.transition(
                    job_id, JOB_CANCELLED, error=outcome.message
                )
                self._post_event(job_id, "cancelled", {})
            else:
                # Graceful drain: back to queued with the run id kept,
                # so the next owner resumes instead of recomputing.
                self.store.transition(job_id, JOB_QUEUED)
                self._post_event(
                    job_id, "requeued", {"run_id": journal.run_id}
                )
        else:
            self.store.transition(
                job_id, JOB_FAILED, error=outcome.message
            )
            self._post_event(job_id, "failed", {"error": outcome.message})

    # -- rate limiting -----------------------------------------------------

    def _admit(self, client_id: str) -> tuple[bool, float]:
        """Per-client token bucket in non-blocking (429) mode."""
        if self.config.rate_limit_rps is None:
            return True, 0.0
        from repro.llm.backends.dispatch import TokenBucket

        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(
                self.config.rate_limit_rps,
                self.config.rate_limit_burst,
                clock=self.config.clock,
            )
            self._buckets[client_id] = bucket
        granted, retry_after = bucket.try_acquire()
        if not granted:
            self.stats["rate_limited"] += 1
        return granted, retry_after

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is not None:
                method, target, headers, body = parsed
                await self._route(writer, method, target, headers, body)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except Exception as exc:  # noqa: BLE001 - never kill the server
            try:
                self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:  # noqa: BLE001
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length") or 0)
        if length:
            body = await reader.readexactly(length)
        return method, target, headers, body

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for key, value in (extra_headers or {}).items():
            lines.append(f"{key}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)

    def _client_id(self, headers: dict[str, str], writer) -> str:
        explicit = headers.get("x-client-id", "").strip()
        if explicit:
            return explicit
        peer = writer.get_extra_info("peername")
        return peer[0] if peer else "unknown"

    # -- routing -----------------------------------------------------------

    async def _route(self, writer, method, target, headers, body) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        client_id = self._client_id(headers, writer)

        if path == "/healthz":
            if method != "GET":
                return self._respond(writer, 405, {"error": "GET only"})
            return self._respond(
                writer,
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "jobs": self.store.counts(),
                    "stats": dict(self.stats),
                },
            )

        granted, retry_after = self._admit(client_id)
        if not granted:
            return self._respond(
                writer,
                429,
                {
                    "error": f"rate limit exceeded for client {client_id!r}",
                    "retry_after": round(retry_after, 3),
                },
                {"Retry-After": f"{max(retry_after, 0.0):.3f}"},
            )

        if path == "/v1/runs" and method == "POST":
            return self._submit(writer, body, client_id)
        if path == "/v1/runs" and method == "GET":
            return self._respond(
                writer,
                200,
                {"jobs": [job.as_dict() for job in self.store.jobs()]},
            )
        if path.startswith("/v1/runs/"):
            rest = path[len("/v1/runs/") :]
            job_id, _, action = rest.partition("/")
            try:
                job = self.store.get(job_id)
            except JobError as error:
                return self._respond(writer, 404, {"error": str(error)})
            if not action and method == "GET":
                since = int(query.get("since", ["0"])[0] or 0)
                payload = job.as_dict()
                payload["events"] = self._events_since(job.job_id, since)
                return self._respond(writer, 200, payload)
            if not action and method == "DELETE":
                return self._cancel(writer, job)
            if action == "events" and method == "GET":
                since = int(query.get("since", ["0"])[0] or 0)
                return await self._stream_events(writer, job.job_id, since)
            if action == "report" and method == "GET":
                return await self._report(writer, job)
            return self._respond(
                writer, 405, {"error": f"unsupported {method} {path}"}
            )
        if path.startswith("/v1/cache/") and method == "GET":
            return self._cache_entry(writer, path[len("/v1/cache/") :])
        return self._respond(writer, 404, {"error": f"no route {path}"})

    # -- handlers ----------------------------------------------------------

    def _submit(self, writer, body: bytes, client_id: str) -> None:
        from repro import execution

        if self._draining:
            return self._respond(
                writer, 503, {"error": "server is draining"}
            )
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return self._respond(
                writer, 400, {"error": f"invalid JSON body: {error}"}
            )
        try:
            request = execution.request_from_payload(
                payload,
                cache_dir=self.config.cache_dir,
                runs_dir=self.config.runs_dir,
                origin="service",
                client_id=client_id,
            )
            prepared = execution.prepare_run(request)
        except execution.RunRequestError as error:
            return self._respond(writer, 400, {"error": str(error)})
        job, created = self.store.submit(
            prepared.fingerprint(), payload, client_id=client_id
        )
        if created:
            self._pump()
        else:
            self.stats["dedup_hits"] += 1
        response = job.as_dict()
        response["deduped"] = not created
        return self._respond(writer, 202 if created else 200, response)

    def _cancel(self, writer, job) -> None:
        if job.state == JOB_QUEUED:
            updated = self.store.transition(
                job.job_id, JOB_CANCELLED, error="cancelled by client"
            )
            self._post_event(job.job_id, "cancelled", {})
            return self._respond(writer, 200, updated.as_dict())
        if job.state == JOB_RUNNING:
            runtime = self._runtime_for(job.job_id)
            runtime.cancel_requested = True
            if runtime.interrupt is not None:
                runtime.interrupt.trigger("SIGINT")
            return self._respond(
                writer, 202, {"job_id": job.job_id, "state": "cancelling"}
            )
        return self._respond(
            writer,
            409,
            {"error": f"job {job.job_id} is {job.state}; cannot cancel"},
        )

    async def _stream_events(self, writer, job_id: str, since: int) -> None:
        """Server-sent events: replay history, then follow live."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        cursor = since
        while True:
            for event in self._events_since(job_id, cursor):
                frame = (
                    f"id: {event['seq']}\n"
                    f"event: {event['event']}\n"
                    f"data: {json.dumps(event['data'], sort_keys=True)}\n\n"
                )
                writer.write(frame.encode("utf-8"))
                cursor = event["seq"] + 1
            await writer.drain()
            try:
                job = self.store.get(job_id)
            except JobError:
                break
            if job.terminal and not self._events_since(job_id, cursor):
                final = (
                    f"event: end\n"
                    f"data: {json.dumps({'state': job.state})}\n\n"
                )
                writer.write(final.encode("utf-8"))
                await writer.drain()
                break
            await asyncio.sleep(_POLL_SECONDS)

    async def _report(self, writer, job) -> None:
        if job.state != JOB_DONE or not job.run_id:
            return self._respond(
                writer,
                409,
                {"error": f"job {job.job_id} is {job.state}; no report yet"},
            )
        assert self._loop is not None
        try:
            payload = await self._loop.run_in_executor(
                None, self._build_report, job.run_id
            )
        except Exception as exc:  # noqa: BLE001 - surfaced as HTTP error
            return self._respond(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        return self._respond(writer, 200, payload)

    def _build_report(self, run_id: str) -> dict:
        """Regenerate the ``repro report`` bundle for one finished run.

        Same semantics as the CLI: cells re-read through the engine
        cache under the run's own backend — zero model invocations on a
        warm cache.
        """
        from repro import execution
        from repro.reporting.run_record import RunRecordStore

        stored = RunRecordStore(self.config.runs_dir).load(run_id)
        bundle, record, engine = execution.regenerate_report(
            stored,
            cache_dir=self.config.cache_dir,
            out_dir=self.config.reports_dir,
        )
        self.stats["cells_computed"] += engine.computed_cells
        self.stats["cells_cached"] += engine.cached_cells
        return {
            "run_id": record.run_id,
            "cached_cells": engine.cached_cells,
            "computed_cells": engine.computed_cells,
            "markdown": bundle.markdown.read_text(encoding="utf-8"),
            "paths": {
                "markdown": str(bundle.markdown),
                "json": str(bundle.json_path),
                "html_index": str(bundle.html_index),
            },
        }

    def _cache_entry(self, writer, key: str) -> None:
        """Serve the manifest of one committed cell entry.

        The key comes straight from the URL, so anything but a cell key
        (64 lowercase hex characters) is refused before it can name a
        path.
        """
        from repro.engine.cache import ResultCache

        if not _CELL_KEY.fullmatch(key):
            return self._respond(
                writer,
                400,
                {"error": f"malformed cache key {key!r}: expected 64 lowercase hex digits"},
            )
        manifest = ResultCache(self.config.cache_dir).get_cell_manifest(key)
        if manifest is None:
            return self._respond(writer, 404, {"error": f"no cache entry {key!r}"})
        return self._respond(writer, 200, {"key": key, "manifest": manifest})
