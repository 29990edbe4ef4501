"""The repo benchmark: three workloads through the entry points users call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/METRICS.md`` for why each was chosen):

* ``paper-cold``: ``repro run all`` with the simulated backend,
  ``--workers 1``, recording on, fresh cache and runs dir per sample.
* ``synthetic-stream``: ``repro run --workload synthetic:default:n=40``
  over the five paper tasks, forced onto the chunked path with
  ``--chunk-size``, ``--workers`` = usable CPUs, fresh cache.
* ``serve``: ``repro serve`` driven by a closed loop of one client per
  usable CPU; each client submits a one-table grid (``table6``) with a
  fresh seed, follows its SSE stream to the ``end`` frame, then fetches
  the report.

Every grid sample runs in a fresh interpreter (``perfbench/child.py``)
and is checked against the digest recorded for its seed in
``perfbench/digests.json``; every ``serve`` job must reach ``done`` and
one sampled job must match the same grid run through ``repro run``.
Any wrong output makes the command exit 1.

``--trace 0`` prints the end-to-end metrics (untraced).  ``--trace 1``
alternates untraced and traced samples and prints per-layer self time
and counts, ``trace.unattributed_s`` and ``trace.overhead_s``; it also
asserts that the counts which must repeat for one seed do.

The last stdout line is the result object; the line before it is a
detail object with the host fingerprint and per-workload extras.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("paper-cold", "synthetic-stream", "serve")

#: Grid inputs cycle through this many seeds, each with a recorded
#: digest: sample ``i`` of a run with ``--seed N`` uses seed
#: ``(N + i) % DIGEST_SEEDS``.
DIGEST_SEEDS = 8

SYNTHETIC_SPEC = "synthetic:default:n=40"
SYNTHETIC_CHUNK = 200
PRIMARY_TASKS = ("syntax_error", "miss_token", "query_equiv", "performance_pred", "query_exp")
SERVE_ARTIFACT = "table6"
#: Jobs per traced ``serve`` phase; fixed, so its counts repeat exactly.
TRACE_JOBS = 8
#: Fewest samples a run reports, however long one takes.
MIN_SAMPLES = 3
#: setup_s samples for ``serve`` (server spawns until it listens).
SERVE_SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "latency_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Counts that must be identical across traced runs of one seed.
EXACT_COUNTS = (
    "llm.requests",
    "llm.dispatch_batches",
    "engine.cells_computed",
    "engine.cells_cached",
    "data.sqlite_executes",
    "lifecycle.journal_writes",
)

PER_LAYER = {
    "workloads.load_s": "s",
    "workloads.loads": "count",
    "tasks.build_dataset_s": "s",
    "tasks.datasets_built": "count",
    "equivalence.verdict_s": "s",
    "equivalence.verdicts": "count",
    "data.sqlite_execute_s": "s",
    "data.sqlite_executes": "count",
    "data.db_open_s": "s",
    "data.db_opens": "count",
    "sql.parse_s": "s",
    "sql.parses": "count",
    "sql.memo_hit_ratio": "ratio",
    "tasks.render_s": "s",
    "tasks.requests_rendered": "count",
    "llm.dispatch_s": "s",
    "llm.dispatch_batches": "count",
    "llm.requests_per_batch": "ratio",
    "llm.backend_s": "s",
    "llm.requests": "count",
    "llm.requests_failed": "count",
    "llm.retries": "count",
    "tasks.extract_s": "s",
    "tasks.answers_extracted": "count",
    "engine.cache.get_s": "s",
    "engine.cache.gets": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.put_s": "s",
    "engine.cache.puts": "count",
    "engine.cache.bytes": "bytes",
    "engine.evaluate_s": "s",
    "engine.cells_computed": "count",
    "engine.cells_cached": "count",
    "engine.cells_distinct": "count",
    "engine.stream.chunks": "count",
    "engine.stream.redispatched": "count",
    "engine.stream.wait_s": "s",
    "lifecycle.journal_s": "s",
    "lifecycle.journal_writes": "count",
    "evalfw.metrics_s": "s",
    "reporting.render_s": "s",
    "reporting.record_s": "s",
    "reporting.bundle_s": "s",
    "experiments.run_s": "s",
    "execution.prepare_s": "s",
    "execution.execute_s": "s",
    "execution.report_s": "s",
    "server.queue_wait_s_p50": "s",
    "server.run_s_p50": "s",
    "server.submit_s_p50": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class WrongOutput(Exception):
    """A result disagreed with its recorded digest or reference run."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": usable_cpus(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- grid workloads -----------------------------------------------------------


def grid_argv(workload: str, seed: int) -> list[str]:
    """The ``repro`` command line of one grid sample.

    ``{root}`` stands for the sample's fresh directory (see :func:`run_child`).
    """
    dirs = ["--cache-dir", "{root}/cache", "--runs-dir", "{root}/runs"]
    if workload == "paper-cold":
        return ["--seed", str(seed), "run", "all", "--workers", "1", *dirs]
    if workload == "synthetic-stream":
        return [
            "--seed", str(seed), "run", *PRIMARY_TASKS,
            "--workload", SYNTHETIC_SPEC,
            "--chunk-size", str(SYNTHETIC_CHUNK),
            "--workers", str(usable_cpus()),
            *dirs,
        ]
    if workload == "table6":
        return ["--seed", str(seed), "run", SERVE_ARTIFACT, "--workers", "1", *dirs]
    raise ValueError(f"no grid for workload {workload!r}")


def keep_spans(spans: Path, name: str) -> str:
    """Move a traced process's span dump out of its scratch directory."""
    kept = WORK / f"spans-{name}.jsonl"
    shutil.move(spans, kept)
    return str(kept.relative_to(ROOT))


def run_child(argv: list[str], *, trace: bool = False, report: bool = True) -> dict:
    """One grid sample in a fresh interpreter; returns its JSON summary.

    ``setup_s`` is measured from here: spawn until the child has
    imported ``repro`` and finished ``prepare_run``.  A traced sample's
    spans are kept as ``.perfbench/spans-grid.jsonl`` (last one wins).
    """
    root = Path(tempfile.mkdtemp(prefix="sample-", dir=WORK))
    try:
        out = root / "child.json"
        options = ["--trace"] if trace else []
        if report:
            options += ["--report", str(root / "report")]
        spawned = time.monotonic()
        completed = subprocess.run(
            [sys.executable, str(CHILD), "grid", str(out), *options, "--",
             *[arg.replace("{root}", str(root)) for arg in argv]],
            cwd=root,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=150,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"grid sample exited {completed.returncode}: {completed.stderr[-2000:]}"
            )
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = result["t_ready"] - spawned
        result["latency_s"] = result["t_done"] - result["t_ready"]
        result["report_latency_s"] = result["t_end"] - result["t_done"]
        result["traced_wall_s"] = result["t_end"] - result["t_prepare"]
        if trace:
            result["spans"] = keep_spans(out.with_suffix(".spans.jsonl"), "grid")
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_sample(sample: dict, expected: dict | None) -> tuple[int, int]:
    """``(attempted, failed)`` cells of one sample; raises on wrong output."""
    record = sample.get("record")
    if sample["status"] != "completed" or record is None:
        raise WrongOutput(f"grid run {sample['status']}: {sample.get('message', '')}")
    if expected is not None and record["digest"] != expected["digest"]:
        raise WrongOutput(
            f"metrics digest {record['digest'][:12]} != recorded {expected['digest'][:12]}"
        )
    return record["cells"] + record["failures"], record["failures"]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def grid_workload(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    digests = load_digests()[workload]
    deadline = time.monotonic() + seconds
    samples, attempted, failed = [], 0, 0
    for index in itertools.count():
        inner = (seed + index) % DIGEST_SEEDS
        sample = run_child(grid_argv(workload, inner))
        cells, bad = check_sample(sample, digests[str(inner)])
        attempted, failed = attempted + cells, failed + bad
        samples.append(sample)
        if len(samples) >= MIN_SAMPLES and time.monotonic() >= deadline:
            break
    metrics = {
        "setup_s": median([s["setup_s"] for s in samples]),
        "latency_s": median([s["latency_s"] for s in samples]),
        "instances_per_s": median(
            [s["record"]["answered"] / s["latency_s"] for s in samples]
        ),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
    }
    detail = {
        "seeds": [(seed + i) % DIGEST_SEEDS for i in range(len(samples))],
        "latency_s": [s["latency_s"] for s in samples],
        "report_latency_s": [s["report_latency_s"] for s in samples],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed}, detail


def grid_layers(sample: dict) -> dict:
    """Per-layer values of one traced grid sample."""
    layers = dict(sample["layers"])
    record = sample["record"]
    layers["engine.cells_computed"] = sample["computed_cells"]
    layers["engine.cells_cached"] = sample["cached_cells"]
    layers["engine.cells_distinct"] = record["cells"]
    layers["engine.stream.chunks"] = record["stream_chunks"]
    layers["engine.stream.redispatched"] = record["stream_redispatched"]
    layers["trace.wall_s"] = sample["traced_wall_s"]
    return derive(layers)


def grid_trace(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    inner = seed % DIGEST_SEEDS
    expected = load_digests()[workload][str(inner)]
    deadline = time.monotonic() + seconds
    plain, traced, attempted, failed = [], [], 0, 0
    while len(traced) < 1 or time.monotonic() < deadline:
        for trace, bucket in ((False, plain), (True, traced)):
            sample = run_child(grid_argv(workload, inner), trace=trace)
            cells, bad = check_sample(sample, expected)
            attempted, failed = attempted + cells, failed + bad
            bucket.append(sample)
    layer_runs = [grid_layers(sample) for sample in traced]
    check_counts(layer_runs, expected["counts"])
    layers = median_layers(layer_runs)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - median(
        [s["traced_wall_s"] for s in plain]
    )
    return (
        {"metrics": layers, "attempted": attempted, "failed": failed},
        {
            "traced_samples": len(traced),
            "untraced_samples": len(plain),
            "seed": inner,
            "spans": traced[-1]["spans"],
        },
    )


def median_layers(runs: list[dict]) -> dict:
    """Median of every per-layer value across traced samples."""
    return {key: median([run.get(key, 0) for run in runs]) for key in runs[0]}


def check_counts(runs: list[dict], recorded: dict | None) -> None:
    """The counts of :data:`EXACT_COUNTS` repeat across runs and records."""
    for key in EXACT_COUNTS:
        values = {run.get(key, 0) for run in runs}
        if recorded is not None:
            values.add(recorded.get(key, 0))
        if len(values) != 1:
            raise WrongOutput(f"count {key} differs across runs of one seed: {sorted(values)}")


# -- serve --------------------------------------------------------------------


class Server:
    """A ``repro serve`` process (or a traced host) on an ephemeral port."""

    def __init__(self, root: Path, traced: bool = False) -> None:
        self.out = root / "host.json"
        dirs = [str(root / name) for name in ("jobs", "runs", "cache", "reports")]
        if traced:
            argv = [sys.executable, str(CHILD), "host", str(self.out), "--trace", "--", *dirs]
        else:
            argv = [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--jobs-dir", dirs[0], "--runs-dir", dirs[1],
                "--cache-dir", dirs[2], "--reports-dir", dirs[3],
            ]
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=root, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.url = None
        for line in self.process.stderr:
            if "[serve] listening on " in line:
                self.url = line.strip().rsplit(" ", 1)[-1]
                break
        self.setup_s = time.monotonic() - spawned
        if self.url is None:
            self.stop()
            raise RuntimeError("server exited before listening")
        # Keep draining stderr so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.process.stderr.read, daemon=True)
        self._drain.start()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)
        self.process.stderr.close()
        return code


def client_loop(url: str, seeds, deadline: float | None) -> list[dict]:
    """Closed loop: one client per usable CPU, each waiting for its job.

    ``seeds`` yields job seeds (thread-safe ``next``); a client stops when
    it runs out or the deadline passes.  Times come from SSE frames as
    they arrive, so nothing is quantised by a polling interval.
    """
    from repro.server.client import ServiceClient

    lock = threading.Lock()
    jobs: list[dict] = []

    def client(index: int) -> None:
        service = ServiceClient(url, client_id=f"bench-{index}", timeout=120)
        while deadline is None or time.monotonic() < deadline:
            with lock:
                seed = next(seeds, None)
            if seed is None:
                return
            job = {"seed": seed, "state": None, "report_ok": False}
            try:
                t0 = time.monotonic()
                submitted = service.submit({"artifacts": [SERVE_ARTIFACT], "seed": seed})
                job["submit_s"] = time.monotonic() - t0
                job["job_id"] = submitted["job_id"]
                for frame in service.events(submitted["job_id"]):
                    now = time.monotonic()
                    if frame["event"] == "started" and "started" not in job:
                        job["started"] = now - t0
                    elif frame["event"] == "end":
                        job["latency_s"] = now - t0
                        job["state"] = frame["data"]["state"]
                r0 = time.monotonic()
                report = service.report(submitted["job_id"])
                job["report_latency_s"] = time.monotonic() - r0
                job["run_id"] = report["run_id"]
                job["report_ok"] = bool(report.get("markdown"))
            except Exception as error:  # noqa: BLE001 - counted as a failure
                job["error"] = f"{type(error).__name__}: {error}"
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(usable_cpus())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs


def job_failures(jobs: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` requests: one submit+stream and one report per job."""
    failed = sum(
        (job["state"] != "done") + (not job["report_ok"]) for job in jobs
    )
    return 2 * len(jobs), failed


def job_records(root: Path, jobs: list[dict]) -> list[dict]:
    from child import record_summary

    return [
        record_summary(json.loads((root / "runs" / f"{job['run_id']}.json").read_text()))
        for job in jobs
        if job.get("run_id")
    ]


def check_against_cli(root: Path, job: dict) -> None:
    """A served job's metrics equal the same grid run through ``repro run``."""
    served = job_records(root, [job])[0]
    local = run_child(grid_argv("table6", job["seed"]), report=False)["record"]
    if served["digest"] != local["digest"]:
        raise WrongOutput(
            f"served job seed={job['seed']} digest {served['digest'][:12]} "
            f"!= repro run {local['digest'][:12]}"
        )


def serve_workload(seed: int, seconds: float) -> tuple[dict, dict]:
    root = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK))
    try:
        server = Server(root)
        try:
            started = time.monotonic()
            # Fresh, distinct seeds per job so dedup never collapses two.
            jobs = client_loop(server.url, itertools.count(seed * 100_000 + 1), started + seconds)
            loop_s = time.monotonic() - started
            rss = server.peak_rss_mb()
        finally:
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"repro serve exited {code}")
        setups = [server.setup_s]
        for _ in range(SERVE_SETUPS - 1):
            extra = Server(Path(tempfile.mkdtemp(prefix="setup-", dir=root)))
            setups.append(extra.setup_s)
            extra.stop()
        attempted, failed = job_failures(jobs)
        done = [job for job in jobs if job["state"] == "done" and job.get("run_id")]
        if failed or not done:
            raise WrongOutput(f"{failed} of {attempted} serve requests failed: {jobs[:3]}")
        check_against_cli(root, done[0])
        records = job_records(root, done)
        metrics = {
            "setup_s": median(setups),
            "latency_s": median([job["latency_s"] for job in done]),
            "instances_per_s": sum(r["answered"] for r in records) / loop_s,
            "peak_rss_mb": rss,
        }
        detail = {
            "jobs": len(jobs),
            "jobs_per_s": len(done) / loop_s,
            "latency_s_p90": statistics.quantiles([j["latency_s"] for j in done], n=10)[-1]
            if len(done) >= 2 else None,
            "report_latency_s": median([job["report_latency_s"] for job in done]),
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed}, detail
    finally:
        shutil.rmtree(root, ignore_errors=True)


def serve_phase(seed: int, traced: bool) -> dict:
    """A fixed set of :data:`TRACE_JOBS` jobs against a fresh server."""
    root = Path(tempfile.mkdtemp(prefix="phase-", dir=WORK))
    try:
        server = Server(root, traced=traced)
        try:
            started = time.monotonic()
            seeds = iter([(seed + j) % DIGEST_SEEDS for j in range(TRACE_JOBS)])
            jobs = client_loop(server.url, seeds, None)
            wall = time.monotonic() - started
        finally:
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"server exited {code}")
        attempted, failed = job_failures(jobs)
        if failed:
            raise WrongOutput(f"{failed} of {attempted} serve requests failed")
        phase = {"wall_s": wall, "jobs": jobs, "attempted": attempted}
        if traced:
            layers = json.loads(server.out.read_text())["layers"]
            records = job_records(root, jobs)
            layers["engine.cells_computed"] = sum(r["computed"] for r in records)
            layers["engine.cells_cached"] = sum(r["cached"] for r in records)
            layers["engine.cells_distinct"] = sum(r["cells"] for r in records)
            layers["engine.stream.chunks"] = sum(r["stream_chunks"] for r in records)
            layers["engine.stream.redispatched"] = sum(r["stream_redispatched"] for r in records)
            layers["server.queue_wait_s_p50"] = median([j["started"] for j in jobs])
            layers["server.run_s_p50"] = median([j["latency_s"] - j["started"] for j in jobs])
            layers["server.submit_s_p50"] = median([j["submit_s"] for j in jobs])
            layers["trace.wall_s"] = wall
            phase["layers"] = derive(layers)
            phase["spans"] = keep_spans(server.out.with_suffix(".spans.jsonl"), "serve")
        return phase
    finally:
        shutil.rmtree(root, ignore_errors=True)


def serve_trace(seed: int, seconds: float) -> tuple[dict, dict]:
    expected = load_digests()["serve"]["counts"]
    deadline = time.monotonic() + seconds
    plain, traced, attempted = [], [], 0
    while len(traced) < 1 or time.monotonic() < deadline:
        for is_traced, bucket in ((False, plain), (True, traced)):
            phase = serve_phase(seed, is_traced)
            attempted += phase["attempted"]
            bucket.append(phase)
    layer_runs = [phase["layers"] for phase in traced]
    check_counts(layer_runs, expected)
    layers = median_layers(layer_runs)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - median([p["wall_s"] for p in plain])
    return (
        {"metrics": layers, "attempted": attempted, "failed": 0},
        {
            "traced_phases": len(traced),
            "untraced_phases": len(plain),
            "jobs_per_phase": TRACE_JOBS,
            "spans": traced[-1]["spans"],
        },
    )


# -- result -------------------------------------------------------------------


def derive(layers: dict) -> dict:
    """Add the ratios and unattributed time of one traced sample."""
    gets = layers.get("engine.cache.gets", 0)
    layers["engine.cache.hit_ratio"] = layers.get("engine.cache.hits", 0) / gets if gets else 0.0
    batches = layers.get("llm.dispatch_batches", 0)
    layers["llm.requests_per_batch"] = layers.get("llm.requests", 0) / batches if batches else 0.0
    layers["trace.unattributed_s"] = layers["trace.wall_s"] - layers["self_total_s"]
    return layers


def finish_layers(layers: dict) -> dict:
    """Every per-layer metric, zero for layers the workload never touched."""
    return {name: layers.get(name, 0) for name in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if workload == "serve":
        return serve_trace(seed, seconds) if trace else serve_workload(seed, seconds)
    return grid_trace(workload, seed, seconds) if trace else grid_workload(workload, seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    host = host_fingerprint()
    try:
        outcome, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WrongOutput as error:
        print(f"perfbench: wrong output: {error}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    values = finish_layers(outcome["metrics"]) if args.trace else outcome["metrics"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": host, **detail}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
