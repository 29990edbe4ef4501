"""The measurement harness's gates (``benchmarks/harness.py``).

The harness lives outside ``src/``, so it is loaded by path.  Its gates
are checked on stubbed measurements: no test here times anything.  One
test starts the harness's fresh child process, to check that it dies
with the harness.
"""

import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HARNESS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("harness", HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load_harness()

BASELINE = dict(
    zip(
        harness.BASELINE_METRICS,
        (500_000.0, 80_000.0, 3_000.0, 40_000.0, 900.0, 2_800.0),
    )
)

PARSER_RAW = "parser.raw_texts_per_s"


def _rounds(count=9, **factors):
    """*count* rounds at the baseline, metrics scaled by ``factors``
    (keyed by metric name with ``.`` spelled ``__``)."""
    scale = {name.replace("__", "."): factor for name, factor in factors.items()}
    return [
        {name: value * scale.get(name, 1.0) for name, value in BASELINE.items()}
        for _ in range(count)
    ]


def _uniform(factor, count=9):
    return [{name: value * factor for name, value in BASELINE.items()}] * count


class TestCheckAgainstBaseline:
    def test_identical_measurements_pass(self):
        assert harness.check_against_baseline(_rounds(), BASELINE) == []

    def test_uniformly_slow_runner_passes(self):
        """A 3x slower machine moves every ratio equally: after median
        normalization nothing regresses."""
        assert harness.check_against_baseline(_uniform(1 / 3), BASELINE) == []

    def test_uniformly_fast_runner_passes(self):
        assert harness.check_against_baseline(_uniform(4.0), BASELINE) == []

    def test_single_hot_path_regression_fails(self):
        """Parser raw throughput halves in every round while everything
        else holds: the regression must surface even though the runner
        looks normal."""
        failures = harness.check_against_baseline(
            _rounds(parser__raw_texts_per_s=0.5), BASELINE
        )
        assert len(failures) == 1
        assert failures[0].startswith(PARSER_RAW)

    def test_regression_within_tolerance_passes(self):
        shaved = _rounds(
            parser__raw_texts_per_s=1 - harness.BASELINE_TOLERANCE + 0.05
        )
        assert harness.check_against_baseline(shaved, BASELINE) == []

    def test_tolerance_is_configurable(self):
        shaved = _rounds(parser__raw_texts_per_s=0.9)
        assert harness.check_against_baseline(shaved, BASELINE, tolerance=0.2) == []
        assert harness.check_against_baseline(shaved, BASELINE, tolerance=0.05)

    def test_empty_baseline_is_a_loud_failure(self):
        failures = harness.check_against_baseline(_rounds(), {})
        assert failures == ["baseline holds no comparable throughput metrics"]

    def test_partial_baseline_checks_what_it_has(self):
        partial = {PARSER_RAW: 3_000.0}
        assert harness.check_against_baseline(_rounds(), partial) == []
        regressed = _rounds(parser__raw_texts_per_s=1 / 3)
        # With a single comparable metric the median IS that metric, so
        # normalization hides the drop: this documents the limitation.
        assert harness.check_against_baseline(regressed, partial) == []

    def test_metric_set_matches_the_measured_sections(self):
        assert set(harness.BASELINE_METRICS) == {
            "lexer.raw_tokens_per_s",
            "lexer.cached_texts_per_s",
            "parser.raw_texts_per_s",
            "parser.cached_texts_per_s",
            "rewrite.rewrites_per_s",
            "workloads.queries_per_s",
        }


class TestPerRoundNormalization:
    def test_every_metric_slow_in_some_rounds_passes(self):
        """A host slowdown that lasts five rounds of nine slows every
        metric of those rounds alike, so each round normalizes to 1."""
        rounds = _uniform(0.4, count=5) + _uniform(1.0, count=4)
        assert harness.check_against_baseline(rounds, BASELINE) == []
        scores = harness.baseline_scores(rounds, BASELINE)
        assert scores == pytest.approx({name: 1.0 for name in BASELINE})

    def test_one_metric_at_half_speed_in_every_round_fails(self):
        rounds = [
            {**measured, PARSER_RAW: measured[PARSER_RAW] / 2}
            for measured in _uniform(0.7, count=4) + _rounds(count=5)
        ]
        failures = harness.check_against_baseline(rounds, BASELINE)
        assert [failure.split(":")[0] for failure in failures] == [PARSER_RAW]
        assert harness.baseline_scores(rounds, BASELINE)[PARSER_RAW] == pytest.approx(0.5)

    def test_one_metric_slow_in_one_round_of_nine_passes(self):
        rounds = _rounds()
        rounds[4] = {**rounds[4], PARSER_RAW: BASELINE[PARSER_RAW] * 0.2}
        assert harness.check_against_baseline(rounds, BASELINE) == []
        assert harness.baseline_scores(rounds, BASELINE)[PARSER_RAW] == pytest.approx(1.0)


class TestMeasureThroughput:
    @pytest.fixture(autouse=True)
    def _small_corpora(self, monkeypatch):
        monkeypatch.setattr(harness, "REWRITE_CORPUS_WORKLOAD", "synthetic:rewrite:n=4")
        monkeypatch.setattr(harness, "CORPUS_WORKLOADS", ("sqlshare",))
        monkeypatch.setattr(harness, "CACHED_LOOKUPS", 1_000)

    def test_every_round_times_every_gated_metric(self):
        result = harness.measure_throughput(rounds=2)
        assert len(result["rounds"]) == 2
        for measured in result["rounds"]:
            assert set(measured) == set(harness.BASELINE_METRICS)
            assert all(value > 0 for value in measured.values())
        corpus = result["corpus"]
        assert corpus["texts"] == corpus["generated_queries"] == 250
        assert corpus["parsed"] == 250
        assert corpus["rewrite_queries"] > 0
        assert 0 < corpus["rewrite_chains"] <= corpus["rewrite_queries"]
        assert corpus["rewrite_steps"] >= corpus["rewrite_chains"]
        assert result["raw_counters_advance"] is True

    def test_runs_do_identical_work(self):
        """Every round and every run must do the same work, or the gated
        throughputs measure a moving target."""
        first = harness.measure_throughput(rounds=1)
        second = harness.measure_throughput(rounds=1)
        assert first["corpus"] == second["corpus"]


class TestVerifyRawWork:
    def test_raw_counters_advance_over_a_real_corpus(self):
        texts = [f"SELECT a{i} FROM t{i} WHERE x = {i}" for i in range(30)]
        assert harness.verify_raw_work(texts) is True

    def test_duplicate_texts_are_legitimate_hits(self):
        """Real corpora repeat texts; the verification must demand raw
        work per *distinct* text, not per occurrence."""
        texts = ["SELECT a FROM t", "SELECT b FROM u"] * 10
        assert harness.verify_raw_work(texts) is True

    def test_detects_a_broken_clear(self, monkeypatch):
        """If clear_caches stopped dropping entries (while still zeroing
        counters), the sweep would be served from memo and the
        verification must say so."""
        from repro.sql import analysis_cache

        texts = ["SELECT 1", "SELECT 2"]
        for text in texts:
            analysis_cache.tokenize_cached(text)
            analysis_cache.try_parse_cached(text)

        def half_broken_clear():
            analysis_cache._raw_tokenizes.reset()
            analysis_cache._raw_parses.reset()

        monkeypatch.setattr(analysis_cache, "clear_caches", half_broken_clear)
        assert harness.verify_raw_work(texts) is False


def _point(n, workers=1, maxrss_mb=40.0):
    return {
        "n": n,
        "workers": workers,
        "instances": n,
        "chunks": max(1, n // harness.STREAM_CHUNK_SIZE),
        "seconds": 1.0,
        "instances_per_s": float(n),
        "maxrss_self_mb": maxrss_mb,
        "maxrss_children_mb": 0.0,
        "maxrss_mb": maxrss_mb,
        "workers_used": workers,
    }


COMMITTED = {
    "throughput": {"median": BASELINE},
    "streaming": {"points": [_point(1_000, maxrss_mb=30.0), _point(100_000)]},
}


class TestRssBudget:
    def test_budget_reads_the_committed_gate_point(self):
        budget, source = harness.rss_budget_mb(COMMITTED)
        assert budget == pytest.approx(40.0 * harness.RSS_BUDGET_FACTOR)
        assert "40.0 MB" in source

    @pytest.mark.parametrize(
        "committed",
        [{}, {"streaming": {"points": [_point(1_000), _point(2_000)]}}],
        ids=["no-json", "no-gate-point"],
    )
    def test_budget_falls_back_without_a_committed_point(self, committed):
        budget, source = harness.rss_budget_mb(committed)
        assert budget == harness.RSS_FALLBACK_BUDGET_MB == 1000.0
        assert source.startswith("fallback")


class _Stub:
    """Passing measurements for every section; tests break one."""

    def __init__(self):
        self.rounds = _rounds()
        self.throughput = {
            "corpus": {
                "texts": 692,
                "rewrite_queries": 360,
                "rewrite_chains": 360,
                "generated_queries": 692,
            },
            "raw_counters_advance": True,
            "runs": 1,
        }
        self.grid = {
            "cells": 55,
            "instances": 1375,
            "workers": 2,
            "serial_s": 1.0,
            "parallel_cold_s": 1.0,
            "parallel_steady_s": 0.3,
            "cache_cold_s": 1.0,
            "cache_warm_s": 0.03,
            "identical": True,
            "cache_identical": True,
            "cache_hit_cells": 55,
            "cache_recomputed_cells": 0,
        }
        self.points = {}
        self.resume_identical = True

    def throughput_runs(self, runs):
        median = {
            name: statistics.median(row[name] for row in self.rounds)
            for name in harness.BASELINE_METRICS
        }
        return {**self.throughput, "runs": runs, "median": median, "rounds": self.rounds}

    def fresh(self, fn, n, workers, seed):
        assert fn is harness.stream_point
        return self.points.get(n, _point(n, workers))


@pytest.fixture
def stub(monkeypatch, tmp_path):
    measured = _Stub()
    bench_json = tmp_path / "BENCH_harness.json"
    bench_json.write_text(json.dumps(COMMITTED))
    monkeypatch.setattr(harness, "BENCH_JSON", bench_json)
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "measure_throughput_runs", measured.throughput_runs)
    monkeypatch.setattr(harness, "measure_grid", lambda *args: measured.grid)
    monkeypatch.setattr(harness, "in_fresh_process", measured.fresh)
    monkeypatch.setattr(
        harness,
        "measure_dispatcher",
        lambda: {"requests": 400, "by_max_concurrency": {"1": {"rps": 400.0}}},
    )
    monkeypatch.setattr(
        harness,
        "measure_resilience",
        lambda seed: {
            "journal_overhead_pct": 5.0,
            "resume_round_trip_overhead_pct": 20.0,
            "resume_identical": measured.resume_identical,
        },
    )
    return measured


def _slow_parser(stub):
    stub.rounds = _rounds(parser__raw_texts_per_s=0.5)


def _set(section, key, value):
    def apply(stub):
        getattr(stub, section)[key] = value

    return apply


def _point_at(n, **fields):
    def apply(stub):
        stub.points[n] = {**_point(n, 2 if n == harness.SCALE_SMOKE_POINT else 1), **fields}

    return apply


def _slow_parse_floor(stub):
    stub.rounds = _uniform(100.0 / BASELINE[PARSER_RAW])


#: One broken measurement per ``--check`` gate, and a word its FAIL line shows.
CHECK_GATES = {
    "baseline": (_slow_parser, PARSER_RAW),
    "warm-grid-floor": (_set("grid", "cache_warm_s", 6.5), "warm-cache grid"),
    "parse-floor": (_slow_parse_floor, "floor"),
    "raw-counters": (_set("throughput", "raw_counters_advance", False), "raw counters"),
    "rewrite-chains": (
        lambda stub: stub.throughput["corpus"].update(rewrite_chains=0),
        "no chains",
    ),
    "pooled-identity": (_set("grid", "identical", False), "pooled grid"),
    "cached-identity": (_set("grid", "cache_identical", False), "cached grid"),
    "warm-recompute": (_set("grid", "cache_recomputed_cells", 1), "recomputed"),
    "rss-gate": (_point_at(harness.RSS_GATE_POINT, maxrss_mb=61.0), "n=100,000"),
    "smoke-instances": (_point_at(harness.SCALE_SMOKE_POINT, instances=19_999), "19999"),
    "smoke-rss": (_point_at(harness.SCALE_SMOKE_POINT, maxrss_mb=61.0), "n=20,000"),
    "smoke-workers": (_point_at(harness.SCALE_SMOKE_POINT, workers_used=1), "worker"),
}


class TestCheckRun:
    def test_passes_on_passing_measurements(self, stub, capsys):
        assert harness.run_check(workers=2, seed=0) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "check           : ok" in out
        assert "score 1.00" in out

    @pytest.mark.parametrize("gate", sorted(CHECK_GATES))
    def test_each_gate_fails_the_check(self, stub, capsys, gate):
        breaks, shown = CHECK_GATES[gate]
        breaks(stub)
        assert harness.run_check(workers=2, seed=0) == 1
        failures = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL: ")
        ]
        assert len(failures) == 1, failures
        assert shown in failures[0]

    def test_one_cpu_skips_the_workers_assertion(self, stub, monkeypatch):
        _point_at(harness.SCALE_SMOKE_POINT, workers_used=1)(stub)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        assert harness.run_check(workers=1, seed=0) == 0

    def test_missing_json_falls_back_and_fails_the_baseline(self, stub, capsys):
        harness.BENCH_JSON.unlink()
        assert harness.run_check(workers=2, seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL: baseline holds no comparable throughput metrics" in out
        assert "fallback" in out

    def test_check_writes_nothing(self, stub):
        before = harness.BENCH_JSON.read_text()
        harness.run_check(workers=2, seed=0)
        assert harness.BENCH_JSON.read_text() == before


class TestFullRun:
    def test_records_the_host_fingerprint(self, stub, tmp_path):
        out = tmp_path / "full.json"
        assert harness.run_full(2, 0, (1_000, 2_000), out) == 0
        payload = json.loads(out.read_text())
        host = payload["host"]
        assert host["python"] == platform.python_version()
        assert host["machine"] == platform.machine()
        assert host["cpus_available"] == 2
        assert set(host) == {"cpu_count", "cpus_available", "python", "machine", "loadavg"}
        assert [point["n"] for point in payload["streaming"]["points"]] == [1_000, 2_000]
        assert payload["streaming"]["rss_flat"] is True

    @pytest.mark.parametrize(
        "breaks",
        [
            _set("grid", "identical", False),
            _set("grid", "cache_identical", False),
            _set("grid", "cache_recomputed_cells", 2),
            lambda stub: setattr(stub, "resume_identical", False),
            _point_at(2_000, maxrss_mb=61.0),
        ],
        ids=["identical", "cache-identical", "warm-recompute", "resume", "rss-flat"],
    )
    def test_exits_1_on_wrong_numbers(self, stub, tmp_path, breaks):
        breaks(stub)
        assert harness.run_full(2, 0, (1_000, 2_000), tmp_path / "full.json") == 1


def _children(pid: int) -> list[int]:
    """Pids whose parent is *pid*, read from ``/proc/<pid>/stat``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            after_name = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(after_name[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
def test_no_process_outlives_a_signalled_harness(signum):
    """A harness blocked in ``in_fresh_process`` is signalled: within a
    few seconds nothing it started is still running."""
    script = "\n".join(
        [
            "import signal, sys, time",
            "signal.signal(signal.SIGINT, signal.default_int_handler)",
            f"sys.path.insert(0, {str(HARNESS_PATH.parent)!r})",
            "import harness",
            "harness.in_fresh_process(time.sleep, 60)",
        ]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stderr=subprocess.DEVNULL
    )
    started: list[int] = []
    survivors: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            started = _children(proc.pid)
            spawned = [
                pid
                for pid in started
                if b"spawn_main" in Path(f"/proc/{pid}/cmdline").read_bytes()
            ]
            if spawned:
                break
            time.sleep(0.05)
        assert started, "the harness started no fresh process"
        time.sleep(0.5)  # let the child reach fn
        os.kill(proc.pid, signum)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        survivors = [pid for pid in started if _running(pid)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.1)
            survivors = [pid for pid in survivors if _running(pid)]
    finally:
        for pid in [proc.pid, *started]:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait(timeout=10)
    assert survivors == []


def test_zero_workers_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        harness.main(["--workers", "0"])
    assert excinfo.value.code == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


@pytest.fixture(autouse=True)
def _restore_cache_state():
    yield
    from repro.sql import analysis_cache

    analysis_cache.clear_caches()
