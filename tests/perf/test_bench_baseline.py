"""The ratio-based perf-smoke baseline check (PR 6).

CI runners are slower or faster than the machine that recorded
``benchmarks/BENCH_hotpaths.json``, so the check normalizes every
throughput ratio by the median ratio before applying the tolerance: a
uniformly slow runner passes, a single regressed hot path fails.
"""

import json
import platform
from collections import defaultdict

import pytest

from repro.perf.bench import (
    BASELINE_METRICS,
    BASELINE_TOLERANCE,
    _verify_raw_work,
    check_against_baseline,
)


def _measurements(lexer_raw, lexer_cached, parser_raw, parser_cached):
    return {
        "lexer": {
            "raw_tokens_per_s": lexer_raw,
            "cached_texts_per_s": lexer_cached,
        },
        "parser": {
            "raw_texts_per_s": parser_raw,
            "cached_texts_per_s": parser_cached,
        },
    }


BASELINE = _measurements(500_000.0, 80_000.0, 3_000.0, 40_000.0)


class TestCheckAgainstBaseline:
    def test_identical_measurements_pass(self):
        assert check_against_baseline(BASELINE, BASELINE) == []

    def test_uniformly_slow_runner_passes(self):
        """A 3x slower machine moves every ratio equally — after median
        normalization nothing regresses."""
        slow = _measurements(*(v / 3 for v in (500_000.0, 80_000.0, 3_000.0, 40_000.0)))
        assert check_against_baseline(slow, BASELINE) == []

    def test_uniformly_fast_runner_passes(self):
        fast = _measurements(*(v * 4 for v in (500_000.0, 80_000.0, 3_000.0, 40_000.0)))
        assert check_against_baseline(fast, BASELINE) == []

    def test_single_hot_path_regression_fails(self):
        """Parser raw throughput halves while everything else holds: the
        regression must surface even though the runner looks 'normal'."""
        regressed = _measurements(500_000.0, 80_000.0, 1_500.0, 40_000.0)
        failures = check_against_baseline(regressed, BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith("parser.raw_texts_per_s")

    def test_regression_within_tolerance_passes(self):
        shaved = _measurements(
            500_000.0, 80_000.0, 3_000.0 * (1 - BASELINE_TOLERANCE + 0.05), 40_000.0
        )
        assert check_against_baseline(shaved, BASELINE) == []

    def test_tolerance_is_configurable(self):
        shaved = _measurements(500_000.0, 80_000.0, 2_700.0, 40_000.0)
        assert check_against_baseline(shaved, BASELINE, tolerance=0.2) == []
        assert check_against_baseline(shaved, BASELINE, tolerance=0.05)

    def test_empty_baseline_is_a_loud_failure(self):
        failures = check_against_baseline(BASELINE, {})
        assert failures == ["baseline holds no comparable throughput metrics"]

    def test_partial_baseline_checks_what_it_has(self):
        partial = {"parser": {"raw_texts_per_s": 3_000.0}}
        assert check_against_baseline(BASELINE, partial) == []
        regressed = _measurements(500_000.0, 80_000.0, 1_000.0, 40_000.0)
        # With a single comparable metric the median IS that metric, so
        # normalization hides the drop — this documents the limitation.
        assert check_against_baseline(regressed, partial) == []

    def test_metric_set_matches_bench_sections(self):
        assert set(BASELINE_METRICS) == {
            ("lexer", "raw_tokens_per_s"),
            ("lexer", "cached_texts_per_s"),
            ("parser", "raw_texts_per_s"),
            ("parser", "cached_texts_per_s"),
            ("rewrite", "rewrites_per_s"),
            ("workloads", "queries_per_s"),
        }


class TestMeasureRewrite:
    def test_reports_applied_chain_throughput(self, monkeypatch):
        from repro.perf import bench

        monkeypatch.setattr(
            bench, "REWRITE_CORPUS_WORKLOAD", "synthetic:rewrite:n=4"
        )
        result = bench.measure_rewrite(seed=0, repeats=1)
        assert result["queries"] > 0
        assert 0 < result["chains"] <= result["queries"]
        assert result["steps"] >= result["chains"]
        assert result["rewrites_per_s"] > 0
        assert result["chains_per_s"] > 0

    def test_sweeps_are_deterministic(self, monkeypatch):
        """Every timed repetition must perform identical work, or the
        best-of timing (and the gated throughput) measures a moving
        target."""
        from repro.perf import bench

        monkeypatch.setattr(
            bench, "REWRITE_CORPUS_WORKLOAD", "synthetic:rewrite:n=4"
        )
        first = bench.measure_rewrite(seed=0, repeats=1)
        second = bench.measure_rewrite(seed=0, repeats=1)
        assert (first["queries"], first["chains"], first["steps"]) == (
            second["queries"],
            second["chains"],
            second["steps"],
        )


class TestMeasureWorkloads:
    def test_reports_generation_throughput(self, monkeypatch):
        from repro.perf import bench

        monkeypatch.setattr(bench, "CORPUS_WORKLOADS", ("sqlshare",))
        monkeypatch.setattr(bench, "WORKLOAD_SEEDS", (0, 1))
        result = bench.measure_workloads(repeats=1)
        assert result["queries"] == 2 * 250
        assert result["raw_s"] > 0
        assert result["queries_per_s"] > 0


class TestRunBench:
    def test_records_host_fingerprint(self, monkeypatch, tmp_path):
        from repro.perf import bench

        # Every measured value reads as 1: a passing, printable run.
        measurements = defaultdict(lambda: defaultdict(lambda: 1))
        monkeypatch.setattr(bench, "measure", lambda *args: measurements)
        out = tmp_path / "BENCH_hotpaths.json"
        assert bench.run_bench(out=out) == 0
        payload = json.loads(out.read_text())
        assert payload["python"] == platform.python_version()
        assert payload["machine"] == platform.machine()


class TestVerifyRawWork:
    def test_raw_counters_advance_over_a_real_corpus(self):
        texts = [f"SELECT a{i} FROM t{i} WHERE x = {i}" for i in range(30)]
        assert _verify_raw_work(texts) is True

    def test_duplicate_texts_are_legitimate_hits(self):
        """Real corpora repeat texts; the verification must demand raw
        work per *distinct* text, not per occurrence."""
        texts = ["SELECT a FROM t", "SELECT b FROM u"] * 10
        assert _verify_raw_work(texts) is True

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
        assert _verify_raw_work(texts) is False


@pytest.fixture(autouse=True)
def _restore_cache_state():
    yield
    from repro.sql import analysis_cache

    analysis_cache.clear_caches()
