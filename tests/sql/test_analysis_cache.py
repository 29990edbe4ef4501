"""The memoized parse/analysis layer.

Three guarantees:

* cached results are indistinguishable from fresh ones over the *full*
  corpus of all three SQL-log workloads (the property the whole pipeline
  rests on);
* failures are memoized values, not repeated work, and re-raise the
  original error type;
* a mutation-free grid run performs exactly one raw parse per distinct
  query text (the counter hook), which is the cache's reason to exist.
"""

import pytest

from repro.sql import analysis_cache
from repro.sql.errors import LexError, ParseError
from repro.sql.lexer import tokenize
from repro.sql.parser import try_parse
from repro.sql.properties import extract_properties
from repro.workloads import load_workload

WORKLOADS = ("sdss", "sqlshare", "join_order")


@pytest.fixture(scope="module")
def corpus():
    texts = []
    for name in WORKLOADS:
        texts.extend(q.text for q in load_workload(name, 0).queries)
    return texts


class TestCachedEqualsFresh:
    def test_parse_cached_equals_fresh_across_full_corpus(self, corpus):
        for text in corpus:
            fresh = try_parse(text)
            cached = analysis_cache.try_parse_cached(text)
            assert cached == fresh, f"cached parse differs for {text!r}"

    def test_tokenize_cached_equals_fresh_across_full_corpus(self, corpus):
        for text in corpus:
            assert analysis_cache.tokenize_cached(text) == tuple(
                tokenize(text)
            ), f"cached tokens differ for {text!r}"

    def test_analysis_properties_equal_fresh_extraction(self, corpus):
        for text in corpus:
            fresh = extract_properties(text)
            cached = analysis_cache.analyze_cached(text).properties
            assert cached == fresh, f"cached properties differ for {text!r}"

    def test_repeated_calls_return_the_same_object(self):
        text = "SELECT a FROM t WHERE b > 1"
        assert analysis_cache.try_parse_cached(text) is (
            analysis_cache.try_parse_cached(text)
        )
        assert analysis_cache.tokenize_cached(text) is (
            analysis_cache.tokenize_cached(text)
        )

    def test_analysis_record_fields(self):
        analysis = analysis_cache.analyze_cached("SELECT a FROM t")
        assert analysis.parses
        assert analysis.tokens[-1].value == ""  # EOF-terminated
        assert analysis.properties.table_count == 1
        assert analysis.text == "SELECT a FROM t"


class TestFailureMemoization:
    def test_unparseable_text_is_none_and_counted_once(self):
        analysis_cache.clear_caches()
        bad = "SELECT FROM WHERE totally broken ((("
        assert analysis_cache.try_parse_cached(bad) is None
        assert analysis_cache.try_parse_cached(bad) is None
        assert analysis_cache.counters().raw_parses == 1

    def test_parse_cached_reraises_original_error(self):
        with pytest.raises(ParseError):
            analysis_cache.parse_cached("SELECT FROM")
        with pytest.raises(ParseError):
            analysis_cache.parse_cached("SELECT FROM")

    def test_tokenize_cached_reraises_lex_error(self):
        with pytest.raises(LexError):
            analysis_cache.tokenize_cached("SELECT 'unterminated")
        with pytest.raises(LexError):
            analysis_cache.tokenize_cached("SELECT 'unterminated")

    def test_unlexable_analysis_has_no_tokens_but_has_properties(self):
        analysis = analysis_cache.analyze_cached("SELECT # FROM t")
        assert analysis.tokens is None
        assert analysis.statement is None
        assert analysis.properties.word_count == 4


class TestCounters:
    def test_reset_zeroes_raw_work(self):
        analysis_cache.try_parse_cached("SELECT 1")
        analysis_cache.clear_caches()
        counters = analysis_cache.counters()
        assert counters.raw_parses == 0
        assert counters.raw_tokenizes == 0
        assert counters.parse_misses == 0

    def test_hits_accumulate(self):
        analysis_cache.clear_caches()
        analysis_cache.try_parse_cached("SELECT 2")
        analysis_cache.try_parse_cached("SELECT 2")
        counters = analysis_cache.counters()
        assert counters.raw_parses == 1
        assert counters.parse_hits == 1


class TestOneParsePerDistinctText:
    def test_mutation_free_grid_parses_each_distinct_text_once(self):
        """query_exp generates no new texts: 5 models x N instances over
        the same queries must cost exactly one raw parse per distinct
        text, no matter how many consumers touch it."""
        from repro.engine import EngineConfig, ExperimentEngine

        analysis_cache.clear_caches()
        engine = ExperimentEngine(EngineConfig(seed=0, max_instances=15))
        grid = engine.run_task("query_exp")
        distinct = {
            instance.payload["query"]
            for cell in grid.values()
            for instance in cell.dataset.instances
        }
        # The capped build stops generating at the cap, so only the
        # texts the dataset uses are parsed, not the whole workload.
        counters = analysis_cache.counters()
        assert counters.raw_parses == len(distinct)

        # A second full pass over the grid must not parse anything new.
        engine.run_task("query_exp")
        assert analysis_cache.counters().raw_parses == len(distinct)
