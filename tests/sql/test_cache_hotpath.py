"""PR-6 hot-path guarantees of the memo layer.

Four properties the rewritten pipeline must keep forever:

* :func:`~repro.sql.analysis_cache.clear_caches` really isolates
  measurements — after a clear, cached lookups run raw work again and
  the raw counters advance (this is what makes "raw" benchmark
  throughput trustworthy; before PR 6 the bench re-measured a warm memo
  and called it cold);
* the shared-AST mutation guard catches in-place mutation of cached
  statements (the PR-5 corruption-injector bug class) instead of letting
  the corruption leak into every later consumer of the cache;
* the hit/miss counters are exact under concurrent callers — the miss
  path increments them without a lock, so this is the test that the
  lock-free design actually counts;
* lexer/parser edge cases (negative literals, embedded quotes,
  comments, structurally corrupted text) survive the round trip through
  ``try_parse_cached`` unchanged.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corrupt.structural import STRUCTURAL_TYPES, inject_structural_error
from repro.sql import analysis_cache as ac
from repro.sql import nodes as n
from repro.sql.errors import SharedASTMutationError
from repro.sql.parser import parse_statement


@pytest.fixture()
def clean_cache():
    """A cleared memo layer with the mutation guard restored afterwards."""
    guard = ac.mutation_guard_enabled()
    ac.clear_caches()
    yield
    ac.enable_mutation_guard(guard)
    ac.clear_caches()


# ---------------------------------------------------------------------------
# Satellite 1: clear_caches isolates raw measurements
# ---------------------------------------------------------------------------


class TestClearCaches:
    def test_clear_forces_raw_work_again(self, clean_cache):
        """Re-measuring after a clear must re-run the raw pipeline; a
        warm memo silently serving "raw" throughput was the PR-3 bench
        bug this API exists to prevent."""
        texts = [f"SELECT c{i} FROM t{i}" for i in range(20)]
        for text in texts:
            ac.tokenize_cached(text)
            ac.try_parse_cached(text)
        assert ac.counters().raw_parses == len(texts)

        ac.clear_caches()
        counters = ac.counters()
        assert counters.raw_parses == 0
        assert counters.raw_tokenizes == 0

        # The crucial property: the next pass is raw again, not hits.
        for text in texts:
            ac.tokenize_cached(text)
            ac.try_parse_cached(text)
        counters = ac.counters()
        assert counters.raw_parses == len(texts)
        assert counters.raw_tokenizes == len(texts)
        assert counters.parse_hits == 0


# ---------------------------------------------------------------------------
# Satellite 2: shared-AST mutation guard
# ---------------------------------------------------------------------------


class TestMutationGuard:
    TEXT = "SELECT a, b FROM t WHERE a > 1"

    def _mutate_in_place(self, statement):
        """The PR-5 bug class: a transform editing a cached AST directly
        instead of cloning it first."""
        statement.query.body.from_items[0].name = "corrupted"

    def test_in_place_mutation_raises_on_next_read(self, clean_cache):
        ac.enable_mutation_guard(True)
        statement = ac.try_parse_cached(self.TEXT)
        self._mutate_in_place(statement)
        with pytest.raises(SharedASTMutationError):
            ac.try_parse_cached(self.TEXT)

    def test_without_guard_corruption_silently_leaks(self, clean_cache):
        """Documents the failure mode the guard exists for: with the
        guard off, every later consumer sees the corrupted AST."""
        ac.enable_mutation_guard(False)
        self._mutate_in_place(ac.try_parse_cached(self.TEXT))
        leaked = ac.try_parse_cached(self.TEXT)
        assert leaked.query.body.from_items[0].name == "corrupted"

    def test_clone_then_mutate_is_allowed(self, clean_cache):
        ac.enable_mutation_guard(True)
        statement = ac.try_parse_cached(self.TEXT)
        copy = n.clone(statement)
        copy.query.body.from_items[0].name = "renamed"
        # The cached original is untouched; reads stay clean.
        again = ac.try_parse_cached(self.TEXT)
        assert again.query.body.from_items[0].name == "t"
        assert again == statement

    def test_unmutated_reads_never_raise(self, clean_cache):
        ac.enable_mutation_guard(True)
        first = ac.try_parse_cached(self.TEXT)
        for _ in range(3):
            assert ac.try_parse_cached(self.TEXT) is first
            assert ac.parse_cached(self.TEXT) is first
            assert ac.analyze_cached(self.TEXT).statement is first

    def test_env_var_arms_the_guard(self, monkeypatch):
        import importlib

        monkeypatch.setenv("REPRO_DEBUG_SHARED_AST", "1")
        module = importlib.reload(ac)
        try:
            assert module.mutation_guard_enabled()
        finally:
            monkeypatch.delenv("REPRO_DEBUG_SHARED_AST")
            importlib.reload(module)


# ---------------------------------------------------------------------------
# Satellite 3: counters are exact under concurrency
# ---------------------------------------------------------------------------


class TestConcurrentCounters:
    def test_atomic_counter_loses_no_updates(self):
        counter = ac._AtomicCounter()
        per_thread, threads = 10_000, 8
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(
                pool.map(
                    lambda _: [counter.increment() for _ in range(per_thread)],
                    range(threads),
                )
            )
        assert counter.value() == per_thread * threads

    def test_concurrent_tokenize_over_disjoint_texts_counts_exactly(
        self, clean_cache
    ):
        """Eight threads, disjoint text sets: every text is raw-tokenized
        exactly once, and the totals add up without a single lost update."""
        threads, per_thread = 8, 150
        sets = [
            [f"SELECT col{t}_{i} FROM tab{t}_{i}" for i in range(per_thread)]
            for t in range(threads)
        ]

        def work(texts):
            return [len(ac.tokenize_cached(text)) for text in texts]

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, sets))
        assert all(lengths == [5] * per_thread for lengths in results)
        total = threads * per_thread
        assert ac.counters().raw_tokenizes == total

        # Second concurrent pass over the same sets: all hits, raw
        # counters frozen.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, sets))
        counters = ac.counters()
        assert counters.raw_tokenizes == total
        assert counters.tokenize_hits >= total


# ---------------------------------------------------------------------------
# Capacity sizing
# ---------------------------------------------------------------------------


class TestEnsureCapacity:
    def test_grows_with_headroom_and_never_shrinks(self, clean_cache):
        base = ac.capacity()
        grown = ac.ensure_capacity(100_000)
        assert grown == int(100_000 * ac.CAPACITY_HEADROOM)
        assert ac.capacity() == grown
        # Smaller follow-up workloads must not shrink a hot table.
        assert ac.ensure_capacity(10) == grown
        assert ac.capacity() == grown
        assert grown > base

    def test_small_workloads_keep_the_floor(self):
        assert ac.ensure_capacity(1) >= ac.LRU_CAPACITY

    def test_stats_survive_a_rebuild(self, clean_cache):
        texts = [f"SELECT x{i} FROM y" for i in range(10)]
        for text in texts:
            ac.try_parse_cached(text)
            ac.try_parse_cached(text)
        before = ac.counters()
        assert before.parse_hits == len(texts)

        ac.ensure_capacity(ac.capacity() * 2)  # forces a table rebuild
        after = ac.counters()
        assert after.parse_hits == before.parse_hits
        assert after.parse_misses == before.parse_misses
        assert after.raw_parses == before.raw_parses


# ---------------------------------------------------------------------------
# Satellite 4: edge cases through the cached pipeline
# ---------------------------------------------------------------------------


class TestEdgeCasesThroughCache:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT -3 AS neg FROM t WHERE x < -2.5",
            "SELECT -0.5e3 FROM t",
        ],
    )
    def test_negative_literals(self, text, clean_cache):
        statement = ac.try_parse_cached(text)
        assert statement is not None
        assert statement == parse_statement(text)
        unaries = [x for x in n.walk(statement) if isinstance(x, n.Unary)]
        assert unaries and all(u.op == "-" for u in unaries)

    def test_quoted_identifiers_with_embedded_quotes(self, clean_cache):
        text = 'SELECT "a ""quoted"" name", [bracketed name] FROM t'
        tokens = ac.tokenize_cached(text)
        assert [t.value for t in tokens[1:4]] == [
            'a "quoted" name',
            ",",
            "bracketed name",
        ]
        statement = ac.try_parse_cached(text)
        cols = [x for x in n.walk(statement) if isinstance(x, n.ColumnRef)]
        assert [c.name for c in cols] == ["bracketed name"]

    def test_escaped_single_quotes_in_strings(self, clean_cache):
        statement = ac.try_parse_cached("SELECT 'it''s' FROM t")
        lits = [x for x in n.walk(statement) if isinstance(x, n.Literal)]
        assert [x.value for x in lits] == ["it's"]

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a /* mid */ FROM t",
            "SELECT a FROM t -- trailing\n",
            "-- leading\nSELECT a FROM t",
            "SELECT a FROM t /* tail */",
        ],
    )
    def test_comments_are_trivia(self, text, clean_cache):
        statement = ac.try_parse_cached(text)
        assert statement is not None
        assert statement == parse_statement("SELECT a FROM t")

    def test_structural_corruption_classes_round_trip(self, clean_cache):
        """All three PR-5 structural corruption classes flow through
        try_parse_cached: the corrupted text either parses to the same
        AST as a fresh parse or is memoized as None — and repeated
        probes of the same corruption never re-run the parser."""
        from repro.workloads import load_workload

        workload = load_workload("synthetic:default:n=25", seed=5)
        rng = random.Random(3)
        covered: set[str] = set()
        for query in workload.queries:
            if query.statement is None:
                continue
            for error_type in STRUCTURAL_TYPES:
                corruption = inject_structural_error(
                    query.statement, rng, error_type=error_type
                )
                if corruption is None:
                    continue
                covered.add(error_type)
                cached = ac.try_parse_cached(corruption.text)
                try:
                    fresh = parse_statement(corruption.text)
                except Exception:
                    fresh = None
                assert cached == fresh
                raw_before = ac.counters().raw_parses
                assert ac.try_parse_cached(corruption.text) is cached
                assert ac.counters().raw_parses == raw_before
        assert covered == set(STRUCTURAL_TYPES)
