"""Pair-generation tests (the query_equiv dataset of section 3.2)."""

import sqlite3
from itertools import islice

import pytest

from repro.equivalence import (
    EQUIVALENCE_TYPES,
    NON_EQUIVALENCE_TYPES,
    EquivalenceChecker,
    QueryEquivPairs,
    iter_verified_pairs,
)
from repro.equivalence import pairs as pairs_module
from repro.equivalence.pairs import CHECKER_SETTINGS, eligible_for_pairing
from repro.sql.properties import extract_properties
from repro.sql.render import render
from repro.tasks.streaming import iter_task_instances
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def sdss_pairs():
    workload = load_workload("sdss", seed=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(CHECKER_SETTINGS, "sdss", {"rows_per_table": 50})
        pairs = list(
            iter_verified_pairs(workload, QueryEquivPairs(), seed=0, max_pairs=60)
        )
    return workload, pairs


class TestPairGeneration:
    def test_pairs_produced(self, sdss_pairs):
        _, pairs = sdss_pairs
        assert len(pairs) >= 40

    def test_roughly_balanced_labels(self, sdss_pairs):
        _, pairs = sdss_pairs
        equivalent = sum(1 for p in pairs if p.equivalent)
        assert 0.35 <= equivalent / len(pairs) <= 0.65

    def test_types_match_label(self, sdss_pairs):
        _, pairs = sdss_pairs
        for pair in pairs:
            if pair.equivalent:
                assert pair.pair_type in EQUIVALENCE_TYPES
            else:
                assert pair.pair_type in NON_EQUIVALENCE_TYPES

    def test_pair_texts_differ(self, sdss_pairs):
        _, pairs = sdss_pairs
        for pair in pairs:
            assert pair.first_text != pair.second_text

    def test_labels_verified_by_execution(self, sdss_pairs):
        """Re-verify a sample of pairs against fresh checker instances."""
        workload, pairs = sdss_pairs
        checker = EquivalenceChecker(
            workload.schemas["sdss"], seeds=(101, 202), rows_per_table=50
        )
        try:
            for pair in pairs[:20]:
                verdict = checker.verdict(pair.first_text, pair.second_text)
                if pair.equivalent:
                    assert verdict is True, (pair.pair_type, pair.second_text)
                # Non-equivalent pairs were proven different on *some*
                # instance; fresh instances may not witness it, so only
                # the equivalent label is universally re-checkable.
        finally:
            checker.close()

    def test_deterministic(self, monkeypatch):
        workload = load_workload("sqlshare", seed=0)
        monkeypatch.setitem(CHECKER_SETTINGS, "sqlshare", {"rows_per_table": 30})
        first, second = (
            list(iter_verified_pairs(workload, QueryEquivPairs(), seed=1, max_pairs=12))
            for _ in range(2)
        )
        assert [(p.second_text, p.equivalent) for p in first] == [
            (p.second_text, p.equivalent) for p in second
        ]

    def test_no_limit_queries_used(self, sdss_pairs):
        _, pairs = sdss_pairs
        for pair in pairs:
            assert " TOP " not in pair.first_text
            assert "LIMIT" not in pair.first_text

    def test_pairs_carry_a_copy_of_the_source_properties(self, sdss_pairs):
        workload, pairs = sdss_pairs
        by_id = {query.query_id: query for query in workload}
        for pair in pairs:
            source = by_id[pair.source_query_id]
            assert pair.first_props == source.properties
            assert pair.first_props is not source.properties


class TestAbandonedStreamReleasesCheckers:
    """The streamed path stops a pair stream early (at ``--max-instances``
    or on an interrupt); closing it must close every checker it opened."""

    @pytest.mark.parametrize(
        "task, workload_name",
        [("query_equiv", "sdss"), ("rewrite_equivalence", "synthetic:rewrite:n=4")],
    )
    def test_closing_the_stream_closes_its_checkers(
        self, monkeypatch, task, workload_name
    ):
        opened = []

        class RecordingChecker(EquivalenceChecker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(pairs_module, "EquivalenceChecker", RecordingChecker)
        stream = iter_task_instances(task, load_workload(workload_name, seed=0))
        assert len(list(islice(stream, 3))) == 3
        databases = [db for checker in opened for db in checker._databases or ()]
        assert databases  # the verdicts so far opened instances
        stream.close()
        assert all(checker._databases is None for checker in opened)
        for database in databases:
            with pytest.raises(sqlite3.ProgrammingError):
                database.connection.execute("SELECT 1")


class TestSourcePropertiesMeasureTheFirstText:
    """A pair's first text is its source query rendered, and measuring
    that text gives the source query's properties — which is why a
    query_equiv instance carries them instead of re-parsing the text."""

    @pytest.mark.parametrize(
        "name", ("sdss", "sqlshare", "join_order", "spider", "synthetic:default:n=40")
    )
    def test_every_pair_eligible_query(self, name):
        for seed in range(4):
            for query in load_workload(name, seed):
                if query.properties.query_type not in ("SELECT", "WITH"):
                    continue
                if not eligible_for_pairing(query):
                    continue
                text = render(query.statement)
                assert text == query.text, (name, seed, query.query_id)
                assert extract_properties(text) == query.properties, (
                    name,
                    seed,
                    query.query_id,
                )


class TestCheckerBehaviour:
    def test_verdict_none_for_unparseable(self):
        workload = load_workload("sdss", seed=0)
        checker = EquivalenceChecker(workload.schemas["sdss"], rows_per_table=20)
        try:
            assert checker.verdict("SELECT FROM", "SELECT plate FROM SpecObj") is None
        finally:
            checker.close()

    def test_verdict_true_for_identical(self):
        workload = load_workload("sdss", seed=0)
        checker = EquivalenceChecker(workload.schemas["sdss"], rows_per_table=20)
        try:
            sql = "SELECT plate FROM SpecObj WHERE z > 1"
            assert checker.verdict(sql, sql) is True
        finally:
            checker.close()

    def test_verdict_false_for_different_filters(self):
        workload = load_workload("sdss", seed=0)
        checker = EquivalenceChecker(workload.schemas["sdss"], rows_per_table=20)
        try:
            assert (
                checker.verdict(
                    "SELECT plate FROM SpecObj WHERE z > 0.5",
                    "SELECT plate FROM SpecObj WHERE z > 5",
                )
                is False
            )
        finally:
            checker.close()
