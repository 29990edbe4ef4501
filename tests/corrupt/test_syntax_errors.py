"""Syntax-error injection tests.

Core contract: for every injection, the semantic analyzer detects the
intended violation on the corrupted text, and the corrupted text parses.
"""

import random

import pytest

from repro.analysis import SemanticAnalyzer, paper_violations
from repro.corrupt import ERROR_TYPES, inject_syntax_error
from repro.schema import SDSS_SCHEMA
from repro.sql.parser import parse_statement, try_parse
from repro.workloads import load_workload

BASE_QUERIES = {
    "plain": "SELECT plate, mjd FROM SpecObj WHERE z > 0.5",
    "grouped": "SELECT plate, COUNT(*) FROM SpecObj GROUP BY plate",
    "joined": (
        "SELECT s.plate, p.ra FROM SpecObj AS s JOIN PhotoObj AS p "
        "ON s.bestobjid = p.objid WHERE s.z > 0.5"
    ),
    "nested": (
        "SELECT plate FROM SpecObj WHERE bestobjid IN "
        "(SELECT objid FROM PhotoObj WHERE ra > 180)"
    ),
}


@pytest.fixture(scope="module")
def analyzer():
    return SemanticAnalyzer(SDSS_SCHEMA)


class TestInjectionDetectability:
    @pytest.mark.parametrize("error_type", ERROR_TYPES)
    @pytest.mark.parametrize("base_name", list(BASE_QUERIES))
    def test_injected_error_is_detected(self, analyzer, error_type, base_name):
        statement = parse_statement(BASE_QUERIES[base_name])
        rng = random.Random(f"{error_type}-{base_name}")
        corruption = inject_syntax_error(
            statement, SDSS_SCHEMA, rng, error_type=error_type
        )
        if corruption is None:
            pytest.skip(f"{error_type} not applicable to {base_name}")
        mutated = try_parse(corruption.text)
        assert mutated is not None, corruption.text
        codes = {v.code for v in analyzer.analyze(mutated)}
        assert error_type in codes, (corruption.text, codes)

    def test_original_statement_not_mutated(self):
        statement = parse_statement(BASE_QUERIES["joined"])
        before = str(statement)
        inject_syntax_error(statement, SDSS_SCHEMA, random.Random(0))
        assert str(statement) == before

    def test_random_type_choice_is_deterministic(self):
        statement = parse_statement(BASE_QUERIES["joined"])
        first = inject_syntax_error(statement, SDSS_SCHEMA, random.Random(9))
        second = inject_syntax_error(statement, SDSS_SCHEMA, random.Random(9))
        assert first == second

    def test_unknown_error_type_raises(self):
        statement = parse_statement(BASE_QUERIES["plain"])
        with pytest.raises(KeyError):
            inject_syntax_error(
                statement, SDSS_SCHEMA, random.Random(0), error_type="typo-error"
            )

    def test_not_applicable_returns_none(self):
        statement = parse_statement("DECLARE @z FLOAT")
        result = inject_syntax_error(statement, SDSS_SCHEMA, random.Random(0))
        assert result is None

    def test_corruption_carries_original(self):
        statement = parse_statement(BASE_QUERIES["plain"])
        corruption = inject_syntax_error(statement, SDSS_SCHEMA, random.Random(1))
        assert corruption.original_text == BASE_QUERIES["plain"]
        assert corruption.text != corruption.original_text


def _applicable(query: str) -> set[str]:
    """The error types whose injector applies to *query*."""
    statement = parse_statement(query)
    return {
        error_type
        for error_type in ERROR_TYPES
        if inject_syntax_error(statement, SDSS_SCHEMA, random.Random(0), error_type)
        is not None
    }


class TestApplicability:
    def test_joined_query_supports_all_types(self):
        assert _applicable(BASE_QUERIES["joined"]) == set(ERROR_TYPES)

    def test_single_table_query_excludes_ambiguity(self):
        applicable = _applicable(BASE_QUERIES["plain"])
        assert "alias-ambiguous" not in applicable
        assert "aggr-attr" in applicable


class TestOnWorkloads:
    """Injection must work at scale on real workload queries."""

    @pytest.mark.parametrize("name", ["sdss", "sqlshare", "join_order"])
    def test_bulk_injection_detected(self, name):
        workload = load_workload(name, seed=0)
        rng = random.Random(42)
        injected = 0
        detected = 0
        for query in workload.select_queries()[:60]:
            schema = workload.schema_for(query)
            corruption = inject_syntax_error(query.statement, schema, rng)
            if corruption is None:
                continue
            injected += 1
            analyzer = SemanticAnalyzer(schema)
            violations = analyzer.analyze_sql(corruption.text)
            if corruption.name in {v.code for v in violations}:
                detected += 1
        assert injected >= 40
        assert detected == injected

    def test_clean_queries_have_no_violations_before_injection(self):
        workload = load_workload("sdss", seed=0)
        analyzer = SemanticAnalyzer(workload.schemas["sdss"])
        for query in workload.select_queries()[:40]:
            assert paper_violations(analyzer.analyze(query.statement)) == []
