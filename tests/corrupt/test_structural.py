"""Structural corruption classes: applicability, labels, breakage."""

import random

import pytest

from repro.corrupt.structural import (
    CLAUSE_ORDER,
    DANGLING_ALIAS,
    PAREN_IMBALANCE,
    STRUCTURAL_TYPES,
    inject_structural_error,
)
from repro.sql.analysis_cache import try_parse_cached
from repro.sql.parser import parse_statement
from repro.sql.render import render
from repro.tasks.registry import build_dataset
from repro.tasks.syntax_error import ALL_ERROR_TYPES
from repro.workloads import load_workload

JOINED = (
    "SELECT t1.plate, t2.ra FROM SpecObj AS t1 "
    "JOIN PhotoObj AS t2 ON t1.bestobjid = t2.objid "
    "WHERE t1.z > 0.5 GROUP BY t1.plate HAVING COUNT(*) > 3"
)
NESTED = (
    "SELECT plate, mjd FROM SpecObj "
    "WHERE bestobjid IN (SELECT objid FROM PhotoObj WHERE run > 100) "
    "AND z < 2.0"
)
FLAT = "SELECT plate FROM SpecObj"


def _rng():
    return random.Random(42)


class TestClauseOrder:
    def test_swaps_clauses_into_unparseable_order(self):
        statement = parse_statement(JOINED)
        corruption = inject_structural_error(statement, _rng(), CLAUSE_ORDER)
        assert corruption is not None
        assert corruption.name == CLAUSE_ORDER
        assert corruption.text != corruption.original_text
        assert try_parse_cached(corruption.text) is None
        assert "swapped" in corruption.detail

    def test_needs_more_than_select_from(self):
        statement = parse_statement(FLAT)
        assert inject_structural_error(statement, _rng(), CLAUSE_ORDER) is None


class TestDanglingAlias:
    def test_drops_alias_definition_but_keeps_references(self):
        statement = parse_statement(JOINED)
        corruption = inject_structural_error(statement, _rng(), DANGLING_ALIAS)
        assert corruption is not None
        # Still parses — the breakage is a reference resolving nowhere.
        assert try_parse_cached(corruption.text) is not None
        dropped = "t1" if " AS t1" not in corruption.text else "t2"
        assert f" AS {dropped}" not in corruption.text
        assert f"{dropped}." in corruption.text

    def test_requires_an_aliased_reference(self):
        statement = parse_statement(FLAT)
        assert inject_structural_error(statement, _rng(), DANGLING_ALIAS) is None


class TestParenImbalance:
    def test_drops_a_subquery_closing_paren(self):
        statement = parse_statement(NESTED)
        corruption = inject_structural_error(statement, _rng(), PAREN_IMBALANCE)
        assert corruption is not None
        assert corruption.text.count("(") == corruption.text.count(")") + 1
        assert try_parse_cached(corruption.text) is None

    def test_requires_a_subquery(self):
        statement = parse_statement(JOINED)
        assert inject_structural_error(statement, _rng(), PAREN_IMBALANCE) is None


class TestDispatch:
    def test_nested_query_admits_paren_and_clause_errors(self):
        statement = parse_statement(NESTED)
        applicable = {
            error_type
            for error_type in STRUCTURAL_TYPES
            if inject_structural_error(statement, _rng(), error_type) is not None
        }
        assert PAREN_IMBALANCE in applicable
        assert CLAUSE_ORDER in applicable  # WHERE + IN gives >= 3 clauses

    def test_random_type_never_mutates_the_input(self):
        statement = parse_statement(JOINED)
        before = render(statement)
        for seed in range(10):
            inject_structural_error(statement, random.Random(seed))
        assert render(statement) == before

    def test_unknown_type_raises(self):
        statement = parse_statement(JOINED)
        with pytest.raises(KeyError):
            inject_structural_error(statement, _rng(), "not-a-type")


class TestDatasetIntegration:
    def test_synthetic_datasets_mix_in_structural_types(self):
        workload = load_workload("synthetic:default:n=8")
        dataset = build_dataset("syntax_error", workload, seed=0)
        types = {i.label_type for i in dataset.instances if i.label_type}
        assert types & set(STRUCTURAL_TYPES)
        assert types <= set(ALL_ERROR_TYPES)

    def test_paper_workloads_never_get_structural_types(self):
        workload = load_workload("join_order")
        dataset = build_dataset("syntax_error", workload, seed=0)
        types = {i.label_type for i in dataset.instances if i.label_type}
        assert not types & set(STRUCTURAL_TYPES)
