"""Tests for the shared query-construction helpers."""

import random

import pytest

from repro.analysis import SemanticAnalyzer, paper_violations
from repro.schema import IMDB_SCHEMA, SDSS_SCHEMA
from repro.sql import nodes as n
from repro.sql.render import render
from repro.workloads.builders import (
    SourceCtx,
    and_all,
    append_condition,
    append_select_item,
    fk_join_path,
    number_literal,
    numeric_predicate,
    pad_select_to_words,
    random_predicate,
    select_columns,
    statement_word_count,
    string_literal,
    text_predicate,
)


@pytest.fixture
def spec_ctx():
    return SourceCtx(table=SDSS_SCHEMA.table("SpecObj"), alias="s")


class TestPredicates:
    def test_numeric_predicate_type_correct(self, spec_ctx):
        analyzer = SemanticAnalyzer(SDSS_SCHEMA)
        for seed in range(30):
            predicate = numeric_predicate(spec_ctx, random.Random(seed), qualify=True)
            sql = f"SELECT s.plate FROM SpecObj AS s WHERE {render(predicate)}"
            assert paper_violations(analyzer.analyze_sql(sql)) == [], sql

    def test_text_predicate_type_correct(self, spec_ctx):
        analyzer = SemanticAnalyzer(SDSS_SCHEMA)
        for seed in range(30):
            predicate = text_predicate(spec_ctx, random.Random(seed), qualify=True)
            sql = f"SELECT s.plate FROM SpecObj AS s WHERE {render(predicate)}"
            assert paper_violations(analyzer.analyze_sql(sql)) == [], sql

    def test_random_predicate_never_none_for_rich_table(self, spec_ctx):
        for seed in range(20):
            assert random_predicate(spec_ctx, random.Random(seed), True) is not None

    def test_unqualified_mode(self, spec_ctx):
        predicate = numeric_predicate(spec_ctx, random.Random(0), qualify=False)
        for node in n.walk(predicate):
            if isinstance(node, n.ColumnRef):
                assert node.table is None


class TestCombinators:
    def test_and_all_empty(self):
        assert and_all([]) is None

    def test_and_all_single(self):
        expr = n.ColumnRef(name="x")
        assert and_all([expr]) is expr

    def test_and_all_left_associative(self):
        parts = [n.ColumnRef(name=c) for c in "abc"]
        combined = and_all(parts)
        assert combined.op == "AND"
        assert combined.left.op == "AND"

    def test_append_condition(self):
        core = n.SelectCore(items=[n.SelectItem(expr=n.Star())])
        append_condition(core, n.ColumnRef(name="a"))
        assert core.where == n.ColumnRef(name="a")
        append_condition(core, n.ColumnRef(name="b"))
        assert core.where.op == "AND"

    def test_appends_return_the_words_they_add(self):
        """Padding counts words incrementally from these return values,
        so each must equal the growth of the fully rendered statement."""
        a, b = n.ColumnRef(name="a", table="t"), n.ColumnRef(name="b")
        one = number_literal(1)
        core = n.SelectCore(items=[n.SelectItem(expr=a)], from_items=[n.NamedTable(name="t")])
        statement = n.SelectStatement(query=n.Query(body=core))
        subquery = n.Query(
            body=n.SelectCore(items=[n.SelectItem(expr=b)], from_items=[n.NamedTable(name="u")])
        )
        conditions = [
            # An OR conjunct is parenthesised once it becomes an AND operand.
            n.Binary(
                op="OR",
                left=n.Binary(op="=", left=a, right=one),
                right=n.Binary(op=">", left=b, right=one),
            ),
            n.Binary(op="AND", left=n.Binary(op="<", left=a, right=one), right=b),
            n.Between(expr=b, low=one, high=number_literal(2.5)),
            n.InSubquery(expr=a, query=subquery),
            n.Like(expr=b, pattern=string_literal("two words%")),
        ]
        for condition in conditions:
            before = statement_word_count(statement)
            added = append_condition(core, condition)
            assert statement_word_count(statement) == before + added
        items = [
            n.SelectItem(expr=b),
            n.SelectItem(expr=n.Binary(op="+", left=a, right=one), alias="expr_2"),
            n.SelectItem(expr=n.FuncCall(name="MIN", args=[a]), alias="t_a_3"),
        ]
        for item in items:
            before = statement_word_count(statement)
            added = append_select_item(core, item)
            assert statement_word_count(statement) == before + added


class TestSelectColumns:
    def test_count_and_uniqueness(self, spec_ctx):
        items = select_columns([spec_ctx], random.Random(1), 5, qualify=True)
        assert len(items) == 5
        names = [(item.expr.table, item.expr.name) for item in items]
        assert len(set(names)) == 5

    def test_falls_back_to_star(self):
        empty = SourceCtx(
            table=type(SDSS_SCHEMA.table("SpecObj"))(name="empty", columns=[])
        )
        items = select_columns([empty], random.Random(0), 3, qualify=False)
        assert isinstance(items[0].expr, n.Star)


class TestPadding:
    def test_reaches_target_words(self, spec_ctx):
        core = n.SelectCore(
            items=select_columns([spec_ctx], random.Random(0), 2, qualify=True),
            from_items=[n.NamedTable(name="SpecObj", alias="s")],
        )
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, [spec_ctx], random.Random(0), 60, qualify=True
        )
        assert statement_word_count(statement) >= 60

    def test_padding_stays_clean(self, spec_ctx):
        analyzer = SemanticAnalyzer(SDSS_SCHEMA)
        core = n.SelectCore(
            items=select_columns([spec_ctx], random.Random(3), 2, qualify=True),
            from_items=[n.NamedTable(name="SpecObj", alias="s")],
        )
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, [spec_ctx], random.Random(3), 120, qualify=True
        )
        assert paper_violations(analyzer.analyze(statement)) == []

    def test_max_predicates_respected(self, spec_ctx):
        from repro.sql.properties import extract_statement_properties

        core = n.SelectCore(
            items=select_columns([spec_ctx], random.Random(5), 2, qualify=True),
            from_items=[n.NamedTable(name="SpecObj", alias="s")],
        )
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, [spec_ctx], random.Random(5), 100,
            qualify=True, max_predicates=2,
        )
        props = extract_statement_properties(statement, render(statement))
        assert props.predicate_count <= 2


class TestFkJoinPath:
    def test_path_is_connected(self):
        for seed in range(10):
            edges = fk_join_path(IMDB_SCHEMA, random.Random(seed), 6, start="title")
            included = set()
            for child, _, parent, _ in edges:
                if included:
                    assert child.lower() in included or parent.lower() in included
                included.add(child.lower())
                included.add(parent.lower())
            assert len(included) >= 4

    def test_edges_are_real_fks(self):
        real = set(IMDB_SCHEMA.join_edges())
        edges = fk_join_path(IMDB_SCHEMA, random.Random(2), 8, start="title")
        for edge in edges:
            assert edge in real

    def test_empty_schema_returns_nothing(self):
        from repro.schema.model import Schema

        assert fk_join_path(Schema(name="empty"), random.Random(0), 3) == []
