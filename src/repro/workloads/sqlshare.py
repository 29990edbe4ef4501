"""SQLShare workload generator: 250 queries matching Figure 2 / Table 2.

Quota plan:

* query_type (Fig 2a): SELECT 238, WITH 10, CREATE 1, WAITFOR 1.
* word_count (Fig 2b): heavily short — ~178 in 1-30, thin long tail.
* table_count (Fig 2c): dominated by single-table queries (166 at 1).
* nestedness (Fig 2e): 0: 211, 1: 28 (18 subqueries + 10 CTEs), 2: 7,
  3: 2, 4: 1, 5: 1.
* aggregate (Table 2): 59 aggregate queries.

Unlike SDSS, each query targets one of five independent mini-schemas —
the defining property of SQLShare (many small user databases).
"""

from __future__ import annotations

import random

from repro.schema.model import Schema
from repro.schema.sqlshare import build_sqlshare_schemas
from repro.sql import nodes as n
from repro.sql.properties import extract_statement_properties
from repro.sql.render import render
from repro.util import derive_rng
from repro.workloads.base import SQLSHARE, Workload, WorkloadQuery
from repro.workloads.builders import (
    SourceCtx,
    append_condition,
    number_literal,
    pad_select_to_words,
    random_predicate,
    select_columns,
    statement_word_count,
)


def generate_sqlshare(seed: int = 0) -> Workload:
    """Build the deterministic 250-query SQLShare dataset."""
    schemas = build_sqlshare_schemas()
    rng = derive_rng("sqlshare-workload", seed)
    jobs: list[tuple[n.Statement, Schema, str]] = []

    def schema_rr(index: int) -> Schema:
        return schemas[index % len(schemas)]

    builder = _SqlShareBuilder(rng)
    counter = 0
    for _ in range(46):
        schema = schema_rr(counter)
        jobs.append((builder.star_scan(schema), schema, "star_scan"))
        counter += 1
    for _ in range(76):
        schema = schema_rr(counter)
        jobs.append(
            (builder.simple_filter(schema, rng.randint(8, 26)), schema, "simple_filter")
        )
        counter += 1
    for _ in range(40):
        schema = schema_rr(counter)
        jobs.append((builder.aggregate_simple(schema), schema, "aggregate"))
        counter += 1
    for _ in range(19):
        schema = schema_rr(counter)
        jobs.append(
            (
                builder.aggregate_having(schema, rng.randint(26, 52)),
                schema,
                "aggregate_having",
            )
        )
        counter += 1
    for _ in range(24):
        schema = schema_rr(counter)
        jobs.append(
            (builder.join_two(schema, rng.randint(30, 56)), schema, "join_two")
        )
        counter += 1
    nested_plan = [(1, 18, (26, 56)), (2, 7, (62, 86)), (3, 2, (92, 114)), (4, 1, (122, 150)), (5, 1, (122, 160))]
    for depth, count, (lo, hi) in nested_plan:
        for _ in range(count):
            schema = schema_rr(counter)
            jobs.append(
                (
                    builder.nested(schema, depth, rng.randint(lo, hi)),
                    schema,
                    f"nested_d{depth}",
                )
            )
            counter += 1
    for _ in range(4):
        schema = schema_rr(counter)
        jobs.append(
            (builder.wide_long(schema, rng.randint(122, 170)), schema, "wide_long")
        )
        counter += 1
    for _ in range(10):
        schema = schema_rr(counter)
        jobs.append((builder.cte_query(schema, rng.randint(28, 56)), schema, "cte"))
        counter += 1
    create_schema = schemas[0]
    jobs.append((builder.create_table(), create_schema, "create"))
    jobs.append((n.Waitfor(delay="00:00:05"), create_schema, "waitfor"))

    rng.shuffle(jobs)
    workload = Workload(
        name=SQLSHARE, schemas={schema.name: schema for schema in schemas}
    )
    for index, (statement, schema, archetype) in enumerate(jobs):
        text = render(statement)
        query = WorkloadQuery(
            query_id=f"sqlshare-{index:04d}",
            text=text,
            workload=SQLSHARE,
            schema_name=schema.name,
            archetype=archetype,
        )
        query._statement = statement
        query._properties = extract_statement_properties(statement, text)
        workload.queries.append(query)
    return workload


class _SqlShareBuilder:
    """Archetype builders parameterised by mini-schema."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def _pick_table(self, schema: Schema) -> SourceCtx:
        return SourceCtx(table=self.rng.choice(schema.tables))

    def star_scan(self, schema: Schema) -> n.Statement:
        ctx = self._pick_table(schema)
        core = n.SelectCore(
            items=[n.SelectItem(expr=n.Star())],
            from_items=[n.NamedTable(name=ctx.table.name)],
        )
        if self.rng.random() < 0.3:
            core.limit = self.rng.choice([10, 100, 1000])
        return n.SelectStatement(query=n.Query(body=core))

    def simple_filter(self, schema: Schema, target_words: int) -> n.Statement:
        rng = self.rng
        ctx = self._pick_table(schema)
        core = n.SelectCore(
            items=select_columns([ctx], rng, rng.randint(1, 3), qualify=False),
            from_items=[n.NamedTable(name=ctx.table.name)],
        )
        predicate = random_predicate(ctx, rng, qualify=False)
        if predicate is not None:
            core.where = predicate
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, [ctx], rng, target_words, qualify=False, max_predicates=1
        )
        return statement

    def aggregate_simple(self, schema: Schema) -> n.Statement:
        rng = self.rng
        ctx = self._pick_table(schema)
        numeric = ctx.table.numeric_columns()
        agg = rng.choice(["COUNT", "AVG", "MIN", "MAX", "SUM"])
        if agg == "COUNT":
            expr = n.FuncCall(name="COUNT", args=[n.Star()])
        else:
            expr = n.FuncCall(name=agg, args=[n.ColumnRef(name=rng.choice(numeric).name)])
        core = n.SelectCore(
            items=[n.SelectItem(expr=expr)],
            from_items=[n.NamedTable(name=ctx.table.name)],
        )
        if rng.random() < 0.45:
            predicate = random_predicate(ctx, rng, qualify=False)
            if predicate is not None:
                core.where = predicate
        return n.SelectStatement(query=n.Query(body=core))

    def aggregate_having(self, schema: Schema, target_words: int) -> n.Statement:
        rng = self.rng
        ctx = self._pick_table(schema)
        group_col = rng.choice(
            [c for c in ctx.table.columns if not c.primary_key]
        )
        core = n.SelectCore(
            items=[
                n.SelectItem(expr=n.ColumnRef(name=group_col.name)),
                n.SelectItem(expr=n.FuncCall(name="COUNT", args=[n.Star()]), alias="n"),
            ],
            from_items=[n.NamedTable(name=ctx.table.name)],
            group_by=[n.ColumnRef(name=group_col.name)],
            having=n.Binary(
                op=">",
                left=n.FuncCall(name="COUNT", args=[n.Star()]),
                right=number_literal(rng.randint(1, 20)),
            ),
        )
        statement = n.SelectStatement(query=n.Query(body=core))
        words = statement_word_count(statement)
        guard = 0
        while words < target_words and guard < 12:
            guard += 1
            predicate = random_predicate(ctx, rng, qualify=False)
            if predicate is not None:
                words += append_condition(core, predicate)
        if rng.random() < 0.5:
            core.order_by = [n.OrderItem(expr=n.ColumnRef(name="n"), direction="DESC")]
        return statement

    def _join_pair(self, schema: Schema) -> tuple[n.Join, list[SourceCtx]] | None:
        edges = schema.join_edges()
        if not edges:
            return None
        child_name, child_col, parent_name, parent_col = self.rng.choice(edges)
        child = SourceCtx(table=schema.table(child_name), alias="a")
        parent = SourceCtx(table=schema.table(parent_name), alias="b")
        join = n.Join(
            left=n.NamedTable(name=child.table.name, alias="a"),
            right=n.NamedTable(name=parent.table.name, alias="b"),
            kind="INNER" if self.rng.random() < 0.8 else "LEFT",
            condition=n.Binary(
                op="=",
                left=n.ColumnRef(name=child_col, table="a"),
                right=n.ColumnRef(name=parent_col, table="b"),
            ),
        )
        return join, [child, parent]

    def join_two(self, schema: Schema, target_words: int) -> n.Statement:
        rng = self.rng
        pair = self._join_pair(schema)
        if pair is None:
            return self.simple_filter(schema, target_words)
        join, ctxs = pair
        core = n.SelectCore(
            items=select_columns(ctxs, rng, rng.randint(3, 5), qualify=True),
            from_items=[join],
        )
        predicate = random_predicate(ctxs[0], rng, qualify=True)
        if predicate is not None:
            core.where = predicate
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, ctxs, rng, target_words, qualify=True, max_predicates=2
        )
        return statement

    def nested(self, schema: Schema, depth: int, target_words: int) -> n.Statement:
        """IN-subquery chains along FK edges (wrapping when depth > edges)."""
        rng = self.rng
        edges = schema.join_edges()
        if not edges:
            return self.simple_filter(schema, target_words)
        inner_query: n.Query | None = None
        chain = [edges[i % len(edges)] for i in range(depth)]
        outer_link = chain[0]
        for level in range(depth - 1, -1, -1):
            child_name, child_col, parent_name, parent_col = chain[level]
            parent_ctx = SourceCtx(table=schema.table(parent_name))
            core = n.SelectCore(
                items=[n.SelectItem(expr=n.ColumnRef(name=parent_col))],
                from_items=[n.NamedTable(name=parent_name)],
            )
            predicate = random_predicate(parent_ctx, rng, qualify=False)
            if predicate is not None:
                core.where = predicate
            if inner_query is not None:
                deeper_child_col = chain[level + 1][1]
                membership = n.InSubquery(
                    expr=n.ColumnRef(name=deeper_child_col), query=inner_query
                )
                if core.where is None:
                    core.where = membership
                else:
                    core.where = n.Binary(op="AND", left=core.where, right=membership)
            inner_query = n.Query(body=core)
        child_name, child_col = outer_link[0], outer_link[1]
        outer_ctx = SourceCtx(table=schema.table(child_name))
        outer_core = n.SelectCore(
            items=select_columns([outer_ctx], rng, rng.randint(2, 3), qualify=False),
            from_items=[n.NamedTable(name=child_name)],
            where=n.InSubquery(expr=n.ColumnRef(name=child_col), query=inner_query),
        )
        statement = n.SelectStatement(query=n.Query(body=outer_core))
        pad_select_to_words(
            statement,
            outer_core,
            [outer_ctx],
            rng,
            target_words,
            qualify=False,
            max_predicates=2,
        )
        return statement

    def wide_long(self, schema: Schema, target_words: int) -> n.Statement:
        statement = self.join_two(schema, target_words)
        return statement

    def cte_query(self, schema: Schema, target_words: int) -> n.Statement:
        rng = self.rng
        ctx = self._pick_table(schema)
        inner_items = select_columns([ctx], rng, rng.randint(2, 3), qualify=False)
        inner_core = n.SelectCore(
            items=inner_items,
            from_items=[n.NamedTable(name=ctx.table.name)],
        )
        predicate = random_predicate(ctx, rng, qualify=False)
        if predicate is not None:
            inner_core.where = predicate
        cte_name = f"filtered_{ctx.table.name.lower()}"
        outer_items = [
            n.SelectItem(expr=n.ColumnRef(name=item.expr.name))
            for item in inner_items
            if isinstance(item.expr, n.ColumnRef)
        ] or [n.SelectItem(expr=n.Star())]
        outer_core = n.SelectCore(
            items=outer_items,
            from_items=[n.NamedTable(name=cte_name)],
        )
        query = n.Query(
            body=outer_core,
            ctes=[n.CommonTableExpr(name=cte_name, query=n.Query(body=inner_core))],
        )
        statement = n.SelectStatement(query=query)
        inner_ctx = SourceCtx(table=ctx.table)
        words = statement_word_count(statement)
        guard = 0
        while words < target_words and guard < 10:
            guard += 1
            extra = random_predicate(inner_ctx, rng, qualify=False)
            if extra is not None:
                words += append_condition(inner_core, extra)
        return statement

    def create_table(self) -> n.Statement:
        return n.CreateTable(
            name="uploaded_dataset",
            columns=[
                n.ColumnDef(name="row_id", type_name="INT", primary_key=True),
                n.ColumnDef(name="label", type_name="VARCHAR(64)"),
                n.ColumnDef(name="value", type_name="FLOAT"),
            ],
        )
