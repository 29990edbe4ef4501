"""SDSS workload generator: 285 queries matching Figure 1 / Table 2.

Quota plan (derived from the paper's histograms):

* query_type (Fig 1a): SELECT 251, SET 11, EXEC 8, DROP 6, DECLARE 4,
  CREATE 3, INSERT 2.
* word_count (Fig 1b): 1-30: 112 (78 SELECTs + 34 non-SELECTs),
  30-60: 33, 60-90: 14, 90-120: 83, 120+: 43.
* nestedness (Fig 1e): depth 1: 4, 2: 7, 3: 8, 4: 3, 5: 5, 6: 7 — all
  placed in the 120+ word bucket, as deep SkyServer queries are long.
* aggregate (Table 2): exactly 21 queries use aggregates.

Every query carries a simulated elapsed-time log entry from
:mod:`repro.perf.cost_model` (Figure 5's bimodal distribution).
"""

from __future__ import annotations

import random

from repro.perf.cost_model import simulate_elapsed_ms
from repro.schema.sdss import build_sdss_schema
from repro.sql import nodes as n
from repro.sql.properties import extract_statement_properties
from repro.sql.render import render
from repro.util import derive_rng
from repro.workloads.base import SDSS, Workload, WorkloadQuery
from repro.workloads.builders import (
    SourceCtx,
    and_all,
    append_condition,
    number_literal,
    pad_select_to_words,
    random_predicate,
    select_columns,
    statement_word_count,
)

#: FK-ish key chain used to build arbitrarily deep IN-subquery nests.
#: Each entry: (outer table, outer key column, inner table, inner key column).
_NEST_CHAIN: tuple[tuple[str, str, str, str], ...] = (
    ("SpecObj", "bestobjid", "PhotoObj", "objid"),
    ("PhotoObj", "objid", "PhotoTag", "objid"),
    ("PhotoTag", "objid", "Galaxy", "objid"),
    ("Galaxy", "objid", "Neighbors", "neighborObjid"),
    ("Neighbors", "objid", "PhotoObj", "objid"),
    ("PhotoObj", "objid", "SpecObj", "bestobjid"),
)

#: Two-table joins available in the schema (left, key, right, key).
_JOIN_PAIRS: tuple[tuple[str, str, str, str], ...] = (
    ("SpecObj", "bestobjid", "PhotoObj", "objid"),
    ("PhotoTag", "objid", "PhotoObj", "objid"),
    ("SpecLine", "specobjid", "SpecObj", "specobjid"),
    ("Galaxy", "objid", "PhotoObj", "objid"),
    ("Neighbors", "objid", "PhotoObj", "objid"),
)

_SINGLE_TABLES = ("SpecObj", "PhotoObj", "PhotoTag", "Field", "SpecLine", "Galaxy")


def generate_sdss(seed: int = 0) -> Workload:
    """Build the deterministic 285-query SDSS dataset."""
    schema = build_sdss_schema()
    rng = derive_rng("sdss-workload", seed)
    builder = _SdssBuilder(schema, rng)
    statements: list[tuple[n.Statement, str]] = []

    for _ in range(63):
        statements.append((builder.simple_filter(rng.randint(9, 27)), "simple_filter"))
    for _ in range(15):
        statements.append((builder.aggregate_groupby(rng.randint(10, 27)), "aggregate"))
    for _ in range(6):
        statements.append(
            (builder.aggregate_having(rng.randint(32, 54)), "aggregate_having")
        )
    for _ in range(27):
        statements.append((builder.join_filter(rng.randint(32, 56)), "join_filter"))
    for _ in range(14):
        statements.append((builder.join_filter(rng.randint(62, 86)), "join_wide"))
    for _ in range(83):
        statements.append((builder.cone_wide(rng.randint(92, 114)), "cone_wide"))
    for depth, count in ((1, 4), (2, 7), (3, 8), (4, 3), (5, 5), (6, 7)):
        for _ in range(count):
            statements.append(
                (builder.nested(depth, rng.randint(122, 170)), f"nested_d{depth}")
            )
    for _ in range(9):
        statements.append((builder.long_flat(rng.randint(122, 190)), "long_flat"))

    statements.extend(builder.non_select_statements())
    rng.shuffle(statements)

    workload = Workload(name=SDSS, schemas={schema.name: schema})
    runtime_rng = derive_rng("sdss-runtimes", seed)
    for index, (statement, archetype) in enumerate(statements):
        text = render(statement)
        props = extract_statement_properties(statement, text)
        query = WorkloadQuery(
            query_id=f"sdss-{index:04d}",
            text=text,
            workload=SDSS,
            schema_name=schema.name,
            archetype=archetype,
            elapsed_ms=simulate_elapsed_ms(props, runtime_rng),
        )
        query._statement = statement
        query._properties = props
        workload.queries.append(query)
    return workload


class _SdssBuilder:
    """Archetype builders over the SDSS schema."""

    def __init__(self, schema, rng: random.Random) -> None:
        self.schema = schema
        self.rng = rng

    def _ctx(self, table_name: str, alias: str | None = None) -> SourceCtx:
        return SourceCtx(table=self.schema.table(table_name), alias=alias)

    def simple_filter(self, target_words: int) -> n.Statement:
        rng = self.rng
        ctx = self._ctx(rng.choice(_SINGLE_TABLES))
        core = n.SelectCore(
            items=select_columns([ctx], rng, rng.randint(2, 4), qualify=False),
            from_items=[n.NamedTable(name=ctx.table.name)],
        )
        predicate = random_predicate(ctx, rng, qualify=False)
        if predicate is not None:
            core.where = predicate
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, [ctx], rng, target_words, qualify=False, max_predicates=3
        )
        if rng.random() < 0.3:
            core.top = rng.choice([10, 50, 100])
        return statement

    def aggregate_groupby(self, target_words: int) -> n.Statement:
        rng = self.rng
        ctx = self._ctx(rng.choice(("SpecObj", "PhotoObj", "SpecLine")))
        group_col = rng.choice(
            [c for c in ctx.table.columns if not c.primary_key]
        )
        agg_col = ctx.table.numeric_columns()[0]
        items = [
            n.SelectItem(expr=n.ColumnRef(name=group_col.name)),
            n.SelectItem(expr=n.FuncCall(name="COUNT", args=[n.Star()]), alias="n"),
        ]
        if rng.random() < 0.6:
            items.append(
                n.SelectItem(
                    expr=n.FuncCall(
                        name=rng.choice(["AVG", "MIN", "MAX"]),
                        args=[n.ColumnRef(name=agg_col.name)],
                    )
                )
            )
        core = n.SelectCore(
            items=items,
            from_items=[n.NamedTable(name=ctx.table.name)],
            group_by=[n.ColumnRef(name=group_col.name)],
        )
        statement = n.SelectStatement(query=n.Query(body=core))
        guard = 0
        while statement_word_count(statement) < target_words and guard < 10:
            guard += 1
            predicate = random_predicate(ctx, rng, qualify=False)
            if predicate is not None:
                from repro.workloads.builders import append_condition

                append_condition(core, predicate)
        if rng.random() < 0.5:
            core.order_by = [
                n.OrderItem(expr=n.ColumnRef(name="n"), direction="DESC")
            ]
        return statement

    def aggregate_having(self, target_words: int) -> n.Statement:
        statement = self.aggregate_groupby(max(target_words - 8, 12))
        core = statement.query.body
        core.having = n.Binary(
            op=">",
            left=n.FuncCall(name="COUNT", args=[n.Star()]),
            right=number_literal(self.rng.randint(2, 50)),
        )
        ctx = self._ctx(core.from_items[0].name)
        pad = random_predicate(ctx, self.rng, qualify=False)
        from repro.workloads.builders import append_condition

        while statement_word_count(statement) < target_words and pad is not None:
            append_condition(core, pad)
            pad = random_predicate(ctx, self.rng, qualify=False)
        return statement

    def _two_table_core(self) -> tuple[n.SelectCore, list[SourceCtx]]:
        rng = self.rng
        left_name, left_key, right_name, right_key = rng.choice(_JOIN_PAIRS)
        left = self._ctx(left_name, alias=left_name[0].lower())
        right = self._ctx(right_name, alias="p2" if left.alias == "p" else "p")
        join = n.Join(
            left=n.NamedTable(name=left.table.name, alias=left.alias),
            right=n.NamedTable(name=right.table.name, alias=right.alias),
            kind="INNER",
            condition=n.Binary(
                op="=",
                left=n.ColumnRef(name=left_key, table=left.alias),
                right=n.ColumnRef(name=right_key, table=right.alias),
            ),
        )
        core = n.SelectCore(
            items=select_columns([left, right], rng, rng.randint(3, 5), qualify=True),
            from_items=[join],
        )
        return core, [left, right]

    def join_filter(self, target_words: int) -> n.Statement:
        rng = self.rng
        core, ctxs = self._two_table_core()
        predicate = random_predicate(ctxs[0], rng, qualify=True)
        if predicate is not None:
            core.where = predicate
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, ctxs, rng, target_words, qualify=True, max_predicates=3
        )
        return statement

    def _three_table_core(self) -> tuple[n.SelectCore, list[SourceCtx]]:
        rng = self.rng
        spec = self._ctx("SpecObj", "s")
        photo = self._ctx("PhotoObj", "p")
        third_name = rng.choice(("PhotoTag", "Galaxy", "Neighbors"))
        third = self._ctx(third_name, "t")
        join = n.Join(
            left=n.Join(
                left=n.NamedTable(name="SpecObj", alias="s"),
                right=n.NamedTable(name="PhotoObj", alias="p"),
                kind="INNER",
                condition=n.Binary(
                    op="=",
                    left=n.ColumnRef(name="bestobjid", table="s"),
                    right=n.ColumnRef(name="objid", table="p"),
                ),
            ),
            right=n.NamedTable(name=third_name, alias="t"),
            kind="INNER",
            condition=n.Binary(
                op="=",
                left=n.ColumnRef(name="objid", table="p"),
                right=n.ColumnRef(name="objid", table="t"),
            ),
        )
        core = n.SelectCore(items=[], from_items=[join])
        return core, [spec, photo, third]

    def cone_wide(self, target_words: int) -> n.Statement:
        """The SkyServer 'cone search' style: very wide select lists."""
        rng = self.rng
        if rng.random() < 0.62:
            core, ctxs = self._three_table_core()
        else:
            core, ctxs = self._two_table_core()
        core.items = select_columns(ctxs, rng, rng.randint(10, 14), qualify=True)
        conditions = [
            p
            for p in (
                random_predicate(ctx, rng, qualify=True)
                for ctx in ctxs[: rng.randint(1, 2)]
            )
            if p is not None
        ]
        core.where = and_all(conditions)
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement,
            core,
            ctxs,
            rng,
            target_words,
            qualify=True,
            max_predicates=rng.randint(1, 4),
        )
        if rng.random() < 0.6:
            order_ctx = rng.choice(ctxs)
            column = order_ctx.table.numeric_columns()[0]
            core.order_by = [
                n.OrderItem(
                    expr=n.ColumnRef(name=column.name, table=order_ctx.alias),
                    direction=rng.choice(["ASC", "DESC"]),
                )
            ]
        if rng.random() < 0.5:
            core.top = rng.choice([100, 500, 1000])
        return statement

    def long_flat(self, target_words: int) -> n.Statement:
        rng = self.rng
        spec = self._ctx("SpecObj", "s")
        photo = self._ctx("PhotoObj", "p")
        tag = self._ctx("PhotoTag", "t")
        join = n.Join(
            left=n.Join(
                left=n.NamedTable(name="SpecObj", alias="s"),
                right=n.NamedTable(name="PhotoObj", alias="p"),
                kind="INNER",
                condition=n.Binary(
                    op="=",
                    left=n.ColumnRef(name="bestobjid", table="s"),
                    right=n.ColumnRef(name="objid", table="p"),
                ),
            ),
            right=n.NamedTable(name="PhotoTag", alias="t"),
            kind="INNER",
            condition=n.Binary(
                op="=",
                left=n.ColumnRef(name="objid", table="p"),
                right=n.ColumnRef(name="objid", table="t"),
            ),
        )
        ctxs = [spec, photo, tag]
        core = n.SelectCore(
            items=select_columns(ctxs, rng, 8, qualify=True),
            from_items=[join],
        )
        statement = n.SelectStatement(query=n.Query(body=core))
        pad_select_to_words(
            statement, core, ctxs, rng, target_words, qualify=True, max_predicates=4
        )
        return statement

    def _joined_subquery_core(self, inner_t: str, inner_key: str) -> n.SelectCore:
        """A subquery level whose FROM is a two-table join (alias a/b)."""
        partner = "PhotoTag" if inner_t == "PhotoObj" else "PhotoObj"
        left_key = "bestobjid" if inner_t == "SpecObj" else "objid"
        join = n.Join(
            left=n.NamedTable(name=inner_t, alias="a"),
            right=n.NamedTable(name=partner, alias="b"),
            kind="INNER",
            condition=n.Binary(
                op="=",
                left=n.ColumnRef(name=left_key, table="a"),
                right=n.ColumnRef(name="objid", table="b"),
            ),
        )
        return n.SelectCore(
            items=[n.SelectItem(expr=n.ColumnRef(name=inner_key, table="a"))],
            from_items=[join],
        )

    def nested(self, depth: int, target_words: int) -> n.Statement:
        """Depth-``depth`` chain of IN subqueries along the key chain.

        Alternate levels join a partner table inside the subquery — real
        deep SkyServer queries mix joins into their nests, which is why
        the paper finds nestedness and join_count correlated in SDSS
        (Figure 4a discussion).
        """
        rng = self.rng
        start = rng.randrange(len(_NEST_CHAIN))
        inner_query: n.Query | None = None
        # Build inside-out: deepest subquery first.
        for level in range(depth, 0, -1):
            outer_t, outer_key, inner_t, inner_key = _NEST_CHAIN[
                (start + level - 1) % len(_NEST_CHAIN)
            ]
            ctx = self._ctx(inner_t)
            if level % 2 == 0:
                core = self._joined_subquery_core(inner_t, inner_key)
                inner_query_where_qualify = True
            else:
                core = n.SelectCore(
                    items=[n.SelectItem(expr=n.ColumnRef(name=inner_key))],
                    from_items=[n.NamedTable(name=inner_t)],
                )
                inner_query_where_qualify = False
            predicate = random_predicate(
                SourceCtx(table=ctx.table, alias="a" if level % 2 == 0 else None),
                rng,
                qualify=inner_query_where_qualify,
            )
            if predicate is not None:
                append_condition(core, predicate)
            if inner_query is not None:
                _, deeper_outer_key, _, _ = _NEST_CHAIN[(start + level) % len(_NEST_CHAIN)]
                key_table = "a" if level % 2 == 0 else None
                membership = n.InSubquery(
                    expr=n.ColumnRef(name=deeper_outer_key, table=key_table),
                    query=inner_query,
                )
                append_condition(core, membership)
            inner_query = n.Query(body=core)
        outer_t, outer_key, _, _ = _NEST_CHAIN[start % len(_NEST_CHAIN)]
        outer_ctx = self._ctx(outer_t)
        outer_core = n.SelectCore(
            items=select_columns([outer_ctx], rng, 4, qualify=False),
            from_items=[n.NamedTable(name=outer_t)],
            where=n.InSubquery(expr=n.ColumnRef(name=outer_key), query=inner_query),
        )
        statement = n.SelectStatement(query=n.Query(body=outer_core))
        pad_select_to_words(
            statement,
            outer_core,
            [outer_ctx],
            rng,
            target_words,
            qualify=False,
            max_predicates=4,
        )
        return statement

    def non_select_statements(self) -> list[tuple[n.Statement, str]]:
        rng = self.rng
        statements: list[tuple[n.Statement, str]] = []
        variables = ("@maxZ", "@minRa", "@radius", "@plateId", "@mjdCut", "@decLim")
        for index in range(11):
            name = variables[index % len(variables)]
            value = number_literal(round(rng.uniform(0.1, 400.0), 3))
            statements.append((n.SetVariable(name=name, value=value), "set"))
        procedures = ("spGetNeighbors", "spCrossMatch", "fGetUrlFitsField")
        for index in range(8):
            args = [
                number_literal(round(rng.uniform(0.0, 360.0), 3))
                for _ in range(rng.randint(2, 4))
            ]
            statements.append(
                (
                    n.ExecProcedure(
                        name=procedures[index % len(procedures)],
                        args=args,
                        schema="dbo",
                    ),
                    "exec",
                )
            )
        for index in range(6):
            statements.append(
                (n.DropTable(name=f"tmpTargets_{index}", if_exists=index % 2 == 0), "drop")
            )
        for index in range(4):
            statements.append(
                (
                    n.Declare(
                        name=variables[index], type_name=rng.choice(["FLOAT", "INT"])
                    ),
                    "declare",
                )
            )
        for index in range(3):
            statements.append(
                (
                    n.CreateTable(
                        name=f"myTargets_{index}",
                        columns=[
                            n.ColumnDef(name="objid", type_name="BIGINT"),
                            n.ColumnDef(name="ra", type_name="FLOAT"),
                            n.ColumnDef(name="dec", type_name="FLOAT"),
                        ],
                    ),
                    "create",
                )
            )
        for _ in range(2):
            statements.append(
                (
                    n.Insert(
                        table="Neighbors",
                        columns=["objid", "neighborObjid", "distance", "neighborType"],
                        rows=[
                            [
                                number_literal(rng.randint(1_000, 9_000_000)),
                                number_literal(rng.randint(1_000, 9_000_000)),
                                number_literal(round(rng.uniform(0.0, 30.0), 3)),
                                number_literal(rng.randint(0, 9)),
                            ]
                        ],
                    ),
                    "insert",
                )
            )
        return statements
