"""Rewrite-pair recipe for the rewrite tasks.

:class:`RewritePairs` tells the shared verified-pair generator
(:func:`repro.equivalence.pairs.iter_verified_pairs`) how to build the
rewrite tasks' pairs.  Positives are **multi-step rewrite chains** from
the catalog (:mod:`repro.rewrite.catalog`) — hard positives, since each
chain composes several structural changes while preserving semantics.
Negatives reuse the counter-transform pool, so the two classes stay
superficially similar.  The generator verifies both polarities on
generated SQLite instances before labeling them, exactly as it does
the query_equiv pairs.

Because the synthetic grammar never emits some rewritable constructs
(``= NULL``, OR chains of equalities, literal arithmetic, ``SELECT *``),
an *opportunity seeding* pass first plants such constructs into a copy
of the base query — seeded, type-correct against the schema, and part of
the pair's ``first_text`` — so every catalog family gets exercised.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.equivalence.counter_transforms import apply_non_equivalence_transform
from repro.equivalence.pairs import PairRecipe
from repro.rewrite.catalog import (
    CONST_FOLD,
    DISTINCT_ELIM,
    NULL_NORMALIZE,
    OR_IN,
    PUSHDOWN,
    STAR_EXPANSION,
    apply_rewrite_chain,
    transforms_for,
)
from repro.schema.model import ColType, Schema, Table
from repro.sql import nodes as n
from repro.sql.properties import extract_properties
from repro.sql.transform import (
    AppliedTransform,
    clone,
    named_tables,
    sample_order,
    select_cores,
    walk,
)

#: Most catalog steps one positive chains.
CHAIN_STEPS = 3


# ---------------------------------------------------------------------------
# Opportunity seeding
# ---------------------------------------------------------------------------


def _base_core(statement: n.Statement) -> Optional[n.SelectCore]:
    """The core seeders extend: the outer core, or a compound's left arm."""
    if not isinstance(statement, n.SelectStatement):
        return None
    body = statement.query.body
    if isinstance(body, n.SelectCore):
        return body
    if isinstance(body, n.Compound) and isinstance(body.left, n.SelectCore):
        return body.left
    return None


def _core_sources(
    core: n.SelectCore, schema: Schema
) -> list[tuple[str, Table]]:
    """``(label, schema table)`` pairs for the core's resolvable sources."""
    sources = []
    for table in named_tables(core):
        resolved = schema.table(table.name)
        if resolved is not None:
            sources.append((table.alias or table.name, resolved))
    return sources


def _append_where(core: n.SelectCore, predicate: n.Expr) -> None:
    core.where = (
        predicate
        if core.where is None
        else n.Binary(op="AND", left=core.where, right=predicate)
    )


def _ref(label: str, column: str, qualify: bool) -> n.ColumnRef:
    return n.ColumnRef(name=column, table=label if qualify else None)


def _int_literal(value: int) -> n.Literal:
    return n.Literal(value=value, kind="number", text=str(value))


def _number_literal(value) -> n.Expr:
    """A number literal in parser normal form.

    The parser derives ``-27.07`` as unary minus over a positive
    literal, so seeded negative values (SDSS declination ranges below
    zero) must be built the same way or ``parse(render(ast)) == ast``
    breaks for every statement they end up in.
    """
    if value < 0:
        positive = -value
        return n.Unary(
            op="-",
            operand=n.Literal(
                value=positive, kind="number", text=str(positive)
            ),
        )
    return n.Literal(value=value, kind="number", text=str(value))


def _seed_or_chain(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> bool:
    """Plant ``(c = v1 OR c = v2 [OR c = v3])`` for the or-in family."""
    core = _base_core(statement)
    if core is None:
        return False
    sources = _core_sources(core, schema)
    if not sources:
        return False
    qualify = len(sources) > 1
    label, table = rng.choice(sources)
    texts = [
        c for c in table.text_columns() if c.spec and len(c.spec.choices) >= 2
    ]
    if texts:
        column = rng.choice(texts)
        count = min(len(column.spec.choices), rng.choice((2, 3)))
        values: list[n.Literal] = [
            n.Literal(value=v, kind="string", text=v)
            for v in rng.sample(column.spec.choices, k=count)
        ]
    else:
        def _span(column):
            spec = column.spec
            low, high = (int(spec.low), int(spec.high)) if spec else (0, 1000)
            return low, high

        ints = [
            c
            for c in table.numeric_columns()
            if c.col_type is ColType.INT and _span(c)[1] - _span(c)[0] >= 1
        ]
        if not ints:
            return False
        column = rng.choice(ints)
        low, high = _span(column)
        values = [
            _int_literal(v)
            for v in sorted(rng.sample(range(low, high + 1), 2))
        ]
    chain: n.Expr = n.Binary(
        op="=", left=_ref(label, column.name, qualify), right=values[0]
    )
    for literal in values[1:]:
        chain = n.Binary(
            op="OR",
            left=chain,
            right=n.Binary(
                op="=", left=_ref(label, column.name, qualify), right=literal
            ),
        )
    _append_where(core, chain)
    return True


def _seed_null_eq(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> bool:
    """Plant a ``c = NULL`` conjunct for the null-normalize family."""
    core = _base_core(statement)
    if core is None:
        return False
    sources = _core_sources(core, schema)
    if not sources:
        return False
    qualify = len(sources) > 1
    label, table = rng.choice(sources)
    column = rng.choice(table.columns)
    _append_where(
        core,
        n.Binary(
            op="=",
            left=_ref(label, column.name, qualify),
            right=n.Literal(value=None, kind="null", text="NULL"),
        ),
    )
    return True


def _seed_const_arith(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> bool:
    """Plant ``c <= lo + delta`` literal arithmetic for const-fold."""
    core = _base_core(statement)
    if core is None:
        return False
    sources = _core_sources(core, schema)
    if not sources:
        return False
    qualify = len(sources) > 1
    label, table = rng.choice(sources)
    ints = [c for c in table.numeric_columns() if c.col_type is ColType.INT]
    if not ints:
        return False
    column = rng.choice(ints)
    spec = column.spec
    low, high = (int(spec.low), int(spec.high)) if spec else (0, 1000)
    base = rng.randint(low, max(low, high - 9))
    delta = rng.randint(1, 9)
    _append_where(
        core,
        n.Binary(
            op=rng.choice((">=", "<=", ">", "<")),
            left=_ref(label, column.name, qualify),
            right=n.Binary(
                op="+", left=_int_literal(base), right=_int_literal(delta)
            ),
        ),
    )
    return True


def _seed_star(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> bool:
    """Replace the select list with ``*`` for the star-expansion family."""
    if not isinstance(statement, n.SelectStatement):
        return False
    body = statement.query.body
    if not isinstance(body, n.SelectCore):
        return False  # set-op branches must keep matching shapes
    if body.group_by or body.having is not None or body.distinct:
        return False
    if any(
        isinstance(node, n.FuncCall)
        for item in body.items
        for node in walk(item.expr)
    ):
        return False
    sources = _core_sources(body, schema)
    if not sources or len(sources) != len(named_tables(body)):
        return False
    if any(isinstance(ref, n.DerivedTable) for ref in body.from_items):
        return False
    body.items = [n.SelectItem(expr=n.Star())]
    return True


def _seed_subquery_distinct(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> bool:
    """Turn on DISTINCT inside a membership subquery (a semantic no-op)."""
    candidates = []
    for node in walk(statement):
        if isinstance(node, (n.InSubquery, n.Exists)):
            body = node.query.body
            if (
                isinstance(body, n.SelectCore)
                and not body.distinct
                and body.top is None
                and body.limit is None
            ):
                candidates.append(body)
    if not candidates:
        return False
    rng.choice(candidates).distinct = True
    return True


def _seed_having_group_pred(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> bool:
    """AND a grouping-column predicate onto HAVING for the pushdown family."""
    candidates = []
    for core in select_cores(statement):
        if not core.group_by:
            continue
        sources = _core_sources(core, schema)
        for expr in core.group_by:
            if not isinstance(expr, n.ColumnRef):
                continue
            for label, table in sources:
                if expr.table is not None and expr.table.lower() != label.lower():
                    continue
                column = table.column(expr.name)
                if column is not None:
                    candidates.append((core, expr, column))
    if not candidates:
        return False
    core, group_ref, column = rng.choice(candidates)
    spec = column.spec
    if spec is not None and spec.choices:
        value = rng.choice(spec.choices)
        literal: n.Expr = n.Literal(value=value, kind="string", text=value)
        op = rng.choice(("=", "<>"))
    elif column.col_type in (ColType.INT, ColType.FLOAT):
        low, high = (spec.low, spec.high) if spec else (0, 1000)
        if column.col_type is ColType.INT:
            literal = _number_literal(rng.randint(int(low), int(high)))
        else:
            literal = _number_literal(round(rng.uniform(low, high), 3))
        op = rng.choice((">", ">=", "<", "<="))
    else:
        return False
    predicate = n.Binary(
        op=op,
        left=n.ColumnRef(name=group_ref.name, table=group_ref.table),
        right=literal,
    )
    core.having = (
        predicate
        if core.having is None
        else n.Binary(op="AND", left=core.having, right=predicate)
    )
    return True


#: Seeders keyed by the catalog family they create opportunities for.
#: Families absent here (subquery-cte, setop-exists) are covered by the
#: rewrite profile's strata directly.
_SEEDERS = {
    OR_IN: _seed_or_chain,
    NULL_NORMALIZE: _seed_null_eq,
    CONST_FOLD: _seed_const_arith,
    STAR_EXPANSION: _seed_star,
    DISTINCT_ELIM: _seed_subquery_distinct,
    PUSHDOWN: _seed_having_group_pred,
}


def seed_rewrite_sites(
    statement: n.Statement,
    schema: Schema,
    rng: random.Random,
    families: Optional[Sequence[str]] = None,
) -> tuple[str, ...]:
    """Plant up to two rewritable constructs into *statement* in place.

    Only seeds opportunities for the selected *families* (all when
    None).  Returns the family names that were actually seeded.
    """
    eligible = [
        family
        for family in _SEEDERS
        if not families or family in families
    ]
    if not eligible:
        return ()
    budget = 1 + (rng.random() < 0.5)
    seeded: list[str] = []
    for family in sample_order(rng, eligible):
        if len(seeded) >= budget:
            break
        if _SEEDERS[family](statement, schema, rng):
            seeded.append(family)
    return tuple(seeded)


# ---------------------------------------------------------------------------
# Pair recipe
# ---------------------------------------------------------------------------


class RewritePairs(PairRecipe):
    """Rewrite-task pairs over a seeded copy of each query.

    *families* restricts both the seeding and the chains to those
    catalog families (all when None).
    """

    stream = "rewrite-pairs"
    id_suffix = "rwpair"

    def __init__(self, families: Optional[Sequence[str]] = None) -> None:
        transforms_for(families)  # validate family names up front
        self.families = families

    def first(self, query, schema, rng):
        """A copy of the query with up to two rewrite sites planted."""
        base = clone(query.statement)
        seed_rewrite_sites(base, schema, rng, families=self.families)
        return base

    def first_props(self, query, first_text):
        """Measured from the text: seeding may have changed the query."""
        return extract_properties(first_text)

    def candidates(self, first, first_text, schema, rng, equivalent):
        for _ in range(3):
            if equivalent:
                steps = 1 + rng.randrange(CHAIN_STEPS)
                chain = apply_rewrite_chain(
                    first,
                    schema,
                    rng,
                    max_steps=steps,
                    families=self.families,
                    original_text=first_text,
                )
                if chain is None:
                    return  # no catalog transform applies at all
                yield AppliedTransform(
                    text=chain.text,
                    name=chain.chain_label,
                    detail="; ".join(step.detail for step in chain.steps),
                    original_text=first_text,
                    statement=chain.statement,
                )
            else:
                rewrite = apply_non_equivalence_transform(
                    first, schema, rng, original_text=first_text
                )
                if rewrite is None:
                    return
                yield rewrite
