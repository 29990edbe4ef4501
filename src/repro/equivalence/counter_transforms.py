"""Non-equivalence transforms (paper section 3.1, Listing 2, Q11-Q14).

Eight *subtle* rewrites that change query semantics while keeping the two
texts superficially similar — the paper stresses that pairing random
queries would make the task trivially easy.  The pair generator verifies
on live instances that each rewrite observably changes results.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.schema.model import Schema
from repro.sql import nodes as n
from repro.sql.keywords import AGGREGATE_FUNCTIONS
from repro.sql.render import render
from repro.sql.transform import (
    AppliedTransform,
    and_leaves,
    apply_typed_transform,
    named_tables_with_labels,
    rebuild_and,
    sample_order,
)

AGG_FUNCTION = "agg-function"
CHANGE_JOIN_CONDITION = "change-join-condition"
LOGICAL_CONDITIONS = "logical-conditions"
VALUE_CHANGE = "value-change"
COMPARISON_OP = "comparison-op"
DROP_CONDITION = "drop-condition"
COLUMN_SWAP = "column-swap"
DISTINCT_CHANGE = "distinct-change"

#: The eight non-equivalence types, paper-listed ones first.
NON_EQUIVALENCE_TYPES: tuple[str, ...] = (
    AGG_FUNCTION,
    CHANGE_JOIN_CONDITION,
    LOGICAL_CONDITIONS,
    VALUE_CHANGE,
    COMPARISON_OP,
    DROP_CONDITION,
    COLUMN_SWAP,
    DISTINCT_CHANGE,
)


_AGG_SWAPS = {"AVG": "SUM", "SUM": "AVG", "MIN": "MAX", "MAX": "MIN"}
_OP_SWAPS = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "<>"}


def _t_agg_function(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    calls = [
        e
        for e in n.walk(statement)
        if isinstance(e, n.FuncCall) and e.name.upper() in _AGG_SWAPS
    ]
    if not calls:
        return None
    target = rng.choice(calls)
    old = target.name.upper()
    target.name = _AGG_SWAPS[old]
    return f"aggregate {old} changed to {target.name}"


def _t_change_join_condition(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    joins = [j for j in n.walk(statement) if isinstance(j, n.Join)]
    candidates = [j for j in joins if j.kind in ("INNER", "LEFT")]
    if not candidates:
        return None
    target = rng.choice(candidates)
    old = target.kind
    target.kind = "LEFT" if old == "INNER" else "INNER"
    return f"{old} JOIN changed to {target.kind} JOIN"


def _t_logical_conditions(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    booleans = [
        e
        for e in n.walk(statement)
        if isinstance(e, n.Binary) and e.op in ("AND", "OR")
    ]
    # Only flip conditions in WHERE/HAVING trees, not join ON equalities.
    if not booleans:
        return None
    target = rng.choice(booleans)
    old = target.op
    target.op = "OR" if old == "AND" else "AND"
    return f"logical operator {old} changed to {target.op}"


def _t_value_change(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    comparisons = [
        e
        for e in n.walk(statement)
        if isinstance(e, n.Binary)
        and e.op in ("=", "<>", "<", ">", "<=", ">=")
        and isinstance(e.right, n.Literal)
        and e.right.kind == "number"
        and isinstance(e.left, n.ColumnRef)
    ]
    if not comparisons:
        return None
    target = rng.choice(comparisons)
    literal = target.right
    if isinstance(literal.value, int):
        new_value: float | int = literal.value * 10 + 7
        text = str(new_value)
    else:
        new_value = round(literal.value * 10 + 0.7, 3)
        text = str(new_value)
    target.right = n.Literal(value=new_value, kind="number", text=text)
    return f"comparison value {literal.text} changed to {text}"


def _t_comparison_op(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    comparisons = [
        e
        for e in n.walk(statement)
        if isinstance(e, n.Binary)
        and e.op in _OP_SWAPS
        and isinstance(e.right, n.Literal)
    ]
    if not comparisons:
        return None
    target = rng.choice(comparisons)
    old = target.op
    target.op = _OP_SWAPS[old]
    return f"comparison operator {old} changed to {target.op}"


def _t_drop_condition(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    cores = [c for c in n.walk(statement) if isinstance(c, n.SelectCore)]
    candidates = []
    for core in cores:
        if core.where is None:
            continue
        leaves = and_leaves(core.where)
        droppable = [
            leaf
            for leaf in leaves
            if not _is_join_condition(leaf) and len(leaves) >= 2
        ]
        if droppable:
            candidates.append((core, leaves, droppable))
    if not candidates:
        return None
    core, leaves, droppable = rng.choice(candidates)
    victim = rng.choice(droppable)
    remaining = [leaf for leaf in leaves if leaf is not victim]
    core.where = rebuild_and(remaining)
    return f"dropped condition {render(victim)!r}"


def _is_join_condition(leaf: n.Expr) -> bool:
    """Column-to-column equality (dropping those changes too much)."""
    return (
        isinstance(leaf, n.Binary)
        and leaf.op == "="
        and isinstance(leaf.left, n.ColumnRef)
        and isinstance(leaf.right, n.ColumnRef)
    )


def _t_column_swap(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    body = statement.query.body
    if not isinstance(body, n.SelectCore):
        return None
    sources = named_tables_with_labels(body)
    swappable: list[n.ColumnRef] = []
    for item in body.items:
        if isinstance(item.expr, n.ColumnRef):
            swappable.append(item.expr)
        elif isinstance(item.expr, n.FuncCall):
            # JOB-style MIN(t.col) items: swap the aggregated column.
            swappable.extend(
                arg for arg in item.expr.args if isinstance(arg, n.ColumnRef)
            )
    if not swappable or not sources:
        return None
    rng.shuffle(swappable)
    for ref in swappable:
        for label, table_name in sources:
            if ref.table is not None and ref.table.lower() != label.lower():
                continue
            table = schema.table(table_name)
            if table is None or not table.has_column(ref.name):
                continue
            original_column = table.column(ref.name)
            alternatives = [
                c
                for c in table.columns
                if c.name.lower() != ref.name.lower()
                and c.col_type is original_column.col_type
            ]
            if not alternatives:
                continue
            replacement = rng.choice(alternatives)
            old_name = ref.name
            ref.name = replacement.name
            return f"selected column {old_name!r} swapped for {replacement.name!r}"
    return None


def _t_distinct_change(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    body = statement.query.body
    if not isinstance(body, n.SelectCore):
        return None
    if any(
        isinstance(node, n.FuncCall)
        and node.name.upper() in AGGREGATE_FUNCTIONS
        for item in body.items
        for node in n.walk(item.expr)
    ):
        return None  # aggregates make DISTINCT a no-op too often
    body.distinct = not body.distinct
    return "DISTINCT toggled" if body.distinct else "DISTINCT removed"


_TRANSFORMS: dict[str, Callable] = {
    AGG_FUNCTION: _t_agg_function,
    CHANGE_JOIN_CONDITION: _t_change_join_condition,
    LOGICAL_CONDITIONS: _t_logical_conditions,
    VALUE_CHANGE: _t_value_change,
    COMPARISON_OP: _t_comparison_op,
    DROP_CONDITION: _t_drop_condition,
    COLUMN_SWAP: _t_column_swap,
    DISTINCT_CHANGE: _t_distinct_change,
}


def apply_non_equivalence_transform(
    statement: n.SelectStatement,
    schema: Schema,
    rng: random.Random,
    pair_type: Optional[str] = None,
    original_text: Optional[str] = None,
) -> Optional[AppliedTransform]:
    """Apply one semantics-changing transform to a copy of *statement*.

    The result's ``name`` is the pair type.  Callers retrying many types for one statement can pass the
    pre-rendered *original_text* to skip the per-attempt re-render.
    """
    order = (
        [pair_type]
        if pair_type is not None
        else sample_order(rng, NON_EQUIVALENCE_TYPES)
    )
    return apply_typed_transform(
        statement,
        schema,
        rng,
        _TRANSFORMS,
        order,
        original_text=original_text,
        kind="non-equivalence",
    )
