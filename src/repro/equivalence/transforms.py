"""Equivalence-preserving query transforms (paper section 3.1, Listing 2).

Ten rewrite types.  Each transform takes a parsed SELECT statement and
returns a rewritten copy that provably returns the same bag of rows on
every database instance — subject to the structural preconditions each
transform enforces (e.g. join-to-IN rewrites require the joined key to be
unique).  The pair generator additionally *verifies* every pair on live
SQLite instances before labeling it.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.schema.model import Schema
from repro.sql import nodes as n
from repro.sql.transform import (
    AppliedTransform,
    and_leaves,
    apply_typed_transform,
    outer_core,
    qualify_core_refs,
    qualify_shallow,
    rebuild_and,
    replace_expr,
    sample_order,
)

SWAP_SUBQUERIES = "swap-subqueries"
JOIN_NESTED = "join-nested"
NESTED_JOIN = "nested-join"
CTE = "cte"
REORDER_CONDITIONS = "reorder-conditions"
BETWEEN_SPLIT = "between-split"
IN_EXPANSION = "in-expansion"
JOIN_COMMUTE = "join-commute"
ALIAS_RENAME = "alias-rename"
COMPARISON_FLIP = "comparison-flip"

#: The ten equivalence types, paper-listed ones first.
EQUIVALENCE_TYPES: tuple[str, ...] = (
    SWAP_SUBQUERIES,
    JOIN_NESTED,
    NESTED_JOIN,
    CTE,
    REORDER_CONDITIONS,
    BETWEEN_SPLIT,
    IN_EXPANSION,
    JOIN_COMMUTE,
    ALIAS_RENAME,
    COMPARISON_FLIP,
)


# ---------------------------------------------------------------------------
# Shared helpers (tree walking/rebuilding and scope qualification live in
# repro.sql.transform; only precondition probes are local to this module)
# ---------------------------------------------------------------------------


def _membership_conjuncts(core: n.SelectCore) -> list[n.InSubquery]:
    """Non-negated IN-subqueries appearing as top-level conjuncts."""
    if core.where is None:
        return []
    return [
        leaf
        for leaf in and_leaves(core.where)
        if isinstance(leaf, n.InSubquery) and not leaf.negated
    ]


def _simple_subquery(query: n.Query) -> Optional[tuple[n.SelectCore, n.NamedTable]]:
    """A single-core, single-table, single-column subquery (or None)."""
    if query.ctes:
        return None
    body = query.body
    if not isinstance(body, n.SelectCore):
        return None
    if len(body.items) != 1 or body.group_by or body.having:
        return None
    if body.top is not None or body.limit is not None or body.distinct:
        return None
    if not isinstance(body.items[0].expr, n.ColumnRef):
        return None
    if len(body.from_items) != 1 or not isinstance(body.from_items[0], n.NamedTable):
        return None
    return body, body.from_items[0]


def _single_named_table(core: n.SelectCore) -> Optional[n.NamedTable]:
    if len(core.from_items) == 1 and isinstance(core.from_items[0], n.NamedTable):
        return core.from_items[0]
    return None


def _collect_labels(statement: n.Statement) -> set[str]:
    labels: set[str] = set()
    for node in n.walk(statement):
        if isinstance(node, n.NamedTable):
            labels.add((node.alias or node.name).lower())
    return labels


# ---------------------------------------------------------------------------
# Transforms.  Each mutates a deep copy and returns a detail string, or
# None when inapplicable.
# ---------------------------------------------------------------------------


def _t_reorder_conditions(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    cores = [c for c in n.walk(statement) if isinstance(c, n.SelectCore)]
    candidates = [
        core
        for core in cores
        if core.where is not None and len(and_leaves(core.where)) >= 2
    ]
    if not candidates:
        return None
    core = rng.choice(candidates)
    leaves = and_leaves(core.where)
    original = list(leaves)
    for _ in range(6):
        rng.shuffle(leaves)
        if leaves != original:
            break
    else:
        leaves.reverse()
    core.where = rebuild_and(leaves)
    return f"shuffled {len(leaves)} WHERE conjuncts"


def _t_cte(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    if statement.query.ctes:
        return None
    inner = n.Query(body=statement.query.body)
    name = f"base_{rng.randint(1, 99)}"
    outer = n.SelectCore(
        items=[n.SelectItem(expr=n.Star())],
        from_items=[n.NamedTable(name=name)],
    )
    statement.query = n.Query(
        body=outer, ctes=[n.CommonTableExpr(name=name, query=inner)]
    )
    return f"wrapped the query in CTE {name!r}"


def _t_join_nested(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    core = outer_core(statement)
    if core is None or len(core.from_items) != 1:
        return None
    join = core.from_items[0]
    if not isinstance(join, n.Join) or join.kind != "INNER":
        return None
    right = join.right
    if not isinstance(right, n.NamedTable):
        return None
    condition = join.condition
    if not (
        isinstance(condition, n.Binary)
        and condition.op == "="
        and isinstance(condition.left, n.ColumnRef)
        and isinstance(condition.right, n.ColumnRef)
    ):
        return None
    right_label = (right.alias or right.name).lower()
    if (condition.right.table or "").lower() == right_label:
        left_key, right_key = condition.left, condition.right
    elif (condition.left.table or "").lower() == right_label:
        left_key, right_key = condition.right, condition.left
    else:
        return None
    # Bag-safety: the joined key must be unique on the right side.
    right_table = schema.table(right.name)
    if right_table is None:
        return None
    key_column = right_table.column(right_key.name)
    if key_column is None or not key_column.primary_key:
        return None
    # The right source must not be referenced outside the ON condition.
    for node in _refs_outside_join_condition(core, join):
        if (node.table or "").lower() == right_label:
            return None
    subquery = n.Query(
        body=n.SelectCore(
            items=[n.SelectItem(expr=n.ColumnRef(name=right_key.name))],
            from_items=[n.NamedTable(name=right.name)],
        )
    )
    core.from_items[0] = join.left
    membership = n.InSubquery(expr=left_key, query=subquery)
    core.where = (
        membership
        if core.where is None
        else n.Binary(op="AND", left=core.where, right=membership)
    )
    return f"join with {right.name!r} rewritten as IN-subquery"


def _refs_outside_join_condition(
    core: n.SelectCore, join: n.Join
) -> list[n.ColumnRef]:
    skip = set()
    if join.condition is not None:
        skip = {id(node) for node in n.walk(join.condition)}
    refs = []
    for node in n.walk(core):
        if isinstance(node, n.ColumnRef) and id(node) not in skip:
            refs.append(node)
    return refs


def _t_nested_join(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    core = outer_core(statement)
    if core is None:
        return None
    outer_table = _single_named_table(core)
    if outer_table is None:
        return None
    memberships = _membership_conjuncts(core)
    for membership in memberships:
        simple = _simple_subquery(membership.query)
        if simple is None:
            continue
        sub_core, sub_table = simple
        if sub_core.where is not None and any(
            isinstance(leaf, n.InSubquery) for leaf in and_leaves(sub_core.where)
        ):
            continue  # deeper nests stay as nests; keep the rewrite local
        inner_schema_table = schema.table(sub_table.name)
        if inner_schema_table is None:
            continue
        inner_key = sub_core.items[0].expr
        key_column = inner_schema_table.column(inner_key.name)
        if key_column is None or not key_column.primary_key:
            continue
        if not isinstance(membership.expr, n.ColumnRef):
            continue
        # Qualify the outer level so the new source cannot capture refs.
        outer_alias = outer_table.alias or "t0"
        outer_table.alias = outer_alias
        qualify_core_refs(core, outer_alias)
        join_alias = "jt"
        condition = n.Binary(
            op="=",
            left=membership.expr,
            right=n.ColumnRef(name=inner_key.name, table=join_alias),
        )
        inner_where = sub_core.where
        if inner_where is not None:
            qualify_shallow(inner_where, join_alias)
        core.from_items[0] = n.Join(
            left=n.NamedTable(name=outer_table.name, alias=outer_alias),
            right=n.NamedTable(name=sub_table.name, alias=join_alias),
            kind="INNER",
            condition=condition,
        )
        leaves = [
            leaf for leaf in and_leaves(core.where) if leaf is not membership
        ]
        if inner_where is not None:
            leaves.append(inner_where)
        core.where = rebuild_and(leaves)
        return f"IN-subquery on {sub_table.name!r} rewritten as join"
    return None


def _t_swap_subqueries(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    """IN <-> correlated EXISTS (the membership test swaps scope)."""
    cores = [c for c in n.walk(statement) if isinstance(c, n.SelectCore)]
    for core in cores:
        outer_table = _single_named_table(core)
        if outer_table is None or core.where is None:
            continue
        for membership in and_leaves(core.where):
            if not isinstance(membership, n.InSubquery):
                continue
            simple = _simple_subquery(membership.query)
            if simple is None:
                continue
            sub_core, sub_table = simple
            if not isinstance(membership.expr, n.ColumnRef):
                continue
            outer_alias = outer_table.alias or "t0"
            outer_table.alias = outer_alias
            qualify_core_refs(core, outer_alias)
            inner_label = sub_table.alias or sub_table.name
            inner_key = sub_core.items[0].expr
            correlation = n.Binary(
                op="=",
                left=n.ColumnRef(name=inner_key.name, table=inner_label),
                right=membership.expr,
            )
            new_core = n.SelectCore(
                items=[
                    n.SelectItem(
                        expr=n.Literal(value=1, kind="number", text="1")
                    )
                ],
                from_items=[sub_table],
                where=(
                    n.Binary(op="AND", left=sub_core.where, right=correlation)
                    if sub_core.where is not None
                    else correlation
                ),
            )
            if sub_core.where is not None:
                qualify_shallow(sub_core.where, inner_label)
            replacement = n.Exists(
                query=n.Query(body=new_core), negated=membership.negated
            )
            if replace_expr(core, membership, replacement):
                return (
                    f"IN over {sub_table.name!r} swapped to correlated EXISTS"
                )
    return None


def _t_between_split(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    betweens = [e for e in n.walk(statement) if isinstance(e, n.Between)]
    if not betweens:
        return None
    target = rng.choice(betweens)
    if target.negated:
        replacement: n.Expr = n.Binary(
            op="OR",
            left=n.Binary(op="<", left=target.expr, right=target.low),
            right=n.Binary(
                op=">", left=n.clone(target.expr), right=target.high
            ),
        )
    else:
        replacement = n.Binary(
            op="AND",
            left=n.Binary(op=">=", left=target.expr, right=target.low),
            right=n.Binary(
                op="<=", left=n.clone(target.expr), right=target.high
            ),
        )
    if replace_expr(statement, target, replacement):
        return "BETWEEN split into two comparisons"
    return None


def _t_in_expansion(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    in_lists = [
        e
        for e in n.walk(statement)
        if isinstance(e, n.InList) and 1 <= len(e.items) <= 6
    ]
    if not in_lists:
        return None
    target = rng.choice(in_lists)
    op = "<>" if target.negated else "="
    joiner = "AND" if target.negated else "OR"
    parts = [
        n.Binary(op=op, left=n.clone(target.expr), right=item)
        for item in target.items
    ]
    combined = parts[0]
    for part in parts[1:]:
        combined = n.Binary(op=joiner, left=combined, right=part)
    if replace_expr(statement, target, combined):
        return f"IN list expanded into {joiner} chain of {len(parts)}"
    return None


def _t_join_commute(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    if any(
        isinstance(item.expr, n.Star)
        for core in n.walk(statement)
        if isinstance(core, n.SelectCore)
        for item in core.items
    ):
        return None  # '*' column order would change
    joins = [
        j
        for j in n.walk(statement)
        if isinstance(j, n.Join)
        and j.kind == "INNER"
        and not isinstance(j.left, n.Join)
    ]
    if not joins:
        return None
    target = rng.choice(joins)
    target.left, target.right = target.right, target.left
    return "INNER JOIN operands swapped"


def _t_alias_rename(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    tables = [
        t for t in n.walk(statement) if isinstance(t, n.NamedTable) and t.alias
    ]
    labels = _collect_labels(statement)
    for table in tables:
        alias = table.alias
        definitions = sum(
            1
            for t in n.walk(statement)
            if isinstance(t, n.NamedTable)
            and (t.alias or t.name).lower() == alias.lower()
        )
        if definitions != 1:
            continue
        new_alias = f"{alias}_r"
        while new_alias.lower() in labels:
            new_alias += "x"
        for node in n.walk(statement):
            if (
                isinstance(node, n.ColumnRef)
                and node.table is not None
                and node.table.lower() == alias.lower()
            ):
                node.table = new_alias
        table.alias = new_alias
        return f"alias {alias!r} renamed to {new_alias!r}"
    return None


def _t_comparison_flip(
    statement: n.SelectStatement, schema: Schema, rng: random.Random
) -> Optional[str]:
    mirror = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
    comparisons = [
        e
        for e in n.walk(statement)
        if isinstance(e, n.Binary)
        and e.op in mirror
        and isinstance(e.left, n.ColumnRef)
        and isinstance(e.right, n.Literal)
    ]
    if not comparisons:
        return None
    target = rng.choice(comparisons)
    target.left, target.right = target.right, target.left
    target.op = mirror[target.op]
    return "comparison operands mirrored"


_TRANSFORMS: dict[str, Callable] = {
    SWAP_SUBQUERIES: _t_swap_subqueries,
    JOIN_NESTED: _t_join_nested,
    NESTED_JOIN: _t_nested_join,
    CTE: _t_cte,
    REORDER_CONDITIONS: _t_reorder_conditions,
    BETWEEN_SPLIT: _t_between_split,
    IN_EXPANSION: _t_in_expansion,
    JOIN_COMMUTE: _t_join_commute,
    ALIAS_RENAME: _t_alias_rename,
    COMPARISON_FLIP: _t_comparison_flip,
}


def apply_equivalence_transform(
    statement: n.SelectStatement,
    schema: Schema,
    rng: random.Random,
    pair_type: Optional[str] = None,
    original_text: Optional[str] = None,
) -> Optional[AppliedTransform]:
    """Apply one equivalence transform to a copy of *statement*.

    With *pair_type* None, applicable transforms are tried in random order.
    The result's ``name`` is the pair type.  Returns None when nothing
    applies.  Callers retrying many types for one statement can pass the
    pre-rendered *original_text* to skip the per-attempt re-render.
    """
    order = (
        [pair_type]
        if pair_type is not None
        else sample_order(rng, EQUIVALENCE_TYPES)
    )
    return apply_typed_transform(
        statement,
        schema,
        rng,
        _TRANSFORMS,
        order,
        original_text=original_text,
        kind="equivalence",
    )
