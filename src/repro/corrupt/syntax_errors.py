"""Syntax-error injection (paper section 3.2, Listing 1).

Six injectors, one per paper error type, each transforming a *clean*
parsed query into a semantically broken one that still parses.  The test
suite enforces the contract end-to-end: for every injection the semantic
analyzer must report the intended violation code on the corrupted text.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.analysis.semantics import (
    AGGR_ATTR,
    AGGR_HAVING,
    ALIAS_AMBIGUOUS,
    ALIAS_UNDEFINED,
    CONDITION_MISMATCH,
    NESTED_MISMATCH,
    PAPER_ERROR_TYPES,
)
from repro.schema.model import ColType, Schema
from repro.sql import nodes as n
from repro.sql.keywords import AGGREGATE_FUNCTIONS
from repro.sql.transform import (
    AppliedTransform,
    apply_typed_transform,
    named_tables,
    replace_expr,
    select_cores,
)

#: Error-type labels, re-exported in the paper's order.
ERROR_TYPES: tuple[str, ...] = PAPER_ERROR_TYPES


def _source_label(table: n.NamedTable) -> str:
    return table.alias or table.name


def _pick_core_with_tables(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> Optional[tuple[n.SelectCore, list[n.NamedTable]]]:
    candidates = []
    for core in select_cores(statement):
        tables = [t for t in named_tables(core) if schema.has_table(t.name)]
        if tables:
            candidates.append((core, tables))
    if not candidates:
        return None
    return rng.choice(candidates)


# ---------------------------------------------------------------------------
# Individual injectors.  Each mutates a deep copy and returns detail text,
# or None when the transformation does not apply to this query.
# ---------------------------------------------------------------------------


def _inject_aggr_attr(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> Optional[str]:
    picked = _pick_core_with_tables(statement, schema, rng)
    if picked is None:
        return None
    core, tables = picked
    group_names = {
        g.name.lower() for g in core.group_by if isinstance(g, n.ColumnRef)
    }
    has_aggregate = any(
        isinstance(node, n.FuncCall) and node.name.upper() in AGGREGATE_FUNCTIONS
        for item in core.items
        for node in n.walk(item.expr)
    )
    table = rng.choice(tables)
    schema_table = schema.table(table.name)
    candidates = [
        c for c in schema_table.columns if c.name.lower() not in group_names
    ]
    if not candidates:
        return None
    column = rng.choice(candidates)
    qualifier = _source_label(table) if len(tables) > 1 else None
    bare = n.ColumnRef(name=column.name, table=qualifier)
    if has_aggregate or core.group_by:
        # Add an ungrouped bare column next to the aggregates.
        core.items.insert(
            rng.randrange(len(core.items) + 1), n.SelectItem(expr=bare)
        )
    else:
        # Add an aggregate next to existing bare columns (Q1 style).
        if not any(
            isinstance(item.expr, (n.ColumnRef, n.Star)) for item in core.items
        ):
            core.items.insert(0, n.SelectItem(expr=bare))
        core.items.append(
            n.SelectItem(expr=n.FuncCall(name="COUNT", args=[n.Star()]))
        )
    return f"ungrouped column {column.name!r} mixed with aggregates"


def _inject_aggr_having(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> Optional[str]:
    picked = _pick_core_with_tables(statement, schema, rng)
    if picked is None:
        return None
    core, tables = picked
    group_names = {
        g.name.lower() for g in core.group_by if isinstance(g, n.ColumnRef)
    }
    table = rng.choice(tables)
    schema_table = schema.table(table.name)
    numeric = [
        c
        for c in schema_table.numeric_columns()
        if c.name.lower() not in group_names
    ]
    if not numeric:
        return None
    column = rng.choice(numeric)
    qualifier = _source_label(table) if len(tables) > 1 else None
    spec = column.spec
    if column.col_type is ColType.INT:
        value = rng.randint(int(spec.low if spec else 0), int(spec.high if spec else 100))
        literal = n.Literal(value=value, kind="number", text=str(value))
    else:
        value = round(rng.uniform(spec.low if spec else 0, spec.high if spec else 100), 2)
        literal = n.Literal(value=value, kind="number", text=str(value))
    condition = n.Binary(
        op=rng.choice([">", "<", ">="]),
        left=n.ColumnRef(name=column.name, table=qualifier),
        right=literal,
    )
    if core.having is None:
        core.having = condition
    else:
        core.having = n.Binary(op="AND", left=core.having, right=condition)
    return f"HAVING filters bare column {column.name!r} (should be WHERE)"


def _inject_nested_mismatch(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> Optional[str]:
    # Preferred: degrade an existing IN-subquery to scalar '=' (Q3 style).
    memberships = [
        node
        for node in n.walk(statement)
        if isinstance(node, n.InSubquery) and not node.negated
    ]
    if memberships:
        target = rng.choice(memberships)
        multi_row = _make_multi_row(target.query)
        replacement = n.Binary(
            op="=", left=target.expr, right=n.ScalarSubquery(query=target.query)
        )
        if multi_row and replace_expr(statement, target, replacement):
            return "IN-subquery degraded to scalar '=' comparison"
    # Fallback: append `key = (SELECT key FROM other)` to a core's WHERE.
    picked = _pick_core_with_tables(statement, schema, rng)
    if picked is None:
        return None
    core, tables = picked
    table = rng.choice(tables)
    schema_table = schema.table(table.name)
    numeric = schema_table.numeric_columns()
    if not numeric:
        return None
    column = rng.choice(numeric)
    other = rng.choice(schema.tables)
    other_numeric = other.numeric_columns()
    if not other_numeric:
        return None
    other_column = rng.choice(other_numeric)
    qualifier = _source_label(table) if len(tables) > 1 else None
    subquery = n.Query(
        body=n.SelectCore(
            items=[n.SelectItem(expr=n.ColumnRef(name=other_column.name))],
            from_items=[n.NamedTable(name=other.name)],
        )
    )
    condition = n.Binary(
        op="=",
        left=n.ColumnRef(name=column.name, table=qualifier),
        right=n.ScalarSubquery(query=subquery),
    )
    if core.where is None:
        core.where = condition
    else:
        core.where = n.Binary(op="AND", left=core.where, right=condition)
    return f"scalar comparison against multi-row subquery on {other.name!r}"


def _make_multi_row(query: n.Query) -> bool:
    """Ensure the subquery may return several rows; True when successful."""
    body = query.body
    if not isinstance(body, n.SelectCore):
        return True
    changed = False
    if body.top == 1:
        body.top = None
        changed = True
    if body.limit == 1:
        body.limit = None
        changed = True
    has_aggregate = all(
        any(
            isinstance(node, n.FuncCall)
            and node.name.upper() in AGGREGATE_FUNCTIONS
            for node in n.walk(item.expr)
        )
        for item in body.items
    )
    return not has_aggregate or changed or bool(body.group_by)


def _inject_condition_mismatch(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> Optional[str]:
    # Preferred: retype an existing numeric comparison literal (Q4 style).
    comparisons = [
        node
        for node in n.walk(statement)
        if isinstance(node, n.Binary)
        and node.op in ("=", "<>", "<", ">", "<=", ">=")
        and isinstance(node.right, n.Literal)
        and node.right.kind == "number"
        and isinstance(node.left, n.ColumnRef)
    ]
    if comparisons:
        target = rng.choice(comparisons)
        word = rng.choice(["high", "low", "bright", "recent", "large"])
        target.right = n.Literal(value=word, kind="string", text=word)
        return f"numeric column compared with string {word!r}"
    picked = _pick_core_with_tables(statement, schema, rng)
    if picked is None:
        return None
    core, tables = picked
    table = rng.choice(tables)
    schema_table = schema.table(table.name)
    numeric = schema_table.numeric_columns()
    if not numeric:
        return None
    column = rng.choice(numeric)
    qualifier = _source_label(table) if len(tables) > 1 else None
    word = rng.choice(["high", "low", "unknown"])
    condition = n.Binary(
        op="=",
        left=n.ColumnRef(name=column.name, table=qualifier),
        right=n.Literal(value=word, kind="string", text=word),
    )
    if core.where is None:
        core.where = condition
    else:
        core.where = n.Binary(op="AND", left=core.where, right=condition)
    return f"appended type-mismatched condition on {column.name!r}"


def _defined_labels(statement: n.Statement) -> set[str]:
    """Every name a qualifier could legally resolve to, lower-cased."""
    labels: set[str] = set()
    for node in n.walk(statement):
        if isinstance(node, n.NamedTable):
            labels.add((node.alias or node.name).lower())
            labels.add(node.name.lower())
        elif isinstance(node, n.DerivedTable):
            labels.add(node.alias.lower())
        elif isinstance(node, n.CommonTableExpr):
            labels.add(node.name.lower())
    return labels


def _fresh_undefined_label(
    statement: n.Statement, rng: random.Random, seed_from: str
) -> str:
    """A qualifier guaranteed to resolve nowhere in the statement."""
    taken = _defined_labels(statement)
    candidates = ["q", "obj", "tbl0", seed_from + "x", seed_from + "2"]
    rng.shuffle(candidates)
    for candidate in candidates:
        if candidate.lower() not in taken:
            return candidate
    suffix = 0
    while f"q{suffix}" in taken:
        suffix += 1
    return f"q{suffix}"


def _inject_alias_undefined(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> Optional[str]:
    refs = [
        node
        for node in n.walk(statement)
        if isinstance(node, n.ColumnRef) and node.table is not None
    ]
    if refs:
        target = rng.choice(refs)
        # Q5 style: swap the alias for a never-defined name.
        replacement = _fresh_undefined_label(statement, rng, target.table)
        target.table = replacement
        return f"qualifier rewritten to undefined alias {replacement!r}"
    # No qualified refs: qualify some column with an undefined alias.
    picked = _pick_core_with_tables(statement, schema, rng)
    if picked is None:
        return None
    core, _ = picked
    replacement = _fresh_undefined_label(statement, rng, "q")
    for item in core.items:
        if isinstance(item.expr, n.ColumnRef) and item.expr.table is None:
            item.expr.table = replacement
            return (
                f"select column qualified with undefined alias {replacement!r}"
            )
    return None


def _inject_alias_ambiguous(
    statement: n.Statement, schema: Schema, rng: random.Random
) -> Optional[str]:
    shared = set(schema.shared_column_names())
    if not shared:
        return None
    for core in select_cores(statement):
        tables = [t for t in named_tables(core) if schema.has_table(t.name)]
        if len(tables) < 2:
            continue
        # Column names shared by at least two sources of this core.
        per_table = [
            {c.name.lower() for c in schema.table(t.name).columns} for t in tables
        ]
        counts: dict[str, int] = {}
        for names in per_table:
            for name in names:
                counts[name] = counts.get(name, 0) + 1
        local_shared = [name for name, count in counts.items() if count > 1]
        if not local_shared:
            continue
        # Prefer stripping the qualifier from an existing reference (Q6).
        refs = [
            node
            for node in n.walk(core)
            if isinstance(node, n.ColumnRef)
            and node.table is not None
            and node.name.lower() in local_shared
        ]
        join_refs = _join_condition_refs(core)
        droppable = [r for r in refs if id(r) not in join_refs]
        if droppable:
            target = rng.choice(droppable)
            target.table = None
            return f"qualifier dropped from shared column {target.name!r}"
        column_name = rng.choice(sorted(local_shared))
        core.items.append(n.SelectItem(expr=n.ColumnRef(name=column_name)))
        return f"unqualified shared column {column_name!r} added to select list"
    return None


def _join_condition_refs(core: n.SelectCore) -> set[int]:
    """Identity set of column refs inside join ON conditions.

    Stripping a qualifier inside an ON clause would often leave the join
    unparseable for humans; the paper's examples strip qualifiers in
    SELECT/WHERE, so we avoid ON clauses.
    """
    refs: set[int] = set()

    def visit(ref: n.TableRef) -> None:
        if isinstance(ref, n.Join):
            visit(ref.left)
            visit(ref.right)
            if ref.condition is not None:
                for node in n.walk(ref.condition):
                    if isinstance(node, n.ColumnRef):
                        refs.add(id(node))

    for item in core.from_items:
        visit(item)
    return {id_ for id_ in refs}


_INJECTORS: dict[str, Callable] = {
    AGGR_ATTR: _inject_aggr_attr,
    AGGR_HAVING: _inject_aggr_having,
    NESTED_MISMATCH: _inject_nested_mismatch,
    CONDITION_MISMATCH: _inject_condition_mismatch,
    ALIAS_UNDEFINED: _inject_alias_undefined,
    ALIAS_AMBIGUOUS: _inject_alias_ambiguous,
}


def _weighted_order(
    rng: random.Random, weights: Optional[dict[str, float]]
) -> list[str]:
    """Sample all error types without replacement, biased by *weights*.

    Weights model how often each error class occurs in a workload's
    realistic usage (e.g. ambiguous aliases are endemic to SQLShare's
    multi-schema queries, paper section 4.1).
    """
    remaining = list(ERROR_TYPES)
    order: list[str] = []
    while remaining:
        total = sum((weights or {}).get(t, 1.0) for t in remaining)
        point = rng.random() * total
        for candidate in remaining:
            point -= (weights or {}).get(candidate, 1.0)
            if point <= 0:
                order.append(candidate)
                remaining.remove(candidate)
                break
        else:  # floating-point tail
            order.append(remaining.pop())
    return order


def inject_syntax_error(
    statement: n.Statement,
    schema: Schema,
    rng: random.Random,
    error_type: Optional[str] = None,
    type_weights: Optional[dict[str, float]] = None,
) -> Optional[AppliedTransform]:
    """Inject one error into a copy of *statement*.

    When *error_type* is None, a (optionally weighted) random applicable
    type is used.  The result's ``name`` is the error type.  Returns
    None when no injector applies (e.g. DECLARE statements).
    """
    order = (
        [error_type]
        if error_type is not None
        else _weighted_order(rng, type_weights)
    )
    return apply_typed_transform(
        statement,
        schema,
        rng,
        _INJECTORS,
        order,
        require_change=False,
        kind="error",
    )
