"""Structural corruption: AST-level perturbations beyond the paper's six.

The paper's error types are *semantic* (the text still parses); the
classes here break queries at the structural level instead, which only
becomes tractable once queries are held as ASTs (the synthetic workload
family generates ASTs directly):

* ``clause-order`` — two top-level SELECT clauses rendered in swapped
  order (``GROUP BY`` before ``WHERE``, or ``ORDER BY`` before
  ``WHERE``), the classic write-from-memory mistake;
* ``dangling-alias`` — a table's alias definition is dropped from FROM
  while alias-qualified references stay behind, leaving them resolving
  nowhere;
* ``paren-imbalance`` — a subquery loses its closing parenthesis (the
  off-by-one every hand-edited nested query risks), making the text
  unparseable.

Each injector runs through the shared transform layer
(:mod:`repro.sql.transform`): it receives a clone, mutates or
re-renders, and returns corrupted *text* plus labels, mirroring
:mod:`repro.corrupt.syntax_errors`.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.schema.model import Schema
from repro.sql import nodes as n
from repro.sql.render import Renderer, render
from repro.sql.transform import (
    AppliedTransform,
    apply_typed_transform,
    outer_core,
    sample_order,
)

CLAUSE_ORDER = "clause-order"
DANGLING_ALIAS = "dangling-alias"
PAREN_IMBALANCE = "paren-imbalance"

#: The structural error types, in presentation order.
STRUCTURAL_TYPES: tuple[str, ...] = (CLAUSE_ORDER, DANGLING_ALIAS, PAREN_IMBALANCE)


def _corrupt_clause_order(
    statement: n.Statement, schema: Optional[Schema], rng: random.Random
) -> Optional[tuple[str, str]]:
    """Render the outer core with two clauses swapped."""
    core = outer_core(statement)
    if core is None or not core.from_items:
        return None
    renderer = Renderer()
    clauses: list[tuple[str, str]] = [
        (
            "SELECT",
            "SELECT "
            + ("DISTINCT " if core.distinct else "")
            + ", ".join(renderer._select_item(item) for item in core.items),
        ),
        (
            "FROM",
            "FROM " + ", ".join(renderer._table_ref(ref) for ref in core.from_items),
        ),
    ]
    if core.where is not None:
        clauses.append(("WHERE", f"WHERE {renderer.render_expr(core.where)}"))
    if core.group_by:
        clauses.append(
            (
                "GROUP BY",
                "GROUP BY " + ", ".join(renderer.render_expr(e) for e in core.group_by),
            )
        )
    if core.having is not None:
        clauses.append(("HAVING", f"HAVING {renderer.render_expr(core.having)}"))
    if core.order_by:
        clauses.append(
            (
                "ORDER BY",
                "ORDER BY " + ", ".join(renderer._order_item(i) for i in core.order_by),
            )
        )
    # Swappable pairs that genuinely misorder SQL (never SELECT itself
    # leading, which would merely be the original).
    candidates = [
        (i, j)
        for i in range(1, len(clauses))
        for j in range(i + 1, len(clauses))
    ]
    if not candidates:
        return None
    first, second = rng.choice(candidates)
    swapped = f"{clauses[first][0]}/{clauses[second][0]}"
    clauses[first], clauses[second] = clauses[second], clauses[first]
    return " ".join(text for _, text in clauses), f"clauses {swapped} swapped"


def _corrupt_dangling_alias(
    statement: n.Statement, schema: Optional[Schema], rng: random.Random
) -> Optional[tuple[str, str]]:
    """Drop one alias definition whose qualified references remain."""
    used_aliases = {
        node.table.lower()
        for node in n.walk(statement)
        if isinstance(node, n.ColumnRef) and node.table is not None
    }
    candidates = [
        node
        for node in n.walk(statement)
        if isinstance(node, n.NamedTable)
        and node.alias is not None
        and node.alias.lower() in used_aliases
        and node.alias.lower() != node.name.lower()
    ]
    if not candidates:
        return None
    target = rng.choice(candidates)
    alias = target.alias
    target.alias = None
    return (
        render(statement),
        f"alias {alias!r} definition dropped; its references dangle",
    )


def _corrupt_paren_imbalance(
    statement: n.Statement, schema: Optional[Schema], rng: random.Random
) -> Optional[tuple[str, str]]:
    """Remove the closing parenthesis of one subquery."""
    has_subquery = any(
        isinstance(node, (n.InSubquery, n.ScalarSubquery, n.Exists, n.DerivedTable))
        for node in n.walk(statement)
    )
    if not has_subquery:
        return None
    text = render(statement)
    openers = [
        index
        for index in range(len(text))
        if text.startswith("(SELECT ", index) or text.startswith("(WITH ", index)
    ]
    if not openers:
        return None
    start = rng.choice(openers)
    depth = 0
    for index in range(start, len(text)):
        if text[index] == "(":
            depth += 1
        elif text[index] == ")":
            depth -= 1
            if depth == 0:
                corrupted = text[:index] + text[index + 1 :]
                return (
                    corrupted.replace("  ", " ").strip(),
                    "subquery closing parenthesis dropped",
                )
    return None


_INJECTORS: dict[
    str,
    Callable[
        [n.Statement, Optional[Schema], random.Random], Optional[tuple[str, str]]
    ],
] = {
    CLAUSE_ORDER: _corrupt_clause_order,
    DANGLING_ALIAS: _corrupt_dangling_alias,
    PAREN_IMBALANCE: _corrupt_paren_imbalance,
}


def inject_structural_error(
    statement: n.Statement,
    rng: random.Random,
    error_type: Optional[str] = None,
) -> Optional[AppliedTransform]:
    """Inject one structural error into a copy of *statement*.

    When *error_type* is None a random applicable type is used.  The
    result's ``name`` is the error type.  Returns None when no injector
    applies (e.g. a flat query has no subquery to unbalance and no alias
    to dangle).
    """
    order = (
        [error_type]
        if error_type is not None
        else sample_order(rng, STRUCTURAL_TYPES)
    )
    return apply_typed_transform(
        statement,
        None,
        rng,
        _INJECTORS,
        order,
        kind="structural error",
    )
