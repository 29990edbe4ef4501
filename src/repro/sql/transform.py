"""The generic AST transform layer.

Every mutation of a parsed statement in this codebase — corruption
injectors, non-equivalence counter-transforms, equivalence rewrites,
synthetic-generator normalisation, and the rewrite catalog — runs
through the primitives here instead of carrying its own tree walker.
The module owns three concerns:

* **copy-on-write application** — :func:`apply_typed_transform` clones
  the statement (clones never inherit the ``_shash`` structural-hash
  cache, so rebuilt trees can never serve a stale hash), runs one
  mutation function from a registry against the clone, renders, and
  returns an :class:`AppliedTransform`, the one result type of every
  typed mutation (corruption injectors, equivalence and
  counter-transforms, rewrite catalog steps);
* **site selection** — mutation functions receive a seeded
  ``random.Random`` and use the shared helpers (:func:`and_leaves`,
  :func:`select_cores`, :func:`named_tables`, …) to enumerate candidate
  sites deterministically;
* **structural rebuilding** — :func:`replace_expr` (identity-based,
  list- and tuple-aware) and :func:`rewrite_leaves` (predicate-driven
  leaf replacement) are the only sanctioned ways to splice a subtree
  in place.

Do not write new ad-hoc walkers in task or workload code; extend this
module instead (see ARCHITECTURE.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.sql import nodes as n
from repro.sql.nodes import LAYOUTS, NODE, NODES, PAIRS, clone, walk
from repro.sql.render import render

__all__ = [
    "AppliedTransform",
    "MutationFn",
    "and_leaves",
    "apply_typed_transform",
    "clone",
    "collect",
    "named_tables",
    "named_tables_with_labels",
    "outer_core",
    "qualify_core_refs",
    "qualify_shallow",
    "replace_expr",
    "rewrite_leaves",
    "sample_order",
    "select_cores",
    "rebuild_and",
    "walk",
]

#: A mutation function mutates an already-cloned statement in place and
#: returns a human-readable detail string on success, ``None`` when the
#: transform does not apply, or a pre-rendered ``(text, detail)`` pair
#: when the corrupted output is *not* a straight render of the mutated
#: tree (e.g. clause-order swaps that misrender deliberately).
MutationOutcome = Union[None, str, tuple[str, str]]
MutationFn = Callable[..., MutationOutcome]


@dataclass
class AppliedTransform:
    """One successful transform application.

    ``name`` is the registry key that applied: the error type, pair
    type or catalog transform the result is labelled with.
    ``statement`` is the mutated AST ``text`` was rendered from, or
    ``None`` when the mutation produced pre-rendered text that no tree
    renders to.
    """

    text: str
    name: str
    detail: str
    original_text: str
    statement: Optional[n.Statement] = None


# ---------------------------------------------------------------------------
# Traversal / selection primitives
# ---------------------------------------------------------------------------


def outer_core(statement: n.Statement) -> Optional[n.SelectCore]:
    """The outermost SELECT core of a plain (non-compound) statement."""
    if not isinstance(statement, n.SelectStatement):
        return None
    body = statement.query.body
    return body if isinstance(body, n.SelectCore) else None


def select_cores(statement: n.Node) -> list[n.SelectCore]:
    """All SELECT cores in the statement, outermost first."""
    return [node for node in walk(statement) if isinstance(node, n.SelectCore)]


def collect(root: n.Node, node_type, predicate=None) -> list:
    """All nodes of *node_type* under *root*, optionally filtered."""
    if predicate is None:
        return [node for node in walk(root) if isinstance(node, node_type)]
    return [
        node for node in walk(root) if isinstance(node, node_type) and predicate(node)
    ]


def named_tables(core: n.SelectCore) -> list[n.NamedTable]:
    """The named tables of one core's FROM clause, join trees flattened."""
    tables: list[n.NamedTable] = []

    def visit(ref: n.TableRef) -> None:
        if isinstance(ref, n.NamedTable):
            tables.append(ref)
        elif isinstance(ref, n.Join):
            visit(ref.left)
            visit(ref.right)

    for item in core.from_items:
        visit(item)
    return tables


def named_tables_with_labels(core: n.SelectCore) -> list[tuple[str, str]]:
    """``(label, table_name)`` pairs for one core's FROM sources."""
    return [(table.alias or table.name, table.name) for table in named_tables(core)]


def and_leaves(expr: n.Expr) -> list[n.Expr]:
    """Flatten a conjunction into its leaves."""
    if isinstance(expr, n.Binary) and expr.op == "AND":
        return and_leaves(expr.left) + and_leaves(expr.right)
    return [expr]


def rebuild_and(leaves: list[n.Expr]) -> Optional[n.Expr]:
    """Left-fold leaves back into an AND chain (None for an empty list)."""
    if not leaves:
        return None
    combined = leaves[0]
    for leaf in leaves[1:]:
        combined = n.Binary(op="AND", left=combined, right=leaf)
    return combined


def sample_order(rng: random.Random, types: Sequence[str]) -> list[str]:
    """All types in seeded random order (uniform, without replacement)."""
    return rng.sample(list(types), k=len(types))


def qualify_shallow(expr: n.Expr, alias: str) -> None:
    """Qualify unqualified column refs at this scope level (not subqueries)."""
    stack: list[n.Expr] = [expr]
    while stack:
        current = stack.pop()
        if isinstance(current, n.ColumnRef):
            if current.table is None:
                current.table = alias
        elif isinstance(current, (n.ScalarSubquery, n.Exists)):
            continue
        elif isinstance(current, n.InSubquery):
            stack.append(current.expr)
        else:
            for child in current.children():
                if isinstance(child, n.Expr):
                    stack.append(child)


def qualify_core_refs(core: n.SelectCore, alias: str) -> None:
    """Qualify every unqualified level-0 ref of a single-source core."""
    select_aliases = {item.alias.lower() for item in core.items if item.alias}
    for item in core.items:
        if isinstance(item.expr, n.Star):
            continue
        qualify_shallow(item.expr, alias)
    if core.where is not None:
        qualify_shallow(core.where, alias)
    for expr in core.group_by:
        qualify_shallow(expr, alias)
    if core.having is not None:
        qualify_shallow(core.having, alias)
    for item in core.order_by:
        # ORDER BY may name a select alias; qualifying that would break it.
        if (
            isinstance(item.expr, n.ColumnRef)
            and item.expr.table is None
            and item.expr.name.lower() in select_aliases
        ):
            continue
        qualify_shallow(item.expr, alias)


# ---------------------------------------------------------------------------
# Structural rebuilding
# ---------------------------------------------------------------------------


def replace_expr(root: n.Node, target: n.Expr, replacement: n.Expr) -> bool:
    """Replace *target* (by identity) anywhere under *root*.

    Handles node fields, node lists, and the node slots of tuple lists
    (``Case.whens``, ``Update.assignments``); the inner lists of
    ``Insert.rows`` are not searched.  Returns True when a splice
    happened.
    """
    for node in walk(root):
        for name, kind, positions in LAYOUTS[node.__class__].links:
            value = getattr(node, name)
            if kind is NODE:
                if value is target:
                    setattr(node, name, replacement)
                    return True
            elif kind is NODES:
                for index, item in enumerate(value):
                    if item is target:
                        value[index] = replacement
                        return True
            elif kind is PAIRS:
                for index, pair in enumerate(value):
                    for slot in positions:
                        if pair[slot] is target:
                            value[index] = pair[:slot] + (replacement,) + pair[slot + 1 :]
                            return True
    return False


def rewrite_leaves(
    root: n.Node,
    matches: Callable[[n.Node], bool],
    rebuild: Callable,
) -> int:
    """Replace every node satisfying *matches* with ``rebuild(node)``.

    Walks every node's node fields, node lists and the node slots of
    tuple lists in place (not the inner lists of ``Insert.rows``) and
    returns the number of replacements; a tuple counts once however many
    of its slots matched.  This is the structural-hash-safe way to
    normalise leaves across a whole tree (the tree being rewritten must
    be a clone or a fresh build, never a cached shared statement).
    """
    count = 0
    for node in walk(root):
        for name, kind, positions in LAYOUTS[node.__class__].links:
            value = getattr(node, name)
            if kind is NODE:
                if value is not None and matches(value):
                    setattr(node, name, rebuild(value))
                    count += 1
            elif kind is NODES:
                for index, item in enumerate(value):
                    if matches(item):
                        value[index] = rebuild(item)
                        count += 1
            elif kind is PAIRS:
                for index, pair in enumerate(value):
                    hits = [slot for slot in positions if matches(pair[slot])]
                    if hits:
                        value[index] = tuple(
                            rebuild(item) if slot in hits else item
                            for slot, item in enumerate(pair)
                        )
                        count += 1
    return count


# ---------------------------------------------------------------------------
# Registry application
# ---------------------------------------------------------------------------


def apply_typed_transform(
    statement: n.Statement,
    schema,
    rng: random.Random,
    registry: Mapping[str, MutationFn],
    order: Iterable[str],
    *,
    original_text: Optional[str] = None,
    require_change: bool = True,
    kind: str = "transform",
) -> Optional[AppliedTransform]:
    """Apply the first applicable transform from *registry* in *order*.

    The copy-on-write discipline all mutation sites share: each
    candidate runs against a fresh :func:`clone` of *statement* (clones
    carry no ``_shash``, so the mutated tree always re-derives its
    structural hash), successful mutations are rendered, and — when
    *require_change* — renders identical to *original_text* are skipped
    as silent no-ops.  Unknown names in *order* raise ``KeyError``.
    """
    if original_text is None:
        original_text = render(statement)
    for candidate in order:
        fn = registry.get(candidate)
        if fn is None:
            raise KeyError(f"unknown {kind} type {candidate!r}")
        mutated = clone(statement)
        outcome = fn(mutated, schema, rng)
        if outcome is None:
            continue
        if isinstance(outcome, tuple):
            text, detail = outcome
            applied_statement = None
        else:
            text, detail = render(mutated), outcome
            applied_statement = mutated
        if require_change and text == original_text:
            continue
        return AppliedTransform(
            text=text,
            name=candidate,
            detail=detail,
            original_text=original_text,
            statement=applied_statement,
        )
    return None

