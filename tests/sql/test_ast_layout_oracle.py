"""The layout-driven AST kernels agree with the reflective ones they replaced.

The references below are the reflective kernels: field names from
``dataclasses.fields``, every field value classified with ``isinstance``
at run time, the ``Insert``/``Update`` ``children`` overrides, and the
renderer's name-built dispatch (``getattr(self, f"_expr_{name}")``).
Every node of every generated and every re-parsed statement of the four
paper workloads at seeds 0 and 1, and of all seven synthetic profiles,
must give identical ``children()``, ``walk`` order and ``render`` text
in both dialects, and ``clone`` must return an equal tree sharing no
node or list with the original.  The splicing helpers are checked the
same way on a hand-written corpus that covers every node class.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest

from repro.sql import nodes as n
from repro.sql.errors import RenderError
from repro.sql.parser import parse_statement
from repro.sql.render import SQLITE, TSQL, Renderer, _node_desc, render
from repro.sql.transform import replace_expr, rewrite_leaves
from repro.workloads import WORKLOAD_NAMES, load_workload
from repro.workloads.synthetic import PROFILES

# ---------------------------------------------------------------------------
# Reflective references
# ---------------------------------------------------------------------------


@functools.cache
def _class_field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _field_names(node: n.Node) -> tuple[str, ...]:
    return _class_field_names(node.__class__)


def reference_children(node: n.Node):
    if isinstance(node, n.Insert):
        for row in node.rows:
            yield from row
        if node.query is not None:
            yield node.query
        return
    if isinstance(node, n.Update):
        for _, expr in node.assignments:
            yield expr
        if node.where is not None:
            yield node.where
        return
    for name in _field_names(node):
        value = getattr(node, name)
        if isinstance(value, n.Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, n.Node):
                    yield item
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, n.Node):
                            yield sub


def reference_walk(node: n.Node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(reference_children(current))))


def _reference_clone_value(value):
    if isinstance(value, n.Node):
        return reference_clone(value)
    if isinstance(value, list):
        return [_reference_clone_value(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_reference_clone_value(item) for item in value)
    return value


def reference_clone(node: n.Node) -> n.Node:
    copy = node.__class__.__new__(node.__class__)
    for name in _field_names(node):
        setattr(copy, name, _reference_clone_value(getattr(node, name)))
    return copy


def reference_replace_expr(root, target, replacement) -> bool:
    for node in reference_walk(root):
        for name in _field_names(node):
            value = getattr(node, name)
            if value is target:
                setattr(node, name, replacement)
                return True
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if item is target:
                        value[index] = replacement
                        return True
                    if isinstance(item, tuple):
                        for sub_index, sub in enumerate(item):
                            if sub is target:
                                new_tuple = list(item)
                                new_tuple[sub_index] = replacement
                                value[index] = tuple(new_tuple)
                                return True
    return False


def reference_rewrite_leaves(root, matches, rebuild) -> int:
    count = 0
    for node in reference_walk(root):
        for name in _field_names(node):
            value = getattr(node, name)
            if matches(value):
                setattr(node, name, rebuild(value))
                count += 1
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    if matches(item):
                        value[index] = rebuild(item)
                        count += 1
                    elif isinstance(item, tuple) and any(matches(sub) for sub in item):
                        value[index] = tuple(
                            rebuild(sub) if matches(sub) else sub for sub in item
                        )
                        count += 1
    return count


class ReferenceRenderer(Renderer):
    """The renderer with its dispatch built from method names per call."""

    def render_statement(self, stmt):
        method = getattr(self, f"_stmt_{type(stmt).__name__}", None)
        if method is None:
            raise RenderError(f"cannot render statement {_node_desc(stmt)}")
        return method(stmt)

    def render_expr(self, expr):
        method = getattr(self, f"_expr_{type(expr).__name__}", None)
        if method is None:
            raise RenderError(f"cannot render expression {_node_desc(expr)}")
        return method(expr)


def reference_render(node: n.Node, dialect: str) -> str:
    renderer = ReferenceRenderer(dialect)
    if isinstance(node, n.Script):
        return "; ".join(renderer.render_statement(stmt) for stmt in node.statements)
    if isinstance(node, n.Statement):
        return renderer.render_statement(node)
    if isinstance(node, n.Query):
        return renderer.render_query(node)
    if isinstance(node, (n.SelectCore, n.Compound)):
        return renderer._body(node)
    if isinstance(node, n.TableRef):
        return renderer._table_ref(node)
    if isinstance(node, n.Expr):
        return renderer.render_expr(node)
    raise RenderError(f"cannot render node {_node_desc(node)}")


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

#: Hand-written statements that between them use every node class.
CORPUS = [
    "SELECT DISTINCT TOP 5 a.x AS ax, -b.y, NOT (a.x = 1), COUNT(DISTINCT a.z) "
    "FROM dbo.ta AS a LEFT JOIN tb AS b ON a.id = b.id "
    "WHERE a.x BETWEEN 1 AND 9 AND b.y NOT LIKE 'q%' AND a.z IS NOT NULL "
    "GROUP BY a.x HAVING COUNT(*) > 2 ORDER BY a.x DESC",
    "SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END, "
    "CASE WHEN b > 0 THEN b ELSE -b END, CAST(c AS REAL), @v, t.* "
    "FROM t WHERE a IN (1, 2, 3) AND b NOT IN (SELECT b FROM u) "
    "AND EXISTS (SELECT 1 FROM v WHERE v.a = t.a) AND c = (SELECT MAX(c) FROM w)",
    "WITH c (k, v) AS (SELECT a, b FROM t), d AS (SELECT k FROM c) "
    "SELECT * FROM (SELECT k FROM d) AS s UNION ALL SELECT v FROM c "
    "ORDER BY 1 LIMIT 3",
    "SELECT a FROM t EXCEPT SELECT a FROM u INTERSECT SELECT a FROM v",
    "SELECT a FROM t ORDER BY a LIMIT 10 OFFSET 5",
    "SELECT TRUE, FALSE, NULL, 1.5e3, 'it''s' FROM t",
    "CREATE TABLE dbo.k (id INT NOT NULL PRIMARY KEY, n TEXT DEFAULT 'x', r REAL)",
    "CREATE TABLE k2 AS SELECT a FROM t WHERE a > 0",
    "CREATE VIEW vw AS SELECT a, b FROM t",
    "INSERT INTO t (a, b) VALUES (1, 'two'), (-3, 'four'), (5 + 6, NULL)",
    "INSERT INTO t SELECT a, b FROM u",
    "UPDATE t SET a = a + 1, b = -2, c = CASE WHEN a > 0 THEN 1 ELSE -1 END "
    "WHERE b = 'x'",
    "DELETE FROM t WHERE a < -5",
    "DROP TABLE IF EXISTS t",
    "DECLARE @maxZ FLOAT",
    "SET @maxZ = -0.5 * 2",
    "EXEC dbo.spFind -1, 'a'",
    "WAITFOR DELAY '00:00:05'",
]


def corpus_statements() -> list[n.Statement]:
    return [parse_statement(text) for text in CORPUS]


def workload_statements(name: str, seed: int) -> list[n.Statement]:
    """Every generated statement of a workload, then every re-parsed one.

    A re-parsed statement equal to the generated one it came from would
    repeat that statement's checks exactly, so it is left out.
    """
    generated, reparsed = [], []
    for query in load_workload(name, seed).queries:
        statement = parse_statement(query.text)
        if query._statement is not None:
            generated.append(query._statement)
            if statement == query._statement:
                continue
        reparsed.append(statement)
    return generated + reparsed


WORKLOADS = [(name, seed) for name in WORKLOAD_NAMES for seed in (0, 1)] + [
    (f"synthetic:{profile}:n=8", 0) for profile in sorted(PROFILES)
]

# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return ("text", fn(*args))
    except RenderError as error:
        return ("error", str(error))


def _containers(root: n.Node) -> list[object]:
    """Every node and every list object reachable from *root*."""
    found: list[object] = []
    stack: list[object] = [root]
    while stack:
        value = stack.pop()
        if isinstance(value, n.Node):
            found.append(value)
            stack.extend(getattr(value, name) for name in _field_names(value))
        elif isinstance(value, (list, tuple)):
            if isinstance(value, list):
                found.append(value)
            stack.extend(value)
    return found


def check_node(node: n.Node, statement_objects: set[int]) -> None:
    """All four kernels on one node; *statement_objects* holds the ids of
    every node and list of the statement *node* belongs to."""
    children = node.children()
    expected = list(reference_children(node))
    assert len(children) == len(expected)
    assert all(a is b for a, b in zip(children, expected)), type(node).__name__

    walked = list(map(id, n.walk(node)))
    assert walked == list(map(id, reference_walk(node))), type(node).__name__

    for dialect in (TSQL, SQLITE):
        assert _outcome(render, node, dialect) == _outcome(
            reference_render, node, dialect
        )

    copy = n.clone(node)
    assert copy == node
    assert statement_objects.isdisjoint(map(id, _containers(copy)))


def check_statement(statement: n.Node) -> None:
    assert n.clone(statement) == reference_clone(statement)
    statement_objects = set(map(id, _containers(statement)))
    for node in reference_walk(statement):
        check_node(node, statement_objects)


def test_corpus_covers_every_node_class():
    seen = {type(node) for stmt in corpus_statements() for node in n.walk(stmt)}
    seen.add(n.Script)  # checked below: the parser returns statements only
    assert seen == set(n.LAYOUTS)


def test_corpus_agrees_with_the_reflective_kernels():
    statements = corpus_statements()
    for statement in statements:
        check_statement(statement)
    check_statement(n.Script(statements=statements))


@pytest.mark.parametrize(
    "name,seed", WORKLOADS, ids=[f"{name}-{seed}" for name, seed in WORKLOADS]
)
def test_workload_agrees_with_the_reflective_kernels(name: str, seed: int) -> None:
    for statement in workload_statements(name, seed):
        check_statement(statement)


def _is_negative_number(value: object) -> bool:
    return (
        isinstance(value, n.Literal)
        and value.kind == "number"
        and isinstance(value.value, (int, float))
        and value.value < 0
    )


def _negated(literal: n.Literal) -> n.Unary:
    return n.Unary(op="-", operand=n.Literal(value=-literal.value, kind="number"))


def _with_negative_numbers(statement: n.Statement) -> n.Statement:
    """A copy whose number literals are all negative, so node fields,
    node lists, tuple slots and ``Insert.rows`` all hold match sites."""
    copy = n.clone(statement)
    for node in n.walk(copy):
        if isinstance(node, n.Literal) and node.kind == "number" and node.value > 0:
            node.value = -node.value
    return copy


def test_splicing_agrees_with_the_reflective_helpers():
    rng = random.Random(0)
    statements = corpus_statements()
    statements += workload_statements("synthetic:default:n=4", 0)[:48]
    rewritten = 0
    for statement in statements:
        targets = [node for node in n.walk(statement) if isinstance(node, n.Expr)]
        for index in range(len(targets)):
            ours, theirs = n.clone(statement), n.clone(statement)
            our_target = [x for x in n.walk(ours) if isinstance(x, n.Expr)][index]
            their_target = [x for x in n.walk(theirs) if isinstance(x, n.Expr)][index]
            replacement = n.ColumnRef(name=f"r{rng.randrange(1000)}")
            assert replace_expr(ours, our_target, replacement) == reference_replace_expr(
                theirs, their_target, n.clone(replacement)
            )
            assert ours == theirs

        negative = _with_negative_numbers(statement)
        ours, theirs = n.clone(negative), n.clone(negative)
        count = rewrite_leaves(ours, _is_negative_number, _negated)
        assert count == reference_rewrite_leaves(theirs, _is_negative_number, _negated)
        assert ours == theirs
        rewritten += count
    assert rewritten > 0


def test_unclassifiable_annotation_is_rejected():
    @dataclasses.dataclass(eq=False, slots=True)
    class Odd(n.Expr):
        lookup: dict[str, n.Expr] = dataclasses.field(default_factory=dict)

    with pytest.raises(TypeError, match="Odd.lookup"):
        n.Layout(Odd)
