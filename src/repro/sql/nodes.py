"""Typed AST for the SQL dialect used across the paper's workloads.

Every node is a ``__slots__`` dataclass: slotted instances are smaller
and faster to build/clone than dict-backed ones, which matters because
million-instance synthetic workloads (ROADMAP item 2) materialise one
tree per query text.

At import the module builds one :class:`Layout` per concrete node class
(:data:`LAYOUTS`) from the class's type hints.  Each field is classified
once as a scalar, one node, a node list, a list of tuples, a list of
node lists or a list of strings; an annotation outside those shapes
fails the import.  The AST kernels run from the layouts instead of
testing every field value at run time: :meth:`Node.children`,
:func:`walk`, :func:`clone`, equality and :func:`structural_hash` here,
and the splicing loops of :mod:`repro.sql.transform`.

Structural equality is provided by a single generic :meth:`Node.__eq__`
with a precomputed-hash fast path: once :func:`structural_hash` has been
computed for two trees, comparing them starts with an O(1) hash check
instead of a full tree walk.

Nodes are deliberately *unhashable* (``__hash__ = None``): they are
mutable, and the analysis cache keys on query text, never on trees.
:func:`structural_hash` is the explicit, cached alternative for
identity-of-shape questions (equality fast path, shared-AST mutation
detection in :mod:`repro.sql.analysis_cache`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterator, Optional, Union, get_args, get_origin, get_type_hints

#: Armed by ``REPRO_DEBUG_SHARED_AST=1`` (the same switch that arms the
#: analysis-cache mutation guard): every clone() asserts the copy starts
#: with no ``_shash``, so a stale structural hash can never ride across
#: a mutating transform.
_DEBUG_CLONE_SHASH = os.environ.get("REPRO_DEBUG_SHARED_AST", "") not in ("", "0")


class Node:
    """Base class for all AST nodes.

    The only non-field slot is ``_shash``, the lazily computed structural
    hash.  It is intentionally *not* a dataclass field: it never takes
    part in equality directly, never appears in ``repr``, and clones
    never inherit it (a clone exists to be mutated).
    """

    __slots__ = ("_shash",)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        cls = self.__class__
        if other.__class__ is not cls:
            return NotImplemented
        # Hash fast path: two trees whose structural hashes are both
        # already known and differ cannot be equal.  (Equal hashes still
        # fall through to the field comparison — hashes can collide.)
        try:
            if self._shash != other._shash:
                return False
        except AttributeError:
            pass
        for name in LAYOUTS[cls].names:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    # Defining __eq__ would implicitly set this to None anyway; keep it
    # explicit: nodes are mutable and must stay unhashable.
    __hash__ = None  # type: ignore[assignment]

    def children(self) -> list["Node"]:
        """Direct child nodes in field order, list items and tuple slots included."""
        return _children(self, LAYOUTS[self.__class__].links)


# ---------------------------------------------------------------------------
# Field layouts
# ---------------------------------------------------------------------------

#: Field kinds.  A node field holds one node or, when Optional, None; a
#: pairs field holds tuples whose node slots the layout lists; a rows
#: field holds lists of nodes (``Insert.rows``).
SCALAR = "scalar"
NODE = "node"
NODES = "nodes"
PAIRS = "pairs"
ROWS = "rows"
STRINGS = "strings"

_SCALAR_TYPES = (str, int, float, bool, type(None))


class Layout:
    """The classified fields of one concrete node class.

    ``names`` holds every field in declaration order.  ``scalars`` are
    copied by reference and ``strings`` shallowly.  ``links`` are the
    fields that can hold nodes, in declaration order, as
    ``(name, kind, positions)``; ``positions`` indexes the node slots of
    a ``PAIRS`` field's tuples and is empty for every other kind.
    """

    __slots__ = ("names", "scalars", "strings", "links")

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        self.names = tuple(f.name for f in fields(cls))
        scalars, strings, links = [], [], []
        for name in self.names:
            kind, positions = _field_kind(cls, name, hints[name])
            if kind is SCALAR:
                scalars.append(name)
            elif kind is STRINGS:
                strings.append(name)
            else:
                links.append((name, kind, positions))
        self.scalars = tuple(scalars)
        self.strings = tuple(strings)
        self.links = tuple(links)


def _is_node_type(hint) -> bool:
    """A node class, or a Union (Optional included) of node classes."""
    if get_origin(hint) is Union:
        members = [arg for arg in get_args(hint) if arg is not type(None)]
        return bool(members) and all(map(_is_node_type, members))
    return isinstance(hint, type) and issubclass(hint, Node)


def _is_scalar_type(hint) -> bool:
    if get_origin(hint) is Union:
        return all(arg in _SCALAR_TYPES for arg in get_args(hint))
    return hint in _SCALAR_TYPES


def _field_kind(cls: type, name: str, hint) -> tuple[str, tuple[int, ...]]:
    """Classify one annotated field; raises on a shape no kernel handles."""
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        if _is_node_type(item):
            return NODES, ()
        if item is str:
            return STRINGS, ()
        if get_origin(item) is list and _is_node_type(get_args(item)[0]):
            return ROWS, ()
        if get_origin(item) is tuple:
            slots = get_args(item)
            positions = tuple(i for i, slot in enumerate(slots) if _is_node_type(slot))
            if positions and all(_is_node_type(s) or s is str for s in slots):
                return PAIRS, positions
    elif _is_node_type(hint):
        return NODE, ()
    elif _is_scalar_type(hint):
        return SCALAR, ()
    raise TypeError(f"cannot classify field {cls.__name__}.{name}: {hint!r}")


def _children(node: Node, links) -> list[Node]:
    out: list[Node] = []
    for name, kind, positions in links:
        value = getattr(node, name)
        if kind is NODE:
            if value is not None:
                out.append(value)
        elif kind is NODES:
            out.extend(value)
        elif kind is PAIRS:
            for pair in value:
                for index in positions:
                    out.append(pair[index])
        else:  # ROWS
            for row in value:
                out.extend(row)
    return out


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal over *node* and all descendants.

    A node's children are read after the caller has seen the node, so a
    caller that splices a node's fields during the walk visits the new
    subtrees (:func:`repro.sql.transform.rewrite_leaves` relies on it).
    """
    stack = [node]
    pop, push = stack.pop, stack.extend
    while stack:
        current = pop()
        yield current
        links = LAYOUTS[current.__class__].links
        if links:
            found = _children(current, links)
            found.reverse()
            push(found)


def clone(node: Node) -> Node:
    """A deep structural copy of an AST, several times faster than
    ``copy.deepcopy``.

    Parser output is strictly a tree (no shared sub-nodes), so a plain
    recursive rebuild is equivalent to ``deepcopy`` while skipping its
    memo bookkeeping and reduce-protocol dispatch.  Transforms use this
    for their mutate-a-copy discipline; it is also the required first
    step before mutating any AST obtained from
    :mod:`repro.sql.analysis_cache`, whose statements are shared values.

    The ``_shash`` cache is deliberately not copied: a clone exists to
    be mutated, so a carried-over hash would immediately go stale.
    """
    cls = node.__class__
    layout = LAYOUTS[cls]
    copy = cls.__new__(cls)
    for name in layout.scalars:
        setattr(copy, name, getattr(node, name))
    for name in layout.strings:
        setattr(copy, name, list(getattr(node, name)))
    for name, kind, positions in layout.links:
        value = getattr(node, name)
        if kind is NODE:
            if value is not None:
                value = clone(value)
        elif kind is NODES:
            value = [clone(item) for item in value]
        elif kind is PAIRS:
            value = [
                tuple(
                    clone(slot) if index in positions else slot
                    for index, slot in enumerate(pair)
                )
                for pair in value
            ]
        else:  # ROWS
            value = [[clone(item) for item in row] for row in value]
        setattr(copy, name, value)
    if _DEBUG_CLONE_SHASH:
        assert not hasattr(copy, "_shash"), (
            f"clone() must never carry the _shash cache across a mutating "
            f"transform (got a pre-hashed {cls.__name__})"
        )
    return copy


def _hash_value(value, fresh: bool) -> int:
    if isinstance(value, Node):
        return structural_hash(value, fresh=fresh)
    if isinstance(value, (list, tuple)):
        return hash(tuple(_hash_value(item, fresh) for item in value))
    return hash(value)


def structural_hash(node: Node, *, fresh: bool = False) -> int:
    """Deep structural hash of *node*, cached on the node.

    Equal trees always hash equal; unequal trees collide only with
    ordinary ``hash`` probability.  The result is memoized in the
    ``_shash`` slot (for the whole subtree), so repeated equality checks
    and cache-integrity sweeps cost O(1) after the first walk.

    With ``fresh=True`` the hash is recomputed from the current field
    values, bypassing *and not touching* the cache — this is what the
    shared-AST mutation guard uses to detect that a cached tree was
    mutated after its hash was recorded.
    """
    if not fresh:
        try:
            return node._shash
        except AttributeError:
            pass
    cls = node.__class__
    result = hash(
        (cls.__qualname__,)
        + tuple(
            _hash_value(getattr(node, name), fresh) for name in LAYOUTS[cls].names
        )
    )
    if not fresh:
        node._shash = result
    return result


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Marker base class for expressions."""

    __slots__ = ()


@dataclass(eq=False, slots=True)
class Literal(Expr):
    """A literal constant.

    ``kind`` is one of ``"number"``, ``"string"``, ``"null"``, ``"boolean"``.
    Numbers keep their source spelling in ``text`` so rendering is lossless.
    """

    value: Union[int, float, str, bool, None]
    kind: str
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            if self.kind == "string":
                self.text = str(self.value)
            elif self.kind == "null":
                self.text = "NULL"
            else:
                self.text = str(self.value)


@dataclass(eq=False, slots=True)
class ColumnRef(Expr):
    """Reference to a column, optionally qualified: ``table.column``."""

    name: str
    table: Optional[str] = None


@dataclass(eq=False, slots=True)
class Star(Expr):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


@dataclass(eq=False, slots=True)
class Variable(Expr):
    """A T-SQL session variable such as ``@maxZ``."""

    name: str  # includes the leading '@'


@dataclass(eq=False, slots=True)
class FuncCall(Expr):
    """A function application, possibly schema-qualified (``dbo.fX(...)``)."""

    name: str
    args: list[Expr] = field(default_factory=list)
    distinct: bool = False
    schema: Optional[str] = None


@dataclass(eq=False, slots=True)
class Unary(Expr):
    """Unary operator application: ``-x``, ``+x`` or ``NOT x``."""

    op: str
    operand: Expr


@dataclass(eq=False, slots=True)
class Binary(Expr):
    """Binary operator application (arithmetic, comparison, AND/OR)."""

    op: str
    left: Expr
    right: Expr


@dataclass(eq=False, slots=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(eq=False, slots=True)
class InList(Expr):
    """``expr [NOT] IN (item, ...)``."""

    expr: Expr
    items: list[Expr] = field(default_factory=list)
    negated: bool = False


@dataclass(eq=False, slots=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: Expr
    query: "Query"
    negated: bool = False


@dataclass(eq=False, slots=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Query"
    negated: bool = False


@dataclass(eq=False, slots=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern``."""

    expr: Expr
    pattern: Expr
    negated: bool = False


@dataclass(eq=False, slots=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False


@dataclass(eq=False, slots=True)
class Case(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Optional[Expr]
    whens: list[tuple[Expr, Expr]] = field(default_factory=list)
    default: Optional[Expr] = None


@dataclass(eq=False, slots=True)
class ScalarSubquery(Expr):
    """A parenthesised SELECT used as a scalar expression."""

    query: "Query"


@dataclass(eq=False, slots=True)
class Cast(Expr):
    """``CAST(expr AS type)``."""

    expr: Expr
    type_name: str


# ---------------------------------------------------------------------------
# Table references
# ---------------------------------------------------------------------------


class TableRef(Node):
    """Marker base class for FROM-clause items."""

    __slots__ = ()


@dataclass(eq=False, slots=True)
class NamedTable(TableRef):
    """A base table or CTE reference, optionally aliased."""

    name: str
    alias: Optional[str] = None
    schema: Optional[str] = None


@dataclass(eq=False, slots=True)
class DerivedTable(TableRef):
    """A parenthesised subquery in FROM, with an alias."""

    query: "Query"
    alias: str = ""


@dataclass(eq=False, slots=True)
class Join(TableRef):
    """An explicit join.  ``kind`` in INNER/LEFT/RIGHT/FULL/CROSS."""

    left: TableRef
    right: TableRef
    kind: str = "INNER"
    condition: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class SelectItem(Node):
    """One element of a select list."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(eq=False, slots=True)
class OrderItem(Node):
    """One element of an ORDER BY list."""

    expr: Expr
    direction: Optional[str] = None  # "ASC" | "DESC" | None


@dataclass(eq=False, slots=True)
class SelectCore(Node):
    """A single SELECT block (no set operators, no WITH)."""

    items: list[SelectItem] = field(default_factory=list)
    from_items: list[TableRef] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    distinct: bool = False
    top: Optional[int] = None  # T-SQL SELECT TOP n
    limit: Optional[int] = None
    offset: Optional[int] = None


@dataclass(eq=False, slots=True)
class Compound(Node):
    """Two query bodies combined by UNION [ALL] / INTERSECT / EXCEPT."""

    op: str
    left: "QueryBody"
    right: "QueryBody"
    all: bool = False
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None


QueryBody = Union[SelectCore, Compound]


@dataclass(eq=False, slots=True)
class CommonTableExpr(Node):
    """One CTE in a WITH clause."""

    name: str
    query: "Query"
    columns: list[str] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class Query(Node):
    """A full query expression: optional CTEs plus a body."""

    body: QueryBody
    ctes: list[CommonTableExpr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Marker base class for top-level statements."""

    __slots__ = ()


@dataclass(eq=False, slots=True)
class SelectStatement(Statement):
    """A top-level query."""

    query: Query


@dataclass(eq=False, slots=True)
class ColumnDef(Node):
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    default: Optional[Expr] = None


@dataclass(eq=False, slots=True)
class CreateTable(Statement):
    """``CREATE TABLE name (cols)`` or ``CREATE TABLE name AS SELECT``."""

    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    as_query: Optional[Query] = None
    schema: Optional[str] = None


@dataclass(eq=False, slots=True)
class CreateView(Statement):
    """``CREATE VIEW name AS SELECT ...``."""

    name: str
    query: Query


@dataclass(eq=False, slots=True)
class Insert(Statement):
    """``INSERT INTO t [(cols)] VALUES (...)[, ...]`` or ``... SELECT``."""

    table: str
    columns: list[str] = field(default_factory=list)
    rows: list[list[Expr]] = field(default_factory=list)
    query: Optional[Query] = None


@dataclass(eq=False, slots=True)
class Update(Statement):
    """``UPDATE t SET col = expr [, ...] [WHERE ...]``."""

    table: str
    assignments: list[tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None


@dataclass(eq=False, slots=True)
class Delete(Statement):
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Optional[Expr] = None


@dataclass(eq=False, slots=True)
class DropTable(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass(eq=False, slots=True)
class Declare(Statement):
    """T-SQL ``DECLARE @name TYPE``."""

    name: str
    type_name: str


@dataclass(eq=False, slots=True)
class SetVariable(Statement):
    """T-SQL ``SET @name = expr``."""

    name: str
    value: Expr


@dataclass(eq=False, slots=True)
class ExecProcedure(Statement):
    """T-SQL ``EXEC proc arg, ...``."""

    name: str
    args: list[Expr] = field(default_factory=list)
    schema: Optional[str] = None


@dataclass(eq=False, slots=True)
class Waitfor(Statement):
    """T-SQL ``WAITFOR DELAY 'hh:mm:ss'``."""

    delay: str


@dataclass(eq=False, slots=True)
class Script(Node):
    """A sequence of statements separated by semicolons."""

    statements: list[Statement] = field(default_factory=list)


def statement_type(stmt: Statement) -> str:
    """The paper's ``query_type`` label for a statement (SELECT, CREATE...)."""
    mapping = {
        SelectStatement: "SELECT",
        CreateTable: "CREATE",
        CreateView: "CREATE",
        Insert: "INSERT",
        Update: "UPDATE",
        Delete: "DELETE",
        DropTable: "DROP",
        Declare: "DECLARE",
        SetVariable: "SET",
        ExecProcedure: "EXEC",
        Waitfor: "WAITFOR",
    }
    for node_type, label in mapping.items():
        if isinstance(stmt, node_type):
            if isinstance(stmt, SelectStatement) and stmt.query.ctes:
                return "WITH"
            return label
    raise TypeError(f"unknown statement type: {type(stmt).__name__}")


#: One layout per concrete node class, keyed by class.  Built after every
#: class exists so forward references (``"Query"``, ``QueryBody``) resolve.
LAYOUTS: dict[type, Layout] = {
    obj: Layout(obj)
    for obj in list(globals().values())
    if isinstance(obj, type) and issubclass(obj, Node) and is_dataclass(obj)
}
