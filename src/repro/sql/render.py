"""AST-to-SQL rendering.

``render(node)`` produces canonical single-line SQL.  A ``dialect``
argument selects between the T-SQL flavour the SDSS/SQLShare logs use
(``SELECT TOP n``, ``dbo.`` qualifiers, ``ISNULL``/``LEN``) and a
SQLite-executable flavour (``LIMIT n``, qualifiers stripped, functions
mapped) used by the execution-based equivalence checker.

Statements and expressions dispatch through two tables keyed by node
class, built once at import from :data:`repro.sql.nodes.LAYOUTS`: every
concrete statement class maps to its ``_stmt_<Class>`` method and every
concrete expression class to its ``_expr_<Class>`` method, so a node
class without a renderer fails the import.  The renderer is stateless;
:func:`render` reuses one instance per dialect.
"""

from __future__ import annotations

from repro.sql import nodes as n
from repro.sql.errors import RenderError

TSQL = "tsql"
SQLITE = "sqlite"

_SQLITE_FUNCTION_MAP = {
    "ISNULL": "IFNULL",
    "LEN": "LENGTH",
    "CEILING": "CEIL",
    "CHARINDEX": "INSTR",
    "GETDATE": "DATE",
    "SUBSTRING": "SUBSTR",
}

_NEEDS_PARENS_IN_BINARY = (n.Binary,)

#: Cap on node reprs embedded in error messages; a deep SELECT tree's
#: repr runs to kilobytes and would drown the useful part.
_REPR_LIMIT = 120


def _node_desc(node: object) -> str:
    """``TypeName: repr`` with the repr truncated for error messages."""
    text = repr(node)
    if len(text) > _REPR_LIMIT:
        text = text[: _REPR_LIMIT - 3] + "..."
    return f"{type(node).__name__}: {text}"


class Renderer:
    """Stateless SQL text producer for a fixed dialect."""

    def __init__(self, dialect: str = TSQL) -> None:
        if dialect not in (TSQL, SQLITE):
            raise RenderError(f"unknown dialect: {dialect!r}")
        self.dialect = dialect

    # -- statements ----------------------------------------------------------

    def render_statement(self, stmt: n.Statement) -> str:
        method = _STATEMENT_METHODS.get(stmt.__class__)
        if method is None:
            raise RenderError(f"cannot render statement {_node_desc(stmt)}")
        return method(self, stmt)

    def _stmt_SelectStatement(self, stmt: n.SelectStatement) -> str:
        return self.render_query(stmt.query)

    def _stmt_CreateTable(self, stmt: n.CreateTable) -> str:
        name = self._qualified(stmt.schema, stmt.name)
        if stmt.as_query is not None:
            return f"CREATE TABLE {name} AS {self.render_query(stmt.as_query)}"
        columns = ", ".join(self._column_def(col) for col in stmt.columns)
        return f"CREATE TABLE {name} ({columns})"

    def _column_def(self, column: n.ColumnDef) -> str:
        parts = [column.name, column.type_name]
        if column.not_null:
            parts.append("NOT NULL")
        if column.primary_key:
            parts.append("PRIMARY KEY")
        if column.default is not None:
            parts.append(f"DEFAULT {self.render_expr(column.default)}")
        return " ".join(parts)

    def _stmt_CreateView(self, stmt: n.CreateView) -> str:
        return f"CREATE VIEW {stmt.name} AS {self.render_query(stmt.query)}"

    def _stmt_Insert(self, stmt: n.Insert) -> str:
        parts = [f"INSERT INTO {stmt.table}"]
        if stmt.columns:
            parts.append("(" + ", ".join(stmt.columns) + ")")
        if stmt.query is not None:
            parts.append(self.render_query(stmt.query))
        else:
            rows = ", ".join(
                "(" + ", ".join(self.render_expr(v) for v in row) + ")"
                for row in stmt.rows
            )
            parts.append(f"VALUES {rows}")
        return " ".join(parts)

    def _stmt_Update(self, stmt: n.Update) -> str:
        assignments = ", ".join(
            f"{column} = {self.render_expr(expr)}"
            for column, expr in stmt.assignments
        )
        text = f"UPDATE {stmt.table} SET {assignments}"
        if stmt.where is not None:
            text += f" WHERE {self.render_expr(stmt.where)}"
        return text

    def _stmt_Delete(self, stmt: n.Delete) -> str:
        text = f"DELETE FROM {stmt.table}"
        if stmt.where is not None:
            text += f" WHERE {self.render_expr(stmt.where)}"
        return text

    def _stmt_DropTable(self, stmt: n.DropTable) -> str:
        clause = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP TABLE {clause}{stmt.name}"

    def _stmt_Declare(self, stmt: n.Declare) -> str:
        return f"DECLARE {stmt.name} {stmt.type_name}"

    def _stmt_SetVariable(self, stmt: n.SetVariable) -> str:
        return f"SET {stmt.name} = {self.render_expr(stmt.value)}"

    def _stmt_ExecProcedure(self, stmt: n.ExecProcedure) -> str:
        name = self._qualified(stmt.schema, stmt.name)
        if not stmt.args:
            return f"EXEC {name}"
        args = ", ".join(self.render_expr(arg) for arg in stmt.args)
        return f"EXEC {name} {args}"

    def _stmt_Waitfor(self, stmt: n.Waitfor) -> str:
        return f"WAITFOR DELAY '{stmt.delay}'"

    # -- queries -------------------------------------------------------------

    def render_query(self, query: n.Query) -> str:
        parts = []
        if query.ctes:
            ctes = ", ".join(self._cte(cte) for cte in query.ctes)
            parts.append(f"WITH {ctes}")
        parts.append(self._body(query.body))
        return " ".join(parts)

    def _cte(self, cte: n.CommonTableExpr) -> str:
        columns = f" ({', '.join(cte.columns)})" if cte.columns else ""
        return f"{cte.name}{columns} AS ({self.render_query(cte.query)})"

    def _body(self, body: n.QueryBody) -> str:
        if isinstance(body, n.SelectCore):
            return self._select_core(body)
        if isinstance(body, n.Compound):
            op = body.op + (" ALL" if body.all else "")
            text = f"{self._body(body.left)} {op} {self._body(body.right)}"
            if body.order_by:
                items = ", ".join(self._order_item(i) for i in body.order_by)
                text += f" ORDER BY {items}"
            if body.limit is not None:
                text += f" LIMIT {body.limit}"
            return text
        raise RenderError(f"cannot render body {_node_desc(body)}")

    def _select_core(self, core: n.SelectCore) -> str:
        parts = ["SELECT"]
        if core.distinct:
            parts.append("DISTINCT")
        top, limit = core.top, core.limit
        if top is not None and self.dialect == SQLITE:
            # SQLite has no TOP; fold into LIMIT (TOP wins when both given).
            limit, top = top, None
        if top is not None:
            parts.append(f"TOP {top}")
        parts.append(", ".join(self._select_item(item) for item in core.items))
        if core.from_items:
            tables = ", ".join(self._table_ref(ref) for ref in core.from_items)
            parts.append(f"FROM {tables}")
        if core.where is not None:
            parts.append(f"WHERE {self.render_expr(core.where)}")
        if core.group_by:
            exprs = ", ".join(self.render_expr(e) for e in core.group_by)
            parts.append(f"GROUP BY {exprs}")
        if core.having is not None:
            parts.append(f"HAVING {self.render_expr(core.having)}")
        if core.order_by:
            items = ", ".join(self._order_item(item) for item in core.order_by)
            parts.append(f"ORDER BY {items}")
        if limit is not None:
            parts.append(f"LIMIT {limit}")
            if core.offset is not None:
                parts.append(f"OFFSET {core.offset}")
        return " ".join(parts)

    def _select_item(self, item: n.SelectItem) -> str:
        text = self.render_expr(item.expr)
        if item.alias:
            text += f" AS {item.alias}"
        return text

    def _order_item(self, item: n.OrderItem) -> str:
        text = self.render_expr(item.expr)
        if item.direction:
            text += f" {item.direction}"
        return text

    def _table_ref(self, ref: n.TableRef) -> str:
        if isinstance(ref, n.NamedTable):
            name = self._qualified(ref.schema, ref.name)
            return f"{name} AS {ref.alias}" if ref.alias else name
        if isinstance(ref, n.DerivedTable):
            return f"({self.render_query(ref.query)}) AS {ref.alias}"
        if isinstance(ref, n.Join):
            left = self._table_ref(ref.left)
            right = self._table_ref(ref.right)
            keyword = "JOIN" if ref.kind == "INNER" else f"{ref.kind} JOIN"
            text = f"{left} {keyword} {right}"
            if ref.condition is not None:
                text += f" ON {self.render_expr(ref.condition)}"
            return text
        raise RenderError(f"cannot render table ref {_node_desc(ref)}")

    def _qualified(self, schema: str | None, name: str) -> str:
        if schema and self.dialect == SQLITE:
            # SQLite has no schemas; drop dbo-style qualifiers.
            return name
        return f"{schema}.{name}" if schema else name

    # -- expressions ---------------------------------------------------------

    def render_expr(self, expr: n.Expr) -> str:
        method = _EXPRESSION_METHODS.get(expr.__class__)
        if method is None:
            raise RenderError(f"cannot render expression {_node_desc(expr)}")
        return method(self, expr)

    def _expr_Literal(self, expr: n.Literal) -> str:
        if expr.kind == "string":
            escaped = str(expr.value).replace("'", "''")
            return f"'{escaped}'"
        if expr.kind == "null":
            return "NULL"
        if expr.kind == "boolean":
            if self.dialect == SQLITE:
                return "1" if expr.value else "0"
            return "TRUE" if expr.value else "FALSE"
        return expr.text or str(expr.value)

    def _expr_ColumnRef(self, expr: n.ColumnRef) -> str:
        return f"{expr.table}.{expr.name}" if expr.table else expr.name

    def _expr_Star(self, expr: n.Star) -> str:
        return f"{expr.table}.*" if expr.table else "*"

    def _expr_Variable(self, expr: n.Variable) -> str:
        return expr.name

    def _expr_FuncCall(self, expr: n.FuncCall) -> str:
        name = expr.name
        if self.dialect == SQLITE:
            name = _SQLITE_FUNCTION_MAP.get(name.upper(), name)
            prefix = ""
        else:
            prefix = f"{expr.schema}." if expr.schema else ""
        inner = ", ".join(self.render_expr(arg) for arg in expr.args)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{prefix}{name}({inner})"

    def _expr_Unary(self, expr: n.Unary) -> str:
        operand = self.render_expr(expr.operand)
        if expr.op == "NOT":
            if isinstance(expr.operand, n.Binary):
                return f"NOT ({operand})"
            return f"NOT {operand}"
        if isinstance(expr.operand, n.Binary):
            return f"{expr.op}({operand})"
        return f"{expr.op}{operand}"

    def _expr_Binary(self, expr: n.Binary) -> str:
        left = self._operand(expr.left, expr.op, is_right=False)
        right = self._operand(expr.right, expr.op, is_right=True)
        return f"{left} {expr.op} {right}"

    def _operand(self, operand: n.Expr, parent_op: str, is_right: bool) -> str:
        text = self.render_expr(operand)
        if isinstance(operand, n.Binary) and _needs_parens(
            operand.op, parent_op, is_right
        ):
            return f"({text})"
        return text

    def _expr_Between(self, expr: n.Between) -> str:
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"{self.render_expr(expr.expr)} {keyword} "
            f"{self.render_expr(expr.low)} AND {self.render_expr(expr.high)}"
        )

    def _expr_InList(self, expr: n.InList) -> str:
        keyword = "NOT IN" if expr.negated else "IN"
        items = ", ".join(self.render_expr(item) for item in expr.items)
        return f"{self.render_expr(expr.expr)} {keyword} ({items})"

    def _expr_InSubquery(self, expr: n.InSubquery) -> str:
        keyword = "NOT IN" if expr.negated else "IN"
        return (
            f"{self.render_expr(expr.expr)} {keyword} "
            f"({self.render_query(expr.query)})"
        )

    def _expr_Exists(self, expr: n.Exists) -> str:
        keyword = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{keyword} ({self.render_query(expr.query)})"

    def _expr_Like(self, expr: n.Like) -> str:
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return (
            f"{self.render_expr(expr.expr)} {keyword} "
            f"{self.render_expr(expr.pattern)}"
        )

    def _expr_IsNull(self, expr: n.IsNull) -> str:
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{self.render_expr(expr.expr)} {keyword}"

    def _expr_Case(self, expr: n.Case) -> str:
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(self.render_expr(expr.operand))
        for condition, result in expr.whens:
            parts.append(
                f"WHEN {self.render_expr(condition)} THEN {self.render_expr(result)}"
            )
        if expr.default is not None:
            parts.append(f"ELSE {self.render_expr(expr.default)}")
        parts.append("END")
        return " ".join(parts)

    def _expr_ScalarSubquery(self, expr: n.ScalarSubquery) -> str:
        return f"({self.render_query(expr.query)})"

    def _expr_Cast(self, expr: n.Cast) -> str:
        return f"CAST({self.render_expr(expr.expr)} AS {expr.type_name})"


def _dispatch_table(base: type, prefix: str) -> dict[type, object]:
    """``{node class: Renderer method}`` for every concrete *base* subclass."""
    return {
        cls: getattr(Renderer, f"{prefix}{cls.__name__}")
        for cls in n.LAYOUTS
        if issubclass(cls, base)
    }


_STATEMENT_METHODS = _dispatch_table(n.Statement, "_stmt_")
_EXPRESSION_METHODS = _dispatch_table(n.Expr, "_expr_")


_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 3,
    "<>": 3,
    "!=": 3,
    "<": 3,
    ">": 3,
    "<=": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "||": 4,
    "*": 5,
    "/": 5,
    "%": 5,
}


def _needs_parens(child_op: str, parent_op: str, is_right: bool) -> bool:
    """Decide whether a child binary expression must be parenthesised."""
    child = _PRECEDENCE.get(child_op, 6)
    parent = _PRECEDENCE.get(parent_op, 6)
    if child < parent:
        return True
    if child == parent:
        # Keep explicit grouping for mixed/equal precedence on the right
        # (subtraction/division are not associative) and for OR-under-AND
        # clarity.  Same-op AND/OR chains stay flat.
        if child_op in ("AND", "OR") and child_op == parent_op:
            return False
        return is_right or child_op in ("-", "/", "%")
    return False


_RENDERERS = {dialect: Renderer(dialect) for dialect in (TSQL, SQLITE)}


def render(node: n.Node, dialect: str = TSQL) -> str:
    """Render a statement, query, table ref or expression to SQL text."""
    renderer = _RENDERERS.get(dialect) or Renderer(dialect)
    if isinstance(node, n.Script):
        return "; ".join(
            renderer.render_statement(stmt) for stmt in node.statements
        )
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
