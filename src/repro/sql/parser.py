"""Recursive-descent SQL parser.

Covers the dialect blend used by the paper's four workloads: ANSI/SQLite
SELECT (joins, subqueries, CTEs, set operators, GROUP BY / HAVING /
ORDER BY / LIMIT), plus the T-SQL constructs seen in SDSS and SQLShare
logs (``SELECT TOP``, ``DECLARE @x`` / ``SET @x`` / ``EXEC`` /
``WAITFOR DELAY``) and basic DML/DDL.

The parser is deliberately *syntactic only*: queries carrying any of the
paper's six "syntax error" types (which are semantic violations such as
undefined aliases or aggregation misuse) parse fine here and are flagged
by :mod:`repro.analysis.semantics` instead.

Internally the parser consumes the scanner's parallel token arrays
(:func:`repro.sql.lexer.scan`) rather than Token objects: integer kind
codes and plain list indexing replace the per-access property, enum and
varargs machinery that used to dominate the cold parse path.  The
produced AST is node-for-node identical to the previous token-object
implementation (property-tested against a frozen copy of the old
pipeline in ``tests/parsing/test_pipeline_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sql import nodes as n
from repro.sql.errors import ParseError
from repro.sql.lexer import scan
from repro.sql.tokens import (
    CODE_TO_KIND,
    K_EOF,
    K_IDENT,
    K_KEYWORD,
    K_NUMBER,
    K_OPERATOR,
    K_PUNCT,
    K_STRING,
    K_VARIABLE,
    KIND_TO_CODE,
    Token,
)

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", ">", "<=", ">="})

#: Keywords usable as identifiers (column named "year" etc.).
_SOFT_IDENT_KEYWORDS = frozenset({"YEAR", "KEY", "INDEX", "DELAY"})

#: Keywords that may head a function call (``LEFT(s, 1)``).
_SOFT_CALL_KEYWORDS = frozenset({"YEAR", "KEY", "INDEX", "LEFT", "RIGHT"})

_SET_OPS = frozenset({"UNION", "INTERSECT", "EXCEPT"})


class Parser:
    """Parses a scanned token stream into the AST of :mod:`repro.sql.nodes`."""

    __slots__ = ("text", "_kinds", "_values", "_starts", "index")

    def __init__(
        self, text: str, tokens: Optional[Sequence[Token]] = None
    ) -> None:
        self.text = text
        if tokens is None:
            kinds, values, starts, _ = scan(text)
        else:
            # An already-lexed stream (e.g. a cached Token tuple) can be
            # passed in to avoid re-scanning; the parser never mutates it.
            kind_code = KIND_TO_CODE
            kinds = [kind_code[t.kind] for t in tokens]
            values = [t.value for t in tokens]
            starts = [t.position for t in tokens]
            if not kinds or kinds[-1] != K_EOF:
                kinds.append(K_EOF)
                values.append("")
                starts.append(len(text))
        self._kinds = kinds
        self._values = values
        self._starts = starts
        self.index = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        """The current token as a :class:`Token` (cold-path convenience)."""
        i = self.index
        return Token(
            CODE_TO_KIND[self._kinds[i]], self._values[i], self._starts[i]
        )

    def _advance(self) -> str:
        """Consume the current token and return its value."""
        i = self.index
        if self._kinds[i] != K_EOF:
            self.index = i + 1
        return self._values[i]

    def _error(self, message: str) -> ParseError:
        i = self.index
        return ParseError(message, self._starts[i], self._values[i])

    def _at_keyword(self, name: str) -> bool:
        i = self.index
        return self._kinds[i] == K_KEYWORD and self._values[i] == name

    def _accept_keyword(self, name: str) -> bool:
        i = self.index
        if self._kinds[i] == K_KEYWORD and self._values[i] == name:
            self.index = i + 1
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        i = self.index
        if self._kinds[i] == K_KEYWORD and self._values[i] == name:
            self.index = i + 1
            return
        raise self._error(f"expected keyword {name}")

    def _at_punct(self, value: str) -> bool:
        i = self.index
        return self._kinds[i] == K_PUNCT and self._values[i] == value

    def _accept_punct(self, value: str) -> bool:
        i = self.index
        if self._kinds[i] == K_PUNCT and self._values[i] == value:
            self.index = i + 1
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        i = self.index
        if self._kinds[i] == K_PUNCT and self._values[i] == value:
            self.index = i + 1
            return
        raise self._error(f"expected {value!r}")

    def _expect_ident(self, what: str = "identifier") -> str:
        i = self.index
        kind = self._kinds[i]
        if kind == K_IDENT:
            self.index = i + 1
            return self._values[i]
        # Non-reserved words used as identifiers (column named "year" etc.)
        if kind == K_KEYWORD and self._values[i] in _SOFT_IDENT_KEYWORDS:
            self.index = i + 1
            return self._values[i]
        raise self._error(f"expected {what}")

    # -- entry points -------------------------------------------------------

    def parse_script(self) -> n.Script:
        """Parse one or more ';'-separated statements."""
        statements = [self.parse_statement()]
        while self._accept_punct(";"):
            if self._kinds[self.index] == K_EOF:
                break
            statements.append(self.parse_statement())
        if self._kinds[self.index] != K_EOF:
            raise self._error("unexpected trailing input")
        return n.Script(statements)

    def parse_statement(self) -> n.Statement:
        """Parse a single statement."""
        i = self.index
        if self._kinds[i] != K_KEYWORD:
            raise self._error("expected a statement")
        opener = self._values[i]
        if opener == "SELECT" or opener == "WITH":
            return n.SelectStatement(self.parse_query())
        if opener == "CREATE":
            return self._parse_create()
        if opener == "INSERT":
            return self._parse_insert()
        if opener == "UPDATE":
            return self._parse_update()
        if opener == "DELETE":
            return self._parse_delete()
        if opener == "DROP":
            return self._parse_drop()
        if opener == "DECLARE":
            return self._parse_declare()
        if opener == "SET":
            return self._parse_set_variable()
        if opener == "EXEC" or opener == "EXECUTE":
            return self._parse_exec()
        if opener == "WAITFOR":
            return self._parse_waitfor()
        raise self._error("expected a statement")

    # -- queries ------------------------------------------------------------

    def parse_query(self) -> n.Query:
        """Parse ``[WITH ...] body [ORDER BY ...] [LIMIT ...]``."""
        ctes: list[n.CommonTableExpr] = []
        if self._accept_keyword("WITH"):
            ctes.append(self._parse_cte())
            while self._accept_punct(","):
                ctes.append(self._parse_cte())
        body = self._parse_query_body()
        return n.Query(body=body, ctes=ctes)

    def _parse_cte(self) -> n.CommonTableExpr:
        name = self._expect_ident("CTE name")
        columns: list[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_ident("column name"))
            while self._accept_punct(","):
                columns.append(self._expect_ident("column name"))
            self._expect_punct(")")
        self._expect_keyword("AS")
        self._expect_punct("(")
        query = self.parse_query()
        self._expect_punct(")")
        return n.CommonTableExpr(name=name, query=query, columns=columns)

    def _parse_query_body(self) -> n.QueryBody:
        left: n.QueryBody = self._parse_select_core()
        kinds = self._kinds
        values = self._values
        while kinds[self.index] == K_KEYWORD and values[self.index] in _SET_OPS:
            op = values[self.index]
            self.index += 1
            is_all = self._accept_keyword("ALL")
            right = self._parse_select_core()
            left = n.Compound(op=op, left=left, right=right, all=is_all)
        # Trailing ORDER BY / LIMIT attach to the outermost body.
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit()
        if isinstance(left, n.Compound):
            left.order_by = order_by
            left.limit = limit
        else:
            if order_by:
                left.order_by = order_by
            left.limit = limit
            left.offset = offset
        return left

    def _parse_select_core(self) -> n.SelectCore:
        self._expect_keyword("SELECT")
        core = n.SelectCore()
        if self._accept_keyword("DISTINCT"):
            core.distinct = True
        else:
            self._accept_keyword("ALL")
        if self._accept_keyword("TOP"):
            i = self.index
            if self._kinds[i] != K_NUMBER:
                raise self._error("expected a number after TOP")
            self.index = i + 1
            core.top = int(float(self._values[i]))
        items = core.items
        items.append(self._parse_select_item())
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        if self._accept_keyword("FROM"):
            from_items = core.from_items
            from_items.append(self._parse_table_ref())
            while self._accept_punct(","):
                from_items.append(self._parse_table_ref())
        if self._accept_keyword("WHERE"):
            core.where = self.parse_expr()
        if self._at_keyword("GROUP"):
            self.index += 1
            self._expect_keyword("BY")
            group_by = core.group_by
            group_by.append(self.parse_expr())
            while self._accept_punct(","):
                group_by.append(self.parse_expr())
        if self._accept_keyword("HAVING"):
            core.having = self.parse_expr()
        return core

    def _parse_order_by(self) -> list[n.OrderItem]:
        if not self._at_keyword("ORDER"):
            return []
        self.index += 1
        self._expect_keyword("BY")
        items = [self._parse_order_item()]
        while self._accept_punct(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> n.OrderItem:
        expr = self.parse_expr()
        direction = None
        if self._accept_keyword("ASC"):
            direction = "ASC"
        elif self._accept_keyword("DESC"):
            direction = "DESC"
        return n.OrderItem(expr, direction)

    def _parse_limit(self) -> tuple[int | None, int | None]:
        if not self._accept_keyword("LIMIT"):
            return None, None
        i = self.index
        if self._kinds[i] != K_NUMBER:
            raise self._error("expected a number after LIMIT")
        self.index = i + 1
        limit = int(float(self._values[i]))
        offset = None
        if self._accept_keyword("OFFSET"):
            i = self.index
            if self._kinds[i] != K_NUMBER:
                raise self._error("expected a number after OFFSET")
            self.index = i + 1
            offset = int(float(self._values[i]))
        return limit, offset

    def _parse_select_item(self) -> n.SelectItem:
        kinds = self._kinds
        values = self._values
        i = self.index
        if kinds[i] == K_OPERATOR and values[i] == "*":
            self.index = i + 1
            return n.SelectItem(n.Star())
        # table.* — requires two-token lookahead (the stream is
        # EOF-terminated, so i+2 can overrun only past a parse error).
        if (
            kinds[i] == K_IDENT
            and kinds[i + 1] == K_PUNCT
            and values[i + 1] == "."
            and kinds[i + 2] == K_OPERATOR
            and values[i + 2] == "*"
        ):
            self.index = i + 3
            return n.SelectItem(n.Star(table=values[i]))
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias")
        elif kinds[self.index] == K_IDENT:
            alias = values[self.index]
            self.index += 1
        return n.SelectItem(expr, alias)

    # -- FROM clause --------------------------------------------------------

    def _parse_table_ref(self) -> n.TableRef:
        left = self._parse_table_primary()
        while True:
            kind = self._peek_join_kind()
            if kind is None:
                return left
            right = self._parse_table_primary()
            condition = None
            if self._accept_keyword("ON"):
                condition = self.parse_expr()
            left = n.Join(left=left, right=right, kind=kind, condition=condition)

    def _peek_join_kind(self) -> str | None:
        """Consume join keywords if present and return the join kind."""
        i = self.index
        if self._kinds[i] != K_KEYWORD:
            return None
        word = self._values[i]
        if word == "JOIN":
            self.index = i + 1
            return "INNER"
        if word == "INNER":
            self.index = i + 1
            self._expect_keyword("JOIN")
            return "INNER"
        if word == "LEFT" or word == "RIGHT" or word == "FULL":
            self.index = i + 1
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return word
        if word == "CROSS":
            self.index = i + 1
            self._expect_keyword("JOIN")
            return "CROSS"
        return None

    def _parse_table_primary(self) -> n.TableRef:
        if self._at_punct("("):
            self.index += 1
            if self._at_select_opener():
                query = self.parse_query()
                self._expect_punct(")")
                self._accept_keyword("AS")
                alias = self._expect_ident("derived table alias")
                return n.DerivedTable(query=query, alias=alias)
            # Parenthesised join tree.
            inner = self._parse_table_ref()
            self._expect_punct(")")
            return inner
        schema, name = self._parse_qualified_name()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("table alias")
        elif self._kinds[self.index] == K_IDENT:
            alias = self._values[self.index]
            self.index += 1
        return n.NamedTable(name=name, alias=alias, schema=schema)

    def _at_select_opener(self) -> bool:
        i = self.index
        if self._kinds[i] != K_KEYWORD:
            return False
        word = self._values[i]
        return word == "SELECT" or word == "WITH"

    def _parse_qualified_name(self) -> tuple[str | None, str]:
        """Parse ``[schema.]name`` (multi-part prefixes are joined)."""
        parts = [self._expect_ident("table name")]
        kinds = self._kinds
        values = self._values
        while (
            kinds[self.index] == K_PUNCT
            and values[self.index] == "."
            and kinds[self.index + 1] <= K_IDENT  # K_KEYWORD or K_IDENT
        ):
            self.index += 1
            parts.append(self._expect_ident("name part"))
        if len(parts) == 1:
            return None, parts[0]
        return ".".join(parts[:-1]), parts[-1]

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> n.Expr:
        """Parse a full boolean-valued expression."""
        left = self._parse_and()
        kinds = self._kinds
        values = self._values
        while kinds[self.index] == K_KEYWORD and values[self.index] == "OR":
            self.index += 1
            left = n.Binary("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> n.Expr:
        left = self._parse_not()
        kinds = self._kinds
        values = self._values
        while kinds[self.index] == K_KEYWORD and values[self.index] == "AND":
            self.index += 1
            left = n.Binary("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> n.Expr:
        i = self.index
        if self._kinds[i] == K_KEYWORD and self._values[i] == "NOT":
            self.index = i + 1
            return n.Unary("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> n.Expr:
        left = self._parse_additive()
        kinds = self._kinds
        values = self._values
        i = self.index
        kind = kinds[i]
        if kind == K_OPERATOR and values[i] in _COMPARISON_OPS:
            self.index = i + 1
            return n.Binary(values[i], left, self._parse_additive())
        if kind != K_KEYWORD:
            return left
        word = values[i]
        if word == "IS":
            self.index = i + 1
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return n.IsNull(expr=left, negated=negated)
        negated = False
        if word == "NOT":
            nxt = values[i + 1] if kinds[i + 1] == K_KEYWORD else ""
            if nxt == "BETWEEN" or nxt == "IN" or nxt == "LIKE":
                self.index = i + 1
                negated = True
                word = nxt
                i += 1
        if word == "BETWEEN":
            self.index = i + 1
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return n.Between(expr=left, low=low, high=high, negated=negated)
        if word == "IN":
            self.index = i + 1
            return self._parse_in_tail(left, negated)
        if word == "LIKE":
            self.index = i + 1
            return n.Like(expr=left, pattern=self._parse_additive(), negated=negated)
        return left

    def _parse_in_tail(self, left: n.Expr, negated: bool) -> n.Expr:
        self._expect_punct("(")
        if self._at_select_opener():
            query = self.parse_query()
            self._expect_punct(")")
            return n.InSubquery(expr=left, query=query, negated=negated)
        items = [self.parse_expr()]
        while self._accept_punct(","):
            items.append(self.parse_expr())
        self._expect_punct(")")
        return n.InList(expr=left, items=items, negated=negated)

    def _parse_additive(self) -> n.Expr:
        left = self._parse_multiplicative()
        kinds = self._kinds
        values = self._values
        while kinds[self.index] == K_OPERATOR:
            op = values[self.index]
            if op != "+" and op != "-" and op != "||":
                break
            self.index += 1
            left = n.Binary(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> n.Expr:
        left = self._parse_unary()
        kinds = self._kinds
        values = self._values
        while kinds[self.index] == K_OPERATOR:
            op = values[self.index]
            if op != "*" and op != "/" and op != "%":
                break
            self.index += 1
            left = n.Binary(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> n.Expr:
        i = self.index
        if self._kinds[i] == K_OPERATOR:
            op = self._values[i]
            if op == "-" or op == "+":
                self.index = i + 1
                return n.Unary(op, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> n.Expr:
        i = self.index
        kind = self._kinds[i]
        value = self._values[i]
        if kind == K_IDENT:
            return self._parse_name_or_call()
        if kind == K_NUMBER:
            self.index = i + 1
            converted = (
                float(value) if ("." in value or "e" in value.lower()) else int(value)
            )
            return n.Literal(converted, "number", value)
        if kind == K_STRING:
            self.index = i + 1
            return n.Literal(value, "string", value)
        if kind == K_KEYWORD:
            if value == "NULL":
                self.index = i + 1
                return n.Literal(None, "null", "NULL")
            if value == "TRUE" or value == "FALSE":
                self.index = i + 1
                return n.Literal(value == "TRUE", "boolean", value)
            if value == "CASE":
                return self._parse_case()
            if value == "CAST":
                return self._parse_cast()
            if value == "EXISTS":
                self.index = i + 1
                self._expect_punct("(")
                query = self.parse_query()
                self._expect_punct(")")
                return n.Exists(query=query)
            if value in _SOFT_CALL_KEYWORDS and self._values[i + 1] == "(":
                return self._parse_name_or_call()
            raise self._error("expected an expression")
        if kind == K_PUNCT and value == "(":
            self.index = i + 1
            if self._at_select_opener():
                query = self.parse_query()
                self._expect_punct(")")
                return n.ScalarSubquery(query=query)
            expr = self.parse_expr()
            self._expect_punct(")")
            return expr
        if kind == K_VARIABLE:
            self.index = i + 1
            return n.Variable(name=value)
        raise self._error("expected an expression")

    def _parse_case(self) -> n.Expr:
        self._expect_keyword("CASE")
        operand = None
        if not self._at_keyword("WHEN"):
            operand = self.parse_expr()
        whens: list[tuple[n.Expr, n.Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self.parse_expr()
            self._expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        default = None
        if self._accept_keyword("ELSE"):
            default = self.parse_expr()
        self._expect_keyword("END")
        return n.Case(operand=operand, whens=whens, default=default)

    def _parse_cast(self) -> n.Expr:
        self._expect_keyword("CAST")
        self._expect_punct("(")
        expr = self.parse_expr()
        self._expect_keyword("AS")
        type_name = self._parse_type_name()
        self._expect_punct(")")
        return n.Cast(expr=expr, type_name=type_name)

    def _parse_type_name(self) -> str:
        name = self._expect_ident("type name").upper()
        if self._accept_punct("("):
            parts = []
            if self._kinds[self.index] != K_NUMBER:
                raise self._error("expected a number in type arguments")
            parts.append(self._advance())
            if self._accept_punct(","):
                parts.append(self._advance())
            self._expect_punct(")")
            name = f"{name}({','.join(parts)})"
        return name

    def _parse_name_or_call(self) -> n.Expr:
        """Disambiguate column refs, qualified refs, and function calls."""
        kinds = self._kinds
        values = self._values
        i = self.index
        first = values[i]
        self.index = i + 1
        parts = [first]
        while (
            kinds[self.index] == K_PUNCT
            and values[self.index] == "."
            and kinds[self.index + 1] <= K_IDENT  # K_KEYWORD or K_IDENT
        ):
            self.index += 1
            parts.append(self._expect_ident("name part"))
        i = self.index
        if kinds[i] == K_PUNCT and values[i] == "(":
            self.index = i + 1
            name = parts[-1]
            schema = ".".join(parts[:-1]) or None
            distinct = False
            args: list[n.Expr] = []
            i = self.index
            if kinds[i] == K_OPERATOR and values[i] == "*":
                self.index = i + 1
                args.append(n.Star())
            elif not (kinds[i] == K_PUNCT and values[i] == ")"):
                distinct = self._accept_keyword("DISTINCT")
                args.append(self.parse_expr())
                while self._accept_punct(","):
                    args.append(self.parse_expr())
            self._expect_punct(")")
            return n.FuncCall(name, args, distinct, schema)
        if len(parts) == 1:
            return n.ColumnRef(parts[0])
        # table.column (a longer prefix folds into the table qualifier)
        return n.ColumnRef(parts[-1], ".".join(parts[:-1]))

    # -- non-SELECT statements ----------------------------------------------

    def _parse_create(self) -> n.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("VIEW"):
            _, name = self._parse_qualified_name()
            self._expect_keyword("AS")
            return n.CreateView(name=name, query=self.parse_query())
        self._expect_keyword("TABLE")
        schema, name = self._parse_qualified_name()
        if self._accept_keyword("AS"):
            return n.CreateTable(name=name, schema=schema, as_query=self.parse_query())
        self._expect_punct("(")
        columns = [self._parse_column_def()]
        while self._accept_punct(","):
            columns.append(self._parse_column_def())
        self._expect_punct(")")
        return n.CreateTable(name=name, schema=schema, columns=columns)

    def _parse_column_def(self) -> n.ColumnDef:
        name = self._expect_ident("column name")
        type_name = self._parse_type_name()
        column = n.ColumnDef(name=name, type_name=type_name)
        while True:
            if (
                self._at_keyword("NOT")
                and self._kinds[self.index + 1] == K_KEYWORD
                and self._values[self.index + 1] == "NULL"
            ):
                self.index += 2
                column.not_null = True
            elif self._at_keyword("PRIMARY"):
                self.index += 1
                self._expect_keyword("KEY")
                column.primary_key = True
            elif self._accept_keyword("DEFAULT"):
                column.default = self._parse_primary()
            else:
                return column

    def _parse_insert(self) -> n.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        _, table = self._parse_qualified_name()
        columns: list[str] = []
        if self._at_punct("(") and not (
            self._kinds[self.index + 1] == K_KEYWORD
            and self._values[self.index + 1] in ("SELECT", "WITH")
        ):
            self.index += 1
            columns.append(self._expect_ident("column name"))
            while self._accept_punct(","):
                columns.append(self._expect_ident("column name"))
            self._expect_punct(")")
        if self._accept_keyword("VALUES"):
            rows = [self._parse_value_row()]
            while self._accept_punct(","):
                rows.append(self._parse_value_row())
            return n.Insert(table=table, columns=columns, rows=rows)
        query = self.parse_query()
        return n.Insert(table=table, columns=columns, query=query)

    def _parse_value_row(self) -> list[n.Expr]:
        self._expect_punct("(")
        row = [self.parse_expr()]
        while self._accept_punct(","):
            row.append(self.parse_expr())
        self._expect_punct(")")
        return row

    def _parse_update(self) -> n.Update:
        self._expect_keyword("UPDATE")
        _, table = self._parse_qualified_name()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self._accept_keyword("WHERE") else None
        return n.Update(table=table, assignments=assignments, where=where)

    def _parse_assignment(self) -> tuple[str, n.Expr]:
        column = self._expect_ident("column name")
        i = self.index
        if not (self._kinds[i] == K_OPERATOR and self._values[i] == "="):
            raise self._error("expected '=' in assignment")
        self.index = i + 1
        return column, self.parse_expr()

    def _parse_delete(self) -> n.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        _, table = self._parse_qualified_name()
        where = self.parse_expr() if self._accept_keyword("WHERE") else None
        return n.Delete(table=table, where=where)

    def _parse_drop(self) -> n.DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._at_keyword("IF"):
            self.index += 1
            self._expect_keyword("EXISTS")
            if_exists = True
        _, name = self._parse_qualified_name()
        return n.DropTable(name=name, if_exists=if_exists)

    def _parse_declare(self) -> n.Declare:
        self._expect_keyword("DECLARE")
        i = self.index
        if self._kinds[i] != K_VARIABLE:
            raise self._error("expected @variable after DECLARE")
        self.index = i + 1
        type_name = self._parse_type_name()
        return n.Declare(name=self._values[i], type_name=type_name)

    def _parse_set_variable(self) -> n.SetVariable:
        self._expect_keyword("SET")
        i = self.index
        if self._kinds[i] != K_VARIABLE:
            raise self._error("expected @variable after SET")
        self.index = i + 1
        name = self._values[i]
        i = self.index
        if not (self._kinds[i] == K_OPERATOR and self._values[i] == "="):
            raise self._error("expected '=' after variable")
        self.index = i + 1
        return n.SetVariable(name=name, value=self.parse_expr())

    def _parse_exec(self) -> n.ExecProcedure:
        self._advance()  # EXEC or EXECUTE
        schema, name = self._parse_qualified_name()
        args: list[n.Expr] = []
        if self._kinds[self.index] != K_EOF and not self._at_punct(";"):
            args.append(self.parse_expr())
            while self._accept_punct(","):
                args.append(self.parse_expr())
        return n.ExecProcedure(name=name, args=args, schema=schema)

    def _parse_waitfor(self) -> n.Waitfor:
        self._expect_keyword("WAITFOR")
        self._expect_keyword("DELAY")
        i = self.index
        if self._kinds[i] != K_STRING:
            raise self._error("expected a delay string")
        self.index = i + 1
        return n.Waitfor(delay=self._values[i])

    def finish_statement(self) -> None:
        """Consume one optional ';' and require EOF (shared tail check)."""
        self._accept_punct(";")
        if self._kinds[self.index] != K_EOF:
            raise self._error("unexpected trailing input")


def parse_statement(text: str) -> n.Statement:
    """Parse a single SQL statement (ignoring one trailing semicolon)."""
    parser = Parser(text)
    statement = parser.parse_statement()
    parser.finish_statement()
    return statement


def parse_script(text: str) -> n.Script:
    """Parse a ';'-separated script."""
    return Parser(text).parse_script()


def parse_query(text: str) -> n.Query:
    """Parse a SELECT/WITH query and return its :class:`~repro.sql.nodes.Query`."""
    statement = parse_statement(text)
    if not isinstance(statement, n.SelectStatement):
        raise ParseError("expected a SELECT query", 0, text[:20])
    return statement.query


def try_parse(text: str) -> n.Statement | None:
    """Parse *text*, returning None instead of raising on failure."""
    try:
        return parse_statement(text)
    except Exception:
        return None
