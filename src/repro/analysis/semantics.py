"""Semantic analyzer: the ground-truth oracle for the paper's error types.

The six "syntax error" types of section 3.1 are semantic violations that
parse fine; this module detects them against a schema:

* ``aggr-attr`` — aggregates mixed with ungrouped bare columns;
* ``aggr-having`` — HAVING filtering bare (non-aggregated, ungrouped) columns;
* ``nested-mismatch`` — a subquery used in scalar position that may return
  multiple rows (or multiple columns);
* ``condition-mismatch`` — comparisons between provably incompatible types;
* ``alias-undefined`` — a qualifier that no FROM source defines;
* ``alias-ambiguous`` — an unqualified column matching several sources.

Two auxiliary codes (``unknown-table``, ``unknown-column``) support other
parts of the pipeline and are excluded from the "paper six" by
:func:`paper_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.scopes import Scope, Source, derive_output_columns
from repro.analysis.typing import infer_type, types_comparable
from repro.schema.model import ColType, Schema
from repro.sql import nodes as n
from repro.sql.keywords import AGGREGATE_FUNCTIONS
from repro.sql.render import render

AGGR_ATTR = "aggr-attr"
AGGR_HAVING = "aggr-having"
NESTED_MISMATCH = "nested-mismatch"
CONDITION_MISMATCH = "condition-mismatch"
ALIAS_UNDEFINED = "alias-undefined"
ALIAS_AMBIGUOUS = "alias-ambiguous"
UNKNOWN_TABLE = "unknown-table"
UNKNOWN_COLUMN = "unknown-column"

#: The six error types studied in the paper (Listing 1).
PAPER_ERROR_TYPES: tuple[str, ...] = (
    AGGR_ATTR,
    AGGR_HAVING,
    NESTED_MISMATCH,
    CONDITION_MISMATCH,
    ALIAS_UNDEFINED,
    ALIAS_AMBIGUOUS,
)


@dataclass(frozen=True)
class Violation:
    """One detected semantic violation."""

    code: str
    message: str
    clause: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        where = f" [{self.clause}]" if self.clause else ""
        return f"{self.code}{where}: {self.message}"


def paper_violations(violations: list[Violation]) -> list[Violation]:
    """Filter to the six error types the paper's tasks use."""
    return [v for v in violations if v.code in PAPER_ERROR_TYPES]


@dataclass
class _OpaqueSource(Source):
    """Source for an unknown table: accepts any column with unknown type."""

    def has_column(self, name: str) -> bool:  # noqa: ARG002
        return True

    def column_type(self, name: str) -> Optional[ColType]:  # noqa: ARG002
        return None

    def all_columns(self) -> list[str]:
        return []


class SemanticAnalyzer:
    """Checks statements against a schema and reports violations."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    # -- public API ----------------------------------------------------------

    def analyze(self, statement: n.Statement) -> list[Violation]:
        """Analyze one statement, returning all detected violations."""
        violations: list[Violation] = []
        if isinstance(statement, n.SelectStatement):
            self._query(statement.query, None, {}, violations)
        elif isinstance(statement, n.CreateView):
            self._query(statement.query, None, {}, violations)
        elif isinstance(statement, n.CreateTable) and statement.as_query is not None:
            self._query(statement.as_query, None, {}, violations)
        elif isinstance(statement, (n.Insert, n.Update, n.Delete)):
            self._dml(statement, violations)
        return violations

    def analyze_sql(self, text: str) -> list[Violation]:
        """Parse and analyze SQL text (parse failures yield no violations).

        Parsing goes through the process-wide memo layer; the analyzer
        never mutates the (shared) statement.
        """
        from repro.sql.analysis_cache import try_parse_cached

        statement = try_parse_cached(text)
        if statement is None:
            return []
        return self.analyze(statement)

    def is_clean(self, statement: n.Statement) -> bool:
        """True when the statement has none of the paper's six violations."""
        return not paper_violations(self.analyze(statement))

    # -- traversal -----------------------------------------------------------

    def _query(
        self,
        query: n.Query,
        parent: Optional[Scope],
        cte_columns: dict[str, dict[str, Optional[ColType]]],
        out: list[Violation],
    ) -> None:
        visible = dict(cte_columns)
        for cte in query.ctes:
            self._query(cte.query, parent, visible, out)
            visible[cte.name.lower()] = derive_output_columns(
                self.schema, cte.query, visible
            )
        self._body(query.body, parent, visible, out)

    def _body(
        self,
        body: n.QueryBody,
        parent: Optional[Scope],
        cte_columns: dict[str, dict[str, Optional[ColType]]],
        out: list[Violation],
    ) -> None:
        if isinstance(body, n.Compound):
            self._body(body.left, parent, cte_columns, out)
            self._body(body.right, parent, cte_columns, out)
            return
        self._select_core(body, parent, cte_columns, out)

    def _select_core(
        self,
        core: n.SelectCore,
        parent: Optional[Scope],
        cte_columns: dict[str, dict[str, Optional[ColType]]],
        out: list[Violation],
    ) -> None:
        scope = Scope(parent=parent)
        for ref in core.from_items:
            self._add_sources(ref, scope, cte_columns, out)
        select_aliases = {
            item.alias.lower() for item in core.items if item.alias
        }

        # Resolve and type-check every clause.
        for item in core.items:
            self._check_expr(item.expr, scope, core, cte_columns, out, "SELECT")
        for ref in core.from_items:
            self._check_join_conditions(ref, scope, core, cte_columns, out)
        if core.where is not None:
            self._check_expr(core.where, scope, core, cte_columns, out, "WHERE")
        for expr in core.group_by:
            self._check_expr(
                expr, scope, core, cte_columns, out, "GROUP BY", select_aliases
            )
        if core.having is not None:
            self._check_expr(
                core.having, scope, core, cte_columns, out, "HAVING", select_aliases
            )
        for item in core.order_by:
            self._check_expr(
                item.expr, scope, core, cte_columns, out, "ORDER BY", select_aliases
            )

        self._check_aggregation(core, out)

    def _add_sources(
        self,
        ref: n.TableRef,
        scope: Scope,
        cte_columns: dict[str, dict[str, Optional[ColType]]],
        out: list[Violation],
    ) -> None:
        if isinstance(ref, n.NamedTable):
            label = ref.alias or ref.name
            lowered = ref.name.lower()
            if lowered in cte_columns:
                scope.sources.append(
                    Source(label=label, columns=cte_columns[lowered])
                )
                return
            table = self.schema.table(ref.name)
            if table is None:
                out.append(
                    Violation(
                        UNKNOWN_TABLE,
                        f"table {ref.name!r} is not in schema "
                        f"{self.schema.name!r}",
                        "FROM",
                    )
                )
                scope.sources.append(_OpaqueSource(label=label))
                return
            scope.sources.append(Source(label=label, table=table))
        elif isinstance(ref, n.DerivedTable):
            self._query(ref.query, scope, cte_columns, out)
            scope.sources.append(
                Source(
                    label=ref.alias,
                    columns=derive_output_columns(
                        self.schema, ref.query, cte_columns
                    ),
                )
            )
        elif isinstance(ref, n.Join):
            self._add_sources(ref.left, scope, cte_columns, out)
            self._add_sources(ref.right, scope, cte_columns, out)

    def _check_join_conditions(
        self,
        ref: n.TableRef,
        scope: Scope,
        core: n.SelectCore,
        cte_columns: dict[str, dict[str, Optional[ColType]]],
        out: list[Violation],
    ) -> None:
        if isinstance(ref, n.Join):
            self._check_join_conditions(ref.left, scope, core, cte_columns, out)
            self._check_join_conditions(ref.right, scope, core, cte_columns, out)
            if ref.condition is not None:
                self._check_expr(ref.condition, scope, core, cte_columns, out, "ON")

    # -- expression checks ----------------------------------------------------

    def _check_expr(
        self,
        expr: n.Expr,
        scope: Scope,
        core: n.SelectCore,
        cte_columns: dict[str, dict[str, Optional[ColType]]],
        out: list[Violation],
        clause: str,
        extra_names: Optional[set[str]] = None,
    ) -> None:
        resolve = self._resolver(scope, out, clause, extra_names)
        stack: list[n.Expr] = [expr]
        while stack:
            current = stack.pop()
            if isinstance(current, n.ColumnRef):
                resolve(current)
            elif isinstance(current, n.Binary):
                if current.op in ("=", "<>", "!=", "<", ">", "<=", ">="):
                    self._check_comparison(current, scope, out, clause, extra_names)
                stack.append(current.left)
                stack.append(current.right)
            elif isinstance(current, n.Between):
                self._check_between(current, scope, out, clause, extra_names)
                stack.extend([current.expr, current.low, current.high])
            elif isinstance(current, n.InList):
                self._check_in_list(current, scope, out, clause, extra_names)
                stack.append(current.expr)
                stack.extend(current.items)
            elif isinstance(current, n.Like):
                self._check_like(current, scope, out, clause, extra_names)
                stack.append(current.expr)
                stack.append(current.pattern)
            elif isinstance(current, n.InSubquery):
                self._check_in_subquery(current, scope, cte_columns, out, clause)
                stack.append(current.expr)
            elif isinstance(current, (n.ScalarSubquery, n.Exists)):
                self._query(current.query, scope, cte_columns, out)
            elif isinstance(current, n.Case):
                if current.operand is not None:
                    stack.append(current.operand)
                for condition, result in current.whens:
                    stack.append(condition)
                    stack.append(result)
                if current.default is not None:
                    stack.append(current.default)
            else:
                for child in current.children():
                    if isinstance(child, n.Query):
                        self._query(child, scope, cte_columns, out)
                    elif isinstance(child, n.Expr):
                        stack.append(child)

    def _resolver(
        self,
        scope: Scope,
        out: list[Violation],
        clause: str,
        extra_names: Optional[set[str]] = None,
    ):
        """Build a ColumnRef resolver that also records violations."""

        def resolve(ref: n.ColumnRef) -> Optional[ColType]:
            if ref.table is not None:
                source = scope.find_source(ref.table)
                if source is None:
                    out.append(
                        Violation(
                            ALIAS_UNDEFINED,
                            f"qualifier {ref.table!r} is not defined",
                            clause,
                        )
                    )
                    return None
                if not source.has_column(ref.name):
                    out.append(
                        Violation(
                            UNKNOWN_COLUMN,
                            f"column {ref.name!r} not found in {ref.table!r}",
                            clause,
                        )
                    )
                    return None
                return source.column_type(ref.name)
            if extra_names and ref.name.lower() in extra_names:
                return None  # a select-list alias; type unknown, no violation
            matches = scope.sources_with_column(ref.name)
            if len(matches) > 1:
                out.append(
                    Violation(
                        ALIAS_AMBIGUOUS,
                        f"column {ref.name!r} is ambiguous across "
                        f"{[s.label for s in matches]}",
                        clause,
                    )
                )
                return matches[0].column_type(ref.name)
            if len(matches) == 1:
                return matches[0].column_type(ref.name)
            if scope.parent is not None:
                source, col_type = scope.parent.resolve_column(ref.name)
                if source is not None:
                    return col_type
            out.append(
                Violation(
                    UNKNOWN_COLUMN,
                    f"column {ref.name!r} not found in any source",
                    clause,
                )
            )
            return None

        return resolve

    def _silent_type(
        self,
        expr: n.Expr,
        scope: Scope,
        extra_names: Optional[set[str]] = None,
    ) -> Optional[ColType]:
        """Infer a type without emitting resolution violations."""

        def resolve(ref: n.ColumnRef) -> Optional[ColType]:
            if ref.table is not None:
                source = scope.find_source(ref.table)
                if source is None or not source.has_column(ref.name):
                    return None
                return source.column_type(ref.name)
            if extra_names and ref.name.lower() in extra_names:
                return None
            matches = scope.sources_with_column(ref.name)
            if matches:
                return matches[0].column_type(ref.name)
            if scope.parent is not None:
                _, col_type = scope.parent.resolve_column(ref.name)
                return col_type
            return None

        return infer_type(expr, resolve)

    def _check_comparison(
        self,
        expr: n.Binary,
        scope: Scope,
        out: list[Violation],
        clause: str,
        extra_names: Optional[set[str]],
    ) -> None:
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(side, n.ScalarSubquery):
                self._check_scalar_cardinality(side, out, clause)
        left = self._silent_type(expr.left, scope, extra_names)
        right = self._silent_type(expr.right, scope, extra_names)
        if not types_comparable(left, right):
            out.append(
                Violation(
                    CONDITION_MISMATCH,
                    f"cannot compare {left.value} with {right.value} in "
                    f"{render(expr)!r}",
                    clause,
                )
            )

    def _check_between(
        self,
        expr: n.Between,
        scope: Scope,
        out: list[Violation],
        clause: str,
        extra_names: Optional[set[str]],
    ) -> None:
        subject = self._silent_type(expr.expr, scope, extra_names)
        for bound in (expr.low, expr.high):
            bound_type = self._silent_type(bound, scope, extra_names)
            if not types_comparable(subject, bound_type):
                out.append(
                    Violation(
                        CONDITION_MISMATCH,
                        f"BETWEEN bound type {bound_type.value} does not match "
                        f"{subject.value}",
                        clause,
                    )
                )
                return

    def _check_in_list(
        self,
        expr: n.InList,
        scope: Scope,
        out: list[Violation],
        clause: str,
        extra_names: Optional[set[str]],
    ) -> None:
        subject = self._silent_type(expr.expr, scope, extra_names)
        for item in expr.items:
            item_type = self._silent_type(item, scope, extra_names)
            if not types_comparable(subject, item_type):
                out.append(
                    Violation(
                        CONDITION_MISMATCH,
                        f"IN list item type {item_type.value} does not match "
                        f"{subject.value}",
                        clause,
                    )
                )
                return

    def _check_like(
        self,
        expr: n.Like,
        scope: Scope,
        out: list[Violation],
        clause: str,
        extra_names: Optional[set[str]],
    ) -> None:
        subject = self._silent_type(expr.expr, scope, extra_names)
        if subject is not None and subject is not ColType.TEXT:
            out.append(
                Violation(
                    CONDITION_MISMATCH,
                    f"LIKE applied to non-text operand of type {subject.value}",
                    clause,
                )
            )

    def _check_in_subquery(
        self,
        expr: n.InSubquery,
        scope: Scope,
        cte_columns: dict[str, dict[str, Optional[ColType]]],
        out: list[Violation],
        clause: str,
    ) -> None:
        body = expr.query.body
        while isinstance(body, n.Compound):
            body = body.left
        if len(body.items) != 1 or isinstance(body.items[0].expr, n.Star):
            out.append(
                Violation(
                    NESTED_MISMATCH,
                    "IN subquery must return exactly one column",
                    clause,
                )
            )
        self._query(expr.query, scope, cte_columns, out)

    def _check_scalar_cardinality(
        self, subquery: n.ScalarSubquery, out: list[Violation], clause: str
    ) -> None:
        """A subquery compared with =/< etc. must be single-row, single-column."""
        body = subquery.query.body
        if isinstance(body, n.Compound):
            out.append(
                Violation(
                    NESTED_MISMATCH,
                    "set-operation subquery used in scalar comparison",
                    clause,
                )
            )
            return
        if len(body.items) != 1 or isinstance(body.items[0].expr, n.Star):
            out.append(
                Violation(
                    NESTED_MISMATCH,
                    "scalar subquery must return exactly one column",
                    clause,
                )
            )
            return
        if not _guaranteed_single_row(body):
            out.append(
                Violation(
                    NESTED_MISMATCH,
                    "subquery in scalar comparison may return multiple rows "
                    f"({render(subquery)!r})",
                    clause,
                )
            )

    # -- aggregation discipline ------------------------------------------------

    def _check_aggregation(self, core: n.SelectCore, out: list[Violation]) -> None:
        has_aggregate = any(
            _contains_aggregate(item.expr) for item in core.items
        ) or (core.having is not None and _contains_aggregate(core.having))
        group_names = {
            g.name.lower() for g in core.group_by if isinstance(g, n.ColumnRef)
        }
        group_rendered = {render(g) for g in core.group_by}

        if has_aggregate or core.group_by:
            for item in core.items:
                if isinstance(item.expr, n.Star) and has_aggregate:
                    out.append(
                        Violation(
                            AGGR_ATTR,
                            "'*' selected alongside aggregates without grouping "
                            "every column",
                            "SELECT",
                        )
                    )
                    continue
                if render(item.expr) in group_rendered:
                    continue
                for column in _bare_columns(item.expr):
                    if column.name.lower() not in group_names:
                        out.append(
                            Violation(
                                AGGR_ATTR,
                                f"column {column.name!r} is neither aggregated "
                                "nor in GROUP BY",
                                "SELECT",
                            )
                        )
                        break

        if core.having is not None:
            for column in _bare_columns(core.having):
                if column.name.lower() not in group_names:
                    out.append(
                        Violation(
                            AGGR_HAVING,
                            f"HAVING filters bare column {column.name!r}; "
                            "use WHERE or aggregate it",
                            "HAVING",
                        )
                    )
                    break

    # -- DML ---------------------------------------------------------------------

    def _dml(self, statement: n.Statement, out: list[Violation]) -> None:
        table_name = statement.table  # type: ignore[union-attr]
        table = self.schema.table(table_name)
        if table is None:
            out.append(
                Violation(UNKNOWN_TABLE, f"table {table_name!r} is not in schema")
            )
            return
        if isinstance(statement, n.Insert):
            for column in statement.columns:
                if not table.has_column(column):
                    out.append(
                        Violation(
                            UNKNOWN_COLUMN,
                            f"column {column!r} not in {table_name!r}",
                        )
                    )
            if statement.columns and statement.rows:
                for row in statement.rows:
                    if len(row) != len(statement.columns):
                        out.append(
                            Violation(
                                CONDITION_MISMATCH,
                                "VALUES arity differs from column list",
                            )
                        )
                        break
        if isinstance(statement, (n.Update, n.Delete)) and statement.where is not None:
            scope = Scope(sources=[Source(label=table.name, table=table)])
            self._check_expr(
                statement.where, scope, n.SelectCore(), {}, out, "WHERE"
            )
        if isinstance(statement, n.Update):
            for column, _ in statement.assignments:
                if not table.has_column(column):
                    out.append(
                        Violation(
                            UNKNOWN_COLUMN,
                            f"column {column!r} not in {table_name!r}",
                        )
                    )


def _contains_aggregate(expr: n.Expr) -> bool:
    """True when *expr* calls an aggregate outside any subquery."""
    stack = [expr]
    while stack:
        current = stack.pop()
        if isinstance(current, n.FuncCall):
            if current.name.upper() in AGGREGATE_FUNCTIONS:
                return True
            stack.extend(current.args)
        elif isinstance(current, (n.ScalarSubquery, n.Exists, n.InSubquery)):
            continue  # different scope
        else:
            for child in current.children():
                if isinstance(child, n.Expr):
                    stack.append(child)
    return False


def _bare_columns(expr: n.Expr) -> list[n.ColumnRef]:
    """Column refs not wrapped in an aggregate (and not in subqueries)."""
    found: list[n.ColumnRef] = []
    stack: list[n.Expr] = [expr]
    while stack:
        current = stack.pop()
        if isinstance(current, n.ColumnRef):
            found.append(current)
        elif isinstance(current, n.FuncCall):
            if current.name.upper() in AGGREGATE_FUNCTIONS:
                continue
            stack.extend(current.args)
        elif isinstance(current, (n.ScalarSubquery, n.Exists, n.InSubquery)):
            continue
        else:
            for child in current.children():
                if isinstance(child, n.Expr):
                    stack.append(child)
    return found


def _guaranteed_single_row(core: n.SelectCore) -> bool:
    """Conservatively decide whether a SELECT returns at most one row."""
    if core.top == 1 or core.limit == 1:
        return True
    if core.group_by:
        return False
    return all(_contains_aggregate(item.expr) for item in core.items) and bool(
        core.items
    )
