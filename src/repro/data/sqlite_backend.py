"""SQLite materialisation and query execution.

``SqliteDatabase`` turns a schema + generated rows into a live in-memory
SQLite database and executes queries rendered in the SQLITE dialect.
:func:`results_equal` provides the multiset semantics the equivalence
checker needs (SQL results are bags; order only matters under ORDER BY).
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter
from dataclasses import dataclass

from repro.data.generator import GeneratedInstance, RowGenerator
from repro.schema.model import Schema
from repro.sql import nodes
from repro.sql.render import SQLITE, render


class ExecutionError(Exception):
    """Raised when SQLite rejects a query."""


@dataclass
class QueryResult:
    """Rows plus column names from one execution."""

    columns: list[str]
    rows: list[tuple]

    @property
    def row_count(self) -> int:
        return len(self.rows)


class SqliteDatabase:
    """An in-memory SQLite instance for one schema.

    ``step_budget`` bounds the number of VM-progress callbacks a single
    query may consume (the handler fires every ~100k instructions); a
    query exceeding it raises :class:`ExecutionError`.  This guards the
    equivalence checker against join queries that explode combinatorially
    on synthetic data.
    """

    PROGRESS_INTERVAL = 100_000

    def __init__(
        self,
        schema: Schema,
        instance: GeneratedInstance,
        step_budget: int = 200,
    ) -> None:
        self.schema = schema
        self.step_budget = step_budget
        self.connection = sqlite3.connect(":memory:")
        self.connection.create_function("POWER", 2, _power)
        self.connection.create_function("SQRT", 1, _sqrt)
        self.connection.create_function("LOG", 1, _log)
        self.connection.create_function("RADIANS", 1, math.radians)
        self.connection.create_function("DEGREES", 1, math.degrees)
        self._load(instance)

    @classmethod
    def from_schema(
        cls,
        schema: Schema,
        seed: int = 0,
        rows_per_table: int = 60,
        dangling_fraction: float = 0.0,
        step_budget: int = 200,
    ) -> "SqliteDatabase":
        """Build a database with freshly generated synthetic rows."""
        instance = RowGenerator(seed).generate(
            schema, rows_per_table, dangling_fraction=dangling_fraction
        )
        return cls(schema, instance, step_budget=step_budget)

    def _load(self, instance: GeneratedInstance) -> None:
        cursor = self.connection.cursor()
        for table in self.schema.tables:
            columns = ", ".join(
                f'"{column.name}" {column.col_type.sqlite_affinity}'
                for column in table.columns
            )
            cursor.execute(f'CREATE TABLE "{table.name}" ({columns})')
            rows = instance.table_rows(table.name)
            if rows:
                placeholders = ", ".join("?" for _ in table.columns)
                cursor.executemany(
                    f'INSERT INTO "{table.name}" VALUES ({placeholders})', rows
                )
        self.connection.commit()

    def execute(self, sql: str) -> QueryResult:
        """Run raw SQL text and fetch all rows (bounded by step_budget)."""
        remaining = [self.step_budget]

        def guard() -> int:
            remaining[0] -= 1
            return 1 if remaining[0] < 0 else 0

        self.connection.set_progress_handler(guard, self.PROGRESS_INTERVAL)
        try:
            cursor = self.connection.execute(sql)
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            raise ExecutionError(f"{exc} -- in query: {sql[:200]}") from exc
        finally:
            self.connection.set_progress_handler(None, 0)
        columns = (
            [description[0] for description in cursor.description]
            if cursor.description
            else []
        )
        return QueryResult(columns=columns, rows=rows)

    def execute_statement(self, statement: nodes.Statement) -> QueryResult:
        """Render *statement* in the SQLite dialect and run it."""
        return self.execute(render(statement, SQLITE))

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _power(base, exponent):
    if base is None or exponent is None:
        return None
    return float(base) ** float(exponent)


def _sqrt(value):
    if value is None or value < 0:
        return None
    return math.sqrt(value)


def _log(value):
    if value is None or value <= 0:
        return None
    return math.log10(value)


def _normalise_cell(cell):
    """Quantise floats so equivalent arithmetic compares equal.

    Rounding to a fixed *absolute* number of decimals breaks down at
    large magnitudes: ``1234567.0499997`` and ``1234567.0500001`` differ
    only by 4e-7 yet ``round(_, 6)`` keeps them apart, flipping an
    equivalence verdict.  Instead the retained decimal places shrink
    with the integer magnitude (a relative tolerance of roughly six
    significant digits), while sub-ten magnitudes keep the original six
    decimal places.
    """
    if isinstance(cell, float):
        if not math.isfinite(cell) or cell == 0.0:
            return cell
        magnitude = math.floor(math.log10(abs(cell)))
        return round(cell, 6 - max(magnitude, 0))
    return cell


def results_equal(
    first: QueryResult, second: QueryResult, ordered: bool = False
) -> bool:
    """Compare results under bag semantics (or list semantics if *ordered*).

    Column *names* are ignored — equivalence is about the returned data,
    and rewrites such as CTE extraction can rename output columns.
    """
    if len(first.columns) != len(second.columns):
        return False
    # Most comparisons are of raw-equal results, and those stay equal
    # after normalisation, so normalise only on a raw mismatch.  The raw
    # match pairs cells of one type only: an int equals the float of the
    # same value, but normalisation may round the float away from it.
    first_typed = [(row, tuple(map(type, row))) for row in first.rows]
    second_typed = [(row, tuple(map(type, row))) for row in second.rows]
    if ordered:
        if first_typed == second_typed:
            return True
    elif Counter(first_typed) == Counter(second_typed):
        return True
    first_rows = [tuple(_normalise_cell(c) for c in row) for row in first.rows]
    second_rows = [tuple(_normalise_cell(c) for c in row) for row in second.rows]
    if ordered:
        return first_rows == second_rows
    return Counter(first_rows) == Counter(second_rows)
