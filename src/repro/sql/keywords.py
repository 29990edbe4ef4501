"""SQL keyword and built-in function vocabularies.

The workloads studied in the paper mix dialects: SDSS/SQLShare queries are
T-SQL flavoured (``SELECT TOP``, ``DECLARE @x``, ``EXEC``, ``WAITFOR``,
``dbo.`` qualified UDFs), while Join-Order and Spider queries are plain
ANSI/SQLite SELECTs.  The vocabularies below cover the union.
"""

from __future__ import annotations

#: Reserved words recognised by the lexer.  Matching is case-insensitive;
#: the canonical spelling stored on tokens is upper-case.
KEYWORDS: frozenset[str] = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "OFFSET",
        "TOP",
        "DISTINCT",
        "ALL",
        "AS",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "FULL",
        "OUTER",
        "CROSS",
        "ON",
        "USING",
        "AND",
        "OR",
        "NOT",
        "IN",
        "BETWEEN",
        "LIKE",
        "IS",
        "NULL",
        "EXISTS",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "UNION",
        "INTERSECT",
        "EXCEPT",
        "WITH",
        "CREATE",
        "TABLE",
        "VIEW",
        "INSERT",
        "INTO",
        "VALUES",
        "UPDATE",
        "SET",
        "DELETE",
        "DROP",
        "DECLARE",
        "EXEC",
        "EXECUTE",
        "WAITFOR",
        "DELAY",
        "PRIMARY",
        "KEY",
        "FOREIGN",
        "REFERENCES",
        "DEFAULT",
        "CHECK",
        "UNIQUE",
        "INDEX",
        "CAST",
        "TRUE",
        "FALSE",
        "IF",
    }
)

#: Precomputed spelling -> canonical-uppercase keyword table.  The three
#: spellings real query logs use (``SELECT`` / ``select`` / ``Select``)
#: resolve with a single dict probe — the scanner's word fast path —
#: while arbitrary mixed case (``SeLeCt``) falls back to ``.upper()``
#: plus a :data:`KEYWORDS` membership check.  This is the pure-Python
#: analogue of a perfect-hash keyword table: one collision-free lookup
#: classifies the overwhelmingly common case.
KEYWORD_CANON: dict[str, str] = {
    spelling: keyword
    for keyword in KEYWORDS
    for spelling in (keyword, keyword.lower(), keyword.capitalize())
}

#: Aggregate functions; used by the analyzer for GROUP BY discipline and by
#: the property extractor for the ``aggregate`` flag.
AGGREGATE_FUNCTIONS: frozenset[str] = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV", "VAR"}
)

#: Scalar built-ins seen across the four workloads (T-SQL + SQLite blend).
SCALAR_FUNCTIONS: frozenset[str] = frozenset(
    {
        "ABS",
        "ROUND",
        "FLOOR",
        "CEILING",
        "SQRT",
        "POWER",
        "LOG",
        "LOG10",
        "EXP",
        "SIN",
        "COS",
        "TAN",
        "ATAN2",
        "RADIANS",
        "DEGREES",
        "SIGN",
        "UPPER",
        "LOWER",
        "LTRIM",
        "RTRIM",
        "TRIM",
        "LEN",
        "LENGTH",
        "SUBSTRING",
        "SUBSTR",
        "REPLACE",
        "CHARINDEX",
        "STR",
        "CONCAT",
        "COALESCE",
        "NULLIF",
        "ISNULL",
        "IFNULL",
        "GETDATE",
        "DATEDIFF",
        "DATEADD",
        "YEAR",
        "MONTH",
        "DAY",
        "CONVERT",
    }
)

#: SDSS SkyServer user-defined functions (schema-qualified with ``dbo.``).
#: These appear verbatim in real SDSS query logs and in our generator.
SDSS_UDFS: frozenset[str] = frozenset(
    {
        "fGetNearbyObjEq",
        "fGetObjFromRect",
        "fPhotoTypeN",
        "fSpecZWarningN",
        "fObjidFromSDSS",
        "fDistanceArcMinEq",
        "fMagToFlux",
        "fSDSSfromEq",
    }
)

#: Words that may open a statement; used for query_type classification.
STATEMENT_OPENERS: tuple[str, ...] = (
    "SELECT",
    "WITH",
    "CREATE",
    "INSERT",
    "UPDATE",
    "DELETE",
    "DROP",
    "DECLARE",
    "SET",
    "EXEC",
    "EXECUTE",
    "WAITFOR",
)

#: Join-introducing keywords, used by the property extractor.
JOIN_KEYWORDS: frozenset[str] = frozenset(
    {"JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS"}
)

#: Type names accepted in DDL and CAST expressions.
TYPE_NAMES: frozenset[str] = frozenset(
    {
        "INT",
        "INTEGER",
        "BIGINT",
        "SMALLINT",
        "TINYINT",
        "FLOAT",
        "REAL",
        "DOUBLE",
        "DECIMAL",
        "NUMERIC",
        "VARCHAR",
        "NVARCHAR",
        "CHAR",
        "TEXT",
        "DATE",
        "DATETIME",
        "TIME",
        "BIT",
        "BOOLEAN",
    }
)
