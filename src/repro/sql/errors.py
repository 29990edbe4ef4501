"""Exception hierarchy for the SQL substrate."""

from __future__ import annotations


class SqlError(Exception):
    """Base class for all SQL substrate failures."""


class LexError(SqlError):
    """Raised when the lexer meets a character it cannot tokenize."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement.

    Attributes:
        position: Character offset of the offending token.
        found: Text of the offending token (empty string at end of input).
    """

    def __init__(self, message: str, position: int = 0, found: str = "") -> None:
        super().__init__(f"{message} (at offset {position}, found {found!r})")
        self.position = position
        self.found = found


class RenderError(SqlError):
    """Raised when an AST cannot be rendered in the requested dialect."""


class SharedASTMutationError(SqlError):
    """Raised by the analysis cache's debug guard when a cached statement
    was mutated in place.

    Cached ASTs are shared values; mutating one corrupts every later
    consumer of the same query text.  The guard
    (``REPRO_DEBUG_SHARED_AST=1``) detects the corruption at the next
    cache read by recomparing the tree's structural hash against the one
    recorded when it was parsed.  The fix is always the same: call
    :func:`repro.sql.nodes.clone` before mutating.
    """

