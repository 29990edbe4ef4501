"""Missing-token injection (paper section 3.1: miss_token family).

Removes exactly one token of a chosen type — keyword, table, column,
value, alias or comparison — from a query's *text*, recording the removed
word, its type and its word position (the label of miss_token_loc).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.sql.analysis_cache import tokenize_cached
from repro.sql.tokens import Token, TokenKind

KEYWORD = "keyword"
TABLE = "table"
COLUMN = "column"
VALUE = "value"
ALIAS = "alias"
COMPARISON = "comparison"

#: The six token types of the miss_token tasks, in the paper's order.
TOKEN_TYPES: tuple[str, ...] = (KEYWORD, TABLE, COLUMN, VALUE, ALIAS, COMPARISON)

#: Keywords worth removing — their absence is visible but not trivially so.
_REMOVABLE_KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "JOIN",
    "ON",
    "AND",
    "OR",
    "IN",
    "BETWEEN",
    "LIKE",
    "AS",
    "DISTINCT",
    "SET",
    "INTO",
    "VALUES",
}

_COMPARISON_OPERATORS = {"=", "<>", "!=", "<", ">", "<=", ">="}


@dataclass
class TokenRemoval:
    """A query text with one token removed, plus ground-truth labels."""

    text: str
    token_type: str
    removed: str
    position: int  # 0-based word index of the removed token in the original
    original_text: str


def _candidates(tokens: tuple[Token, ...], token_type: str) -> list[Token]:
    """Tokens of the requested type, with positional context rules."""
    result: list[Token] = []
    for index, token in enumerate(tokens):
        if token.kind is TokenKind.EOF:
            break
        previous = tokens[index - 1] if index > 0 else None
        nxt = tokens[index + 1] if index + 1 < len(tokens) else None
        if token_type == KEYWORD:
            if token.kind is TokenKind.KEYWORD and token.value in _REMOVABLE_KEYWORDS:
                result.append(token)
        elif token_type == TABLE:
            if (
                token.kind is TokenKind.IDENT
                and previous is not None
                and previous.is_keyword("FROM", "JOIN", "INTO", "UPDATE", "TABLE")
            ):
                result.append(token)
        elif token_type == COLUMN:
            if token.kind is not TokenKind.IDENT:
                continue
            follows_dot = (
                previous is not None
                and previous.kind is TokenKind.PUNCT
                and previous.value == "."
            )
            if follows_dot:  # the column part of `alias.column`
                result.append(token)
                continue
            starts_call = (
                nxt is not None and nxt.kind is TokenKind.PUNCT and nxt.value == "("
            )
            qualifies = (
                nxt is not None and nxt.kind is TokenKind.PUNCT and nxt.value == "."
            )
            names_source = previous is not None and (
                previous.is_keyword("FROM", "JOIN", "INTO", "UPDATE", "TABLE", "AS")
                or previous.kind is TokenKind.IDENT  # bare-alias position
            )
            if not starts_call and not qualifies and not names_source:
                result.append(token)
        elif token_type == VALUE:
            if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
                result.append(token)
        elif token_type == ALIAS:
            if (
                token.kind is TokenKind.IDENT
                and previous is not None
                and previous.is_keyword("AS")
            ):
                result.append(token)
        elif token_type == COMPARISON:
            if (
                token.kind is TokenKind.OPERATOR
                and token.value in _COMPARISON_OPERATORS
            ):
                result.append(token)
        else:
            raise KeyError(f"unknown token type {token_type!r}")
    return result


def _splice(text: str, token: Token) -> str:
    """Remove the token's characters, collapsing the surrounding whitespace."""
    before = text[: token.position]
    after = text[token.end :]
    if before.endswith(" ") and after.startswith(" "):
        after = after[1:]
    return (before + after).strip()


def _removed_display(text: str, token: Token) -> str:
    return text[token.position : token.end]


def remove_token(
    text: str,
    rng: random.Random,
    token_type: Optional[str] = None,
) -> Optional[TokenRemoval]:
    """Remove one random token of *token_type* (random applicable if None).

    Returns None when nothing of the requested type can be removed.
    """
    try:
        tokens = tokenize_cached(text)
    except Exception:
        return None
    order = (
        [token_type]
        if token_type is not None
        else rng.sample(list(TOKEN_TYPES), k=len(TOKEN_TYPES))
    )
    for candidate_type in order:
        candidates = _candidates(tokens, candidate_type)
        if not candidates:
            continue
        token = rng.choice(candidates)
        return TokenRemoval(
            text=_splice(text, token),
            token_type=candidate_type,
            removed=_removed_display(text, token),
            position=token.word_index,
            original_text=text,
        )
    return None
