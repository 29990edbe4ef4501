"""Single-pass SQL scanner and lexer.

Two layers share one compiled master pattern:

* :func:`scan` — the hot core.  One C-speed regex match per token
  (a possessive trivia prefix folds whitespace/comments into the same
  match), classified into four parallel arrays ``(kinds, values,
  starts, ends)`` with integer kind codes.  No Token objects, no word
  indexes: this is what the parser and the memoized analysis layer
  consume on the cold path.
* :func:`tokenize` — the public lexer.  Wraps the scan into a flat list
  of :class:`~repro.sql.tokens.Token`, adding each token's
  whitespace-delimited *word* index (the paper's miss_token_loc task
  measures positions in words, section 3.4) via one bisect per token
  over precomputed word-end offsets.

Keywords classify through :data:`~repro.sql.keywords.KEYWORD_CANON`, a
precomputed spelling table that resolves the common casings with a
single dict probe instead of an ``.upper()`` + set membership per word.
Comments are skipped.  The token stream is byte-identical to the
original character-at-a-time scanner (``tests/golden/lexer_tokens.json``
proves it field-for-field).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import repeat

from repro.sql.errors import LexError
from repro.sql.keywords import KEYWORD_CANON, KEYWORDS
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
    Token,
)

#: Whitespace-delimited words; their end offsets drive word_index lookup.
_WORDS = re.compile(r"\S+")

#: The master pattern: skip trivia, then match one token.  The
#: alternatives are ordered roughly by frequency in real query logs
#: (words and punctuation dominate), with three correctness constraints:
#:
#: * PUNCT's ``.`` carries a ``(?!\\d)`` guard so ``.5`` falls through
#:   to NUMBER while a plain ``.`` stays punctuation;
#: * BADCOMMENT sits before OPERATOR so an unterminated ``/*`` raises
#:   instead of lexing as a division operator;
#: * the BAD* alternatives come after every well-formed sibling: they
#:   only match when the alternative above failed, turning each failure
#:   mode into the same LexError the old scanner raised.
#:
#: The trivia prefix and the string bodies use possessive repetition
#: (``*+``) so a partial match cannot backtrack into a shorter bogus
#: one — an unterminated ``'a''`` falls through to BADSTRING exactly
#: like the old scanner's unterminated-literal path.  The whole token
#: part is optional: a match that consumed only trailing trivia reports
#: ``lastindex is None`` and ends the scan.
_MASTER = re.compile(
    r"""
    (?:\s+|--[^\n]*(?:\n|$)|/\*(?s:.)*?\*/)*+
    (?:
     (?P<WORD>[^\W\d]\w*)
    |(?P<PUNCT>[(),;]|\.(?!\d))
    |(?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    |(?P<BADCOMMENT>/\*)
    |(?P<OPERATOR><=|>=|<>|!=|\|\||[-+*/%=<>!|])
    |(?P<STRING>'(?:[^']|'')*+'|"(?:[^"]|"")*+")
    |(?P<BRACKET>\[[^]]*\])
    |(?P<VARIABLE>@\w+)
    |(?P<BADSTRING>['"])
    |(?P<BADBRACKET>\[)
    |(?P<BADVAR>@)
    )?
    """,
    re.VERBOSE,
)

_GROUPS = _MASTER.groupindex
_WORD = _GROUPS["WORD"]
_PUNCT = _GROUPS["PUNCT"]
_NUMBER = _GROUPS["NUMBER"]
_BADCOMMENT = _GROUPS["BADCOMMENT"]
_OPERATOR = _GROUPS["OPERATOR"]
_STRING = _GROUPS["STRING"]
_BRACKET = _GROUPS["BRACKET"]
_VARIABLE = _GROUPS["VARIABLE"]

_BAD_MESSAGES = {
    _BADCOMMENT: "unterminated block comment",
    _GROUPS["BADSTRING"]: "unterminated string literal",
    _GROUPS["BADBRACKET"]: "unterminated bracketed identifier",
    _GROUPS["BADVAR"]: "dangling '@'",
}

#: Result of one scan: parallel (kinds, values, starts, ends) arrays,
#: EOF-terminated (the EOF entry's start/end are both ``len(text)``).
ScanResult = tuple[list[int], list[str], list[int], list[int]]


def scan(text: str) -> ScanResult:
    """Scan *text* into parallel token arrays (the cold-path core).

    Returns ``(kinds, values, starts, ends)`` where ``kinds`` holds the
    ``K_*`` integer codes of :mod:`repro.sql.tokens`, terminated by one
    ``K_EOF`` entry.  Raises :class:`~repro.sql.errors.LexError` exactly
    where :func:`tokenize` does.
    """
    length = len(text)
    match_at = _MASTER.match
    canon_get = KEYWORD_CANON.get
    keywords = KEYWORDS
    kinds: list[int] = []
    values: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    append_kind = kinds.append
    append_value = values.append
    append_start = starts.append
    append_end = ends.append
    pos = 0
    while pos < length:
        match = match_at(text, pos)
        index = match.lastindex
        if index is None:
            # Only trivia matched: end of input, or an unlexable char.
            end = match.end()
            if end >= length:
                break
            raise LexError(f"unexpected character {text[end]!r}", end)
        start = match.start(index)
        end = match.end()
        if index == _WORD:
            raw = match.group(index)
            canonical = canon_get(raw)
            if canonical is not None:
                append_kind(K_KEYWORD)
                append_value(canonical)
            else:
                upper = raw.upper()
                if upper in keywords:
                    append_kind(K_KEYWORD)
                    append_value(upper)
                else:
                    append_kind(K_IDENT)
                    append_value(raw)
        elif index == _PUNCT:
            append_kind(K_PUNCT)
            append_value(text[start])
        elif index == _NUMBER:
            append_kind(K_NUMBER)
            append_value(match.group(index))
        elif index == _OPERATOR:
            append_kind(K_OPERATOR)
            append_value(match.group(index))
        elif index == _STRING:
            quote = text[start]
            append_kind(K_STRING)
            append_value(text[start + 1 : end - 1].replace(quote + quote, quote))
        elif index == _BRACKET:
            append_kind(K_IDENT)
            append_value(text[start + 1 : end - 1])
        elif index == _VARIABLE:
            append_kind(K_VARIABLE)
            append_value(match.group(index))
        else:
            raise LexError(_BAD_MESSAGES[index], start)
        append_start(start)
        append_end(end)
        pos = end
    append_kind(K_EOF)
    append_value("")
    append_start(length)
    append_end(length)
    return kinds, values, starts, ends


def _word_ends(text: str) -> list[int]:
    return [m.end() for m in _WORDS.finditer(text)]


def tokens_from_scan(text: str, scanned: ScanResult) -> list[Token]:
    """Wrap a scan into the public EOF-terminated Token list."""
    kinds, values, starts, ends = scanned
    word_ends = _word_ends(text)
    # The EOF sentinel's start is len(text); bisect maps it just like
    # any other offset.  map() keeps the per-token work in C: one bisect
    # for the word index, one Token._make for construction.
    words = map(bisect_right, repeat(word_ends), starts)
    token_kinds = map(CODE_TO_KIND.__getitem__, kinds)
    return list(map(Token._make, zip(token_kinds, values, starts, words, ends)))


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*, returning a token list terminated by EOF.

    This is the *raw* (uncached) lexer; hot paths should prefer
    :func:`repro.sql.analysis_cache.tokenize_cached`, which memoizes the
    stream per distinct text.
    """
    return tokens_from_scan(text, scan(text))


def word_count(text: str) -> int:
    """Number of whitespace-delimited words (paper property word_count)."""
    return len(text.split())


def char_count(text: str) -> int:
    """Number of characters (paper property char_count)."""
    return len(text)
