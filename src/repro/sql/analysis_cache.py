"""Process-wide memoized lexing, parsing and analysis.

The paper's grid reuses the *same* query texts across all five tasks and
every model, so the pipeline used to re-lex and re-parse each text once
per task x consumer (workload loading, property extraction, semantic
analysis, equivalence checking, explanation prompting...).  This module
makes parse work proportional to the number of *distinct* texts instead:

* :func:`tokenize_cached` — the token stream of a text, computed once;
* :func:`parse_cached` / :func:`try_parse_cached` — the parsed
  statement, computed once (parse/lex failures are memoized too, since
  corrupted texts are re-probed just as often as clean ones);
* :func:`analyze_cached` — a :class:`QueryAnalysis` bundling tokens,
  statement and structural properties, computed once.

The miss path is deliberately lean: a parse miss runs one scanner pass
feeding the parser directly (no Token objects, no nested lookup through
the tokenize memo), and counters are single atomic increments with no
lock.  The memo tables are bounded LRUs sized to the run —
:data:`LRU_CAPACITY` (8192) by default, grown by :func:`ensure_capacity`
when a workload declares more distinct texts (an 8k LRU *thrashes* at
n=1M: every entry is evicted before its first reuse, so the memo layer
pays its overhead without ever absorbing work).

**Sharing contract**: cached values are shared across every caller in
the process.  Token tuples and :class:`QueryAnalysis` are immutable;
statements (ASTs) are mutable dataclasses and MUST be treated as frozen
shared values — any transform that mutates must operate on a copy
(:func:`repro.sql.nodes.clone`), which is exactly what the corruption
injectors and equivalence transforms do.  Setting
``REPRO_DEBUG_SHARED_AST=1`` (or calling :func:`enable_mutation_guard`)
arms a debug guard that verifies each cached statement's structural
hash on read and raises
:class:`~repro.sql.errors.SharedASTMutationError` when a caller broke
the contract.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sql import nodes as n
from repro.sql.errors import SharedASTMutationError
from repro.sql.lexer import tokenize
from repro.sql.nodes import structural_hash
from repro.sql.parser import Parser
from repro.sql.tokens import Token

#: Default (and minimum) bound for each memo table.  Large enough to
#: hold every distinct text a paper-scale grid run touches (workload
#: queries + corrupted variants + rewrites), small enough that a
#: pathological caller cannot exhaust memory.  Workload builders call
#: :func:`ensure_capacity` to grow it for larger runs.
LRU_CAPACITY = 8192

#: Growth headroom applied by :func:`ensure_capacity`: corrupted
#: variants and rewrites add distinct texts beyond the declared
#: instance count.
CAPACITY_HEADROOM = 1.25


class _AtomicCounter:
    """A lock-free thread-safe counter.

    ``itertools.count.__next__`` is a single C call and therefore atomic
    under the GIL, so increments from concurrent callers can never lose
    updates — without taking a lock on the cache miss path.  The value
    is read back from the iterator's repr (``count(42)``), which is also
    a single C call.
    """

    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = itertools.count()

    def increment(self) -> None:
        next(self._count)

    def value(self) -> int:
        # repr is "count(N)"; step is always 1 so no ", step" suffix.
        return int(repr(self._count)[6:-1])

    def reset(self) -> None:
        self._count = itertools.count()


@dataclass
class CacheCounters:
    """How much raw work ran vs how much the memo layer absorbed."""

    raw_tokenizes: int = 0
    raw_parses: int = 0
    tokenize_hits: int = 0
    tokenize_misses: int = 0
    parse_hits: int = 0
    parse_misses: int = 0
    analysis_hits: int = 0
    analysis_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)

    def since(self, start: "CacheCounters") -> "CacheCounters":
        """The counts accumulated between the *start* snapshot and this one."""
        return CacheCounters(
            **{key: value - getattr(start, key) for key, value in self.__dict__.items()}
        )


_raw_tokenizes = _AtomicCounter()
_raw_parses = _AtomicCounter()

#: Hits/misses accumulated from memo tables that were since rebuilt by
#: :func:`ensure_capacity` (lru_cache statistics do not survive a
#: rebuild, but provenance must).
_retired = CacheCounters()

_MUTATION_GUARD_ENV = "REPRO_DEBUG_SHARED_AST"
_mutation_guard: bool = os.environ.get(_MUTATION_GUARD_ENV, "") not in ("", "0")


@dataclass(frozen=True)
class QueryAnalysis:
    """Everything the pipeline derives from one query text, computed once.

    ``tokens`` is None when the text does not lex; ``statement`` is None
    when it does not parse.  ``properties`` always holds a measurement
    (AST-based when parsed, token-scan fallback otherwise), matching
    :func:`repro.sql.properties.extract_properties`.
    """

    text: str
    tokens: Optional[tuple[Token, ...]]
    statement: Optional[n.Statement]
    properties: object  # QueryProperties; untyped to avoid an import cycle

    @property
    def parses(self) -> bool:
        return self.statement is not None


# ---------------------------------------------------------------------------
# Memo tables.  Failures are cached as values: corrupted texts (the
# miss_token corpus is unparseable by design) are re-probed as often as
# clean ones, so "this text does not parse" is as valuable to remember
# as a successful AST.
#
# The tables are built by _build_caches so ensure_capacity can rebuild
# them with a larger bound; everything else goes through the module
# globals, which always point at the current generation.
# ---------------------------------------------------------------------------


def _tokenize_uncached(
    text: str,
) -> tuple[Optional[tuple[Token, ...]], Optional[Exception]]:
    _raw_tokenizes.increment()
    try:
        return tuple(tokenize(text)), None
    except Exception as error:
        return None, error


def _parse_uncached(
    text: str,
) -> tuple[Optional[n.Statement], Optional[Exception]]:
    _raw_parses.increment()
    # One scanner pass feeding the parser directly: no Token objects and
    # no nested trip through the tokenize memo (texts that need both an
    # AST and a token stream pay one extra scan, which is far cheaper
    # than materialising Tokens on every parse).
    try:
        parser = Parser(text)
        statement = parser.parse_statement()
        parser.finish_statement()
    except Exception as error:
        return None, error
    if _mutation_guard:
        # Record the pristine shape; reads recompare against it.
        structural_hash(statement)
    return statement, None


def _analysis_uncached(text: str) -> QueryAnalysis:
    tokens, _ = _tokenize_entry(text)
    statement, _ = _parse_entry(text)
    # Imported lazily: properties sits on top of this module.
    from repro.sql.properties import (
        extract_statement_properties,
        properties_from_tokens,
    )

    if statement is not None:
        properties = extract_statement_properties(statement, text)
    else:
        properties = properties_from_tokens(text)
    return QueryAnalysis(
        text=text, tokens=tokens, statement=statement, properties=properties
    )


_capacity = LRU_CAPACITY
_tokenize_entry: Callable
_parse_entry: Callable
_analysis_entry: Callable


def _build_caches(capacity: int) -> None:
    global _tokenize_entry, _parse_entry, _analysis_entry
    _tokenize_entry = functools.lru_cache(maxsize=capacity)(_tokenize_uncached)
    _parse_entry = functools.lru_cache(maxsize=capacity)(_parse_uncached)
    _analysis_entry = functools.lru_cache(maxsize=capacity)(_analysis_uncached)


_build_caches(_capacity)


def capacity() -> int:
    """The current per-table memo capacity."""
    return _capacity


def ensure_capacity(distinct_texts: int) -> int:
    """Grow the memo tables to fit a run of *distinct_texts* texts.

    Sizing the LRU below the working set is worse than useless — at
    n=1M against an 8k table every entry is evicted before its first
    reuse, so the run pays the memo overhead with a ~0% hit rate.
    Workload builders call this before generating/loading texts; the
    bound becomes ``distinct_texts`` plus headroom for corrupted
    variants, never below :data:`LRU_CAPACITY`.  Growing rebuilds the
    tables (dropping entries, which at build start are none); hit/miss
    statistics carry over.  Capacity never shrinks mid-process.

    Returns the capacity now in effect.
    """
    global _capacity
    target = max(LRU_CAPACITY, int(distinct_texts * CAPACITY_HEADROOM))
    if target > _capacity:
        _retire_cache_stats()
        _capacity = target
        _build_caches(target)
    return _capacity


def _retire_cache_stats() -> None:
    """Fold the live tables' hit/miss stats into the retained baseline."""
    tok = _tokenize_entry.cache_info()
    par = _parse_entry.cache_info()
    ana = _analysis_entry.cache_info()
    _retired.tokenize_hits += tok.hits
    _retired.tokenize_misses += tok.misses
    _retired.parse_hits += par.hits
    _retired.parse_misses += par.misses
    _retired.analysis_hits += ana.hits
    _retired.analysis_misses += ana.misses


# ---------------------------------------------------------------------------
# Shared-AST mutation guard
# ---------------------------------------------------------------------------


def enable_mutation_guard(enabled: bool = True) -> None:
    """Arm (or disarm) the shared-AST mutation guard for this process.

    Equivalent to setting ``REPRO_DEBUG_SHARED_AST=1`` before import.
    Statements parsed while the guard is armed record their structural
    hash; every later cache read recomputes the hash and raises
    :class:`~repro.sql.errors.SharedASTMutationError` on mismatch.
    Intended for tests and debugging — the fresh recompute walks the
    tree on every read, which the production hot path must not pay.
    """
    global _mutation_guard
    _mutation_guard = enabled


def mutation_guard_enabled() -> bool:
    return _mutation_guard


def _check_unmutated(statement: Optional[n.Statement]) -> None:
    if statement is None:
        return
    try:
        recorded = statement._shash
    except AttributeError:
        # Parsed before the guard was armed; nothing recorded to check.
        return
    if structural_hash(statement, fresh=True) != recorded:
        raise SharedASTMutationError(
            "a cached statement was mutated in place; cached ASTs are "
            "shared values — clone() before mutating "
            "(repro.sql.nodes.clone)"
        )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def tokenize_cached(text: str) -> tuple[Token, ...]:
    """The memoized token stream of *text* (EOF-terminated, immutable).

    Raises the original :class:`~repro.sql.errors.LexError` for
    unlexable text, exactly like :func:`repro.sql.lexer.tokenize`.
    """
    tokens, error = _tokenize_entry(text)
    if error is not None:
        raise error
    return tokens


def parse_cached(text: str) -> n.Statement:
    """The memoized parsed statement of *text*.

    Raises the original parse/lex error for invalid text, exactly like
    :func:`repro.sql.parser.parse_statement`.  The returned AST is a
    **shared value**: callers that mutate must copy first
    (:func:`repro.sql.nodes.clone`).
    """
    statement, error = _parse_entry(text)
    if error is not None:
        raise error
    if _mutation_guard:
        _check_unmutated(statement)
    return statement


def try_parse_cached(text: str) -> Optional[n.Statement]:
    """Memoized :func:`repro.sql.parser.try_parse`: None on any failure.

    The returned AST is a **shared value**: callers that mutate must
    copy first (:func:`repro.sql.nodes.clone`).
    """
    statement, _ = _parse_entry(text)
    if _mutation_guard:
        _check_unmutated(statement)
    return statement


def analyze_cached(text: str) -> QueryAnalysis:
    """The full memoized analysis record for *text*."""
    analysis = _analysis_entry(text)
    if _mutation_guard:
        _check_unmutated(analysis.statement)
    return analysis


def counters() -> CacheCounters:
    """A snapshot of raw-work and hit/miss counters for this process.

    Hit/miss statistics span capacity rebuilds; raw counts span the
    whole process (until :func:`clear_caches`).
    """
    snapshot = CacheCounters(
        raw_tokenizes=_raw_tokenizes.value(),
        raw_parses=_raw_parses.value(),
        **{
            key: value
            for key, value in _retired.as_dict().items()
            if key not in ("raw_tokenizes", "raw_parses")
        },
    )
    tok = _tokenize_entry.cache_info()
    par = _parse_entry.cache_info()
    ana = _analysis_entry.cache_info()
    snapshot.tokenize_hits += tok.hits
    snapshot.tokenize_misses += tok.misses
    snapshot.parse_hits += par.hits
    snapshot.parse_misses += par.misses
    snapshot.analysis_hits += ana.hits
    snapshot.analysis_misses += ana.misses
    return snapshot


def clear_caches() -> None:
    """Drop all memoized entries and zero every counter.

    This is the isolation primitive for benchmarks and tests: after a
    call, the next ``*_cached`` lookup is guaranteed to run raw work (so
    "raw" throughput numbers can never be silently served from memo),
    and :func:`counters` restarts from zero.
    """
    _analysis_entry.cache_clear()
    _parse_entry.cache_clear()
    _tokenize_entry.cache_clear()
    for name in vars(_retired):
        setattr(_retired, name, 0)
    _raw_tokenizes.reset()
    _raw_parses.reset()
