"""Labeled query-pair generation for the query_equiv tasks (section 3.2).

For each eligible workload query the generator produces one pair —
alternating equivalent / non-equivalent for class balance — and *verifies
the label by execution* on generated instances before accepting it:

* equivalent pairs must return identical bags on every instance;
* non-equivalent pairs must differ on at least one instance (ruling out
  rewrites that happen to be no-ops on the given data).

Queries carrying TOP/LIMIT are skipped: bag comparison after a row-limit
is plan-dependent under ties, which would poison ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.equivalence.checker import EquivalenceChecker
from repro.equivalence.counter_transforms import (
    NON_EQUIVALENCE_TYPES,
    apply_non_equivalence_transform,
)
from repro.equivalence.transforms import (
    EQUIVALENCE_TYPES,
    apply_equivalence_transform,
)
from repro.sql import nodes as n
from repro.sql.properties import QueryProperties
from repro.sql.render import render
from repro.util import derive_rng
from repro.workloads.base import Workload, WorkloadQuery


@dataclass
class QueryPair:
    """A labeled (first, second) query pair."""

    pair_id: str
    workload: str
    schema_name: str
    source_query_id: str
    first_text: str
    second_text: str
    equivalent: bool
    pair_type: str
    #: The source query's measured properties; ``first_text`` renders
    #: that query, so measuring the text again would give the same.
    first_props: QueryProperties
    detail: str = ""


def eligible_for_pairing(query: WorkloadQuery) -> bool:
    """SELECT statements without TOP/LIMIT (shared with the rewrite pairs)."""
    statement = query.statement
    if statement is None or not isinstance(statement, n.SelectStatement):
        return False
    body = statement.query.body
    if isinstance(body, n.SelectCore) and (
        body.top is not None or body.limit is not None
    ):
        return False
    if isinstance(body, n.Compound) and body.limit is not None:
        return False
    return True


#: Per-workload checker settings.  Join-Order needs denser, better-connected
#: instances: its MIN-aggregate join queries return a single row, so
#: non-equivalence witnesses are scarce on sparse data.
CHECKER_SETTINGS: dict[str, dict[str, object]] = {
    "join_order": {"rows_per_table": 50, "dangling_fraction": 0.02},
}


def iter_equivalence_pairs(
    source,
    seed: int = 0,
    max_pairs: Optional[int] = None,
    verify: bool = True,
    rows_per_table: int = 80,
    dangling_fraction: float = 0.08,
):
    """Yield verified pairs lazily from eligible SELECT queries.

    ``source`` is a :class:`Workload` or
    :class:`~repro.workloads.streaming.WorkloadStream`.  Pair generation
    is inherently sequential — the rng state and the alternating
    equivalent/non-equivalent polarity both carry across accepted pairs
    — so this generator IS the single source of truth: the materialised
    :func:`generate_equivalence_pairs` drains it, and the streaming
    engine chunks it, with identical output by construction.  Checker
    databases are closed when the generator is exhausted or closed.
    """
    rng = derive_rng("equivalence-pairs", source.name, seed)
    overrides = CHECKER_SETTINGS.get(source.name, {})
    rows_per_table = int(overrides.get("rows_per_table", rows_per_table))
    dangling_fraction = float(
        overrides.get("dangling_fraction", dangling_fraction)
    )
    checkers: dict[str, EquivalenceChecker] = {}
    try:
        produced = 0
        want_equivalent = True
        for query in source:
            if max_pairs is not None and produced >= max_pairs:
                break
            if query.properties.query_type not in ("SELECT", "WITH"):
                continue
            if not eligible_for_pairing(query):
                continue
            schema = source.schema_for(query)
            if verify and query.schema_name not in checkers:
                checkers[query.schema_name] = EquivalenceChecker(
                    schema,
                    rows_per_table=rows_per_table,
                    dangling_fraction=dangling_fraction,
                )
            checker = checkers.get(query.schema_name)
            pair = _build_pair(query, source, checker, rng, want_equivalent)
            if pair is None:  # try the other polarity before giving up
                pair = _build_pair(query, source, checker, rng, not want_equivalent)
            if pair is None:
                continue
            yield pair
            produced += 1
            want_equivalent = not want_equivalent
    finally:
        for checker in checkers.values():
            checker.close()


def generate_equivalence_pairs(
    workload: Workload,
    seed: int = 0,
    max_pairs: Optional[int] = None,
    verify: bool = True,
    rows_per_table: int = 80,
    dangling_fraction: float = 0.08,
) -> list[QueryPair]:
    """Build verified pairs from a workload's eligible SELECT queries."""
    return list(
        iter_equivalence_pairs(
            workload,
            seed=seed,
            max_pairs=max_pairs,
            verify=verify,
            rows_per_table=rows_per_table,
            dangling_fraction=dangling_fraction,
        )
    )


#: Non-equivalence types that are semantics-changing *by construction*:
#: for each there provably exists a database instance distinguishing the
#: pair (the formal definition of non-equivalence), so when the small
#: generated instances yield no witness — common for Join-Order queries
#: whose heavy filters empty every join — the label still stands.
SOUND_BY_CONSTRUCTION: frozenset[str] = frozenset(
    {
        "value-change",
        "comparison-op",
        "agg-function",
        "column-swap",
        "change-join-condition",
    }
)


def _build_pair(
    query: WorkloadQuery,
    workload: Workload,
    checker: Optional[EquivalenceChecker],
    rng,
    equivalent: bool,
) -> Optional[QueryPair]:
    statement = query.statement
    schema = workload.schema_for(query)
    # Rendered once: the attempt loop below retries up to 2x the type
    # pool, and every attempt needs the original text for comparison.
    original_text = render(statement)
    type_pool = EQUIVALENCE_TYPES if equivalent else NON_EQUIVALENCE_TYPES
    # Two full passes over the types: a transform may fail verification
    # with one random draw yet succeed with another (e.g. value-change
    # picking a filter that happens to be vacuous on the instances).
    tried: list[str] = []
    for _ in range(2 * len(type_pool)):
        remaining = [t for t in type_pool if t not in tried]
        if not remaining:
            tried = []
            remaining = list(type_pool)
        pair_type = rng.choice(remaining)
        tried.append(pair_type)
        if equivalent:
            rewrite = apply_equivalence_transform(
                statement,
                schema,
                rng,
                pair_type=pair_type,
                original_text=original_text,
            )
        else:
            rewrite = apply_non_equivalence_transform(
                statement,
                schema,
                rng,
                pair_type=pair_type,
                original_text=original_text,
            )
        if rewrite is None:
            continue
        if checker is not None:
            # Both ASTs are in hand (the original from the analysis
            # cache, the rewrite fresh from the transform), so the
            # checker renders them directly instead of re-parsing.
            verdict = checker.verdict(
                rewrite.original_text,
                rewrite.text,
                first_statement=statement,
                second_statement=rewrite.statement,
            )
            if equivalent and verdict is not True:
                continue
            if (
                not equivalent
                and verdict is not False
                and pair_type not in SOUND_BY_CONSTRUCTION
            ):
                continue
        return QueryPair(
            pair_id=f"{query.query_id}-pair",
            workload=workload.name,
            schema_name=query.schema_name,
            source_query_id=query.query_id,
            first_text=rewrite.original_text,
            second_text=rewrite.text,
            equivalent=equivalent,
            pair_type=rewrite.pair_type,
            first_props=replace(query.properties),
            detail=rewrite.detail,
        )
    return None
