"""Verified query-pair generation (section 3.2) for every pair task.

:func:`iter_verified_pairs` is the one generator behind the query_equiv
pairs and the two rewrite tasks' pairs.  For each eligible workload
query it produces one pair — alternating equivalent / non-equivalent
for class balance, trying the other polarity when the wanted one yields
nothing — and *verifies the label by execution* on generated instances
before accepting it:

* equivalent pairs must return identical bags on every instance;
* non-equivalent pairs must differ on at least one instance (ruling out
  rewrites that happen to be no-ops on the given data), unless their
  type is sound by construction.

A :class:`PairRecipe` supplies the task's part: the pair's first query
and the candidate second queries of a requested polarity.
:class:`QueryEquivPairs` draws them from the equivalence and
counter-transform pools; ``repro.rewrite.pairs.RewritePairs`` seeds
rewrite sites and chains catalog rewrites.

Queries carrying TOP/LIMIT are skipped: bag comparison after a row-limit
is plan-dependent under ties, which would poison ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.equivalence.checker import EquivalenceChecker
from repro.equivalence.counter_transforms import (
    NON_EQUIVALENCE_TYPES,
    apply_non_equivalence_transform,
)
from repro.equivalence.transforms import (
    EQUIVALENCE_TYPES,
    apply_equivalence_transform,
)
from repro.schema.model import Schema
from repro.sql import nodes as n
from repro.sql.properties import QueryProperties
from repro.sql.render import render
from repro.sql.transform import AppliedTransform
from repro.util import derive_rng
from repro.workloads.base import WorkloadQuery


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
    #: The transform type, or for a rewrite chain its "+"-joined families.
    pair_type: str
    #: The measured properties of the query ``first_text`` renders.
    first_props: QueryProperties
    detail: str = ""


def eligible_for_pairing(query: WorkloadQuery) -> bool:
    """SELECT statements without TOP/LIMIT."""
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


#: Per-workload :class:`EquivalenceChecker` keyword arguments; a workload
#: without an entry gets the checker's defaults.  Join-Order needs denser,
#: better-connected instances: its MIN-aggregate join queries return a single row, so
#: non-equivalence witnesses are scarce on sparse data.
CHECKER_SETTINGS: dict[str, dict[str, object]] = {
    "join_order": {"rows_per_table": 50, "dangling_fraction": 0.02},
}


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


def label_stands(verdict: Optional[bool], equivalent: bool, pair_type: str) -> bool:
    """Whether an execution verdict lets a pair's label stand.

    An equivalent pair needs ``True``.  A non-equivalent pair needs
    ``False`` unless its type is sound by construction.
    """
    if equivalent:
        return verdict is True
    return verdict is False or pair_type in SOUND_BY_CONSTRUCTION


class PairRecipe:
    """How one task builds a pair of a requested polarity from one query.

    By default the pair's first query is the source query itself.
    """

    #: Names the task's rng stream.
    stream: str
    #: Ends every pair id: ``<query id>-<id_suffix>``.
    id_suffix: str

    def first(
        self, query: WorkloadQuery, schema: Schema, rng: random.Random
    ) -> n.Statement:
        """The pair's first query, drawn once before either polarity."""
        return query.statement

    def first_props(self, query: WorkloadQuery, first_text: str) -> QueryProperties:
        """The first query's properties: a copy of the source query's."""
        return replace(query.properties)

    def candidates(
        self,
        first: n.Statement,
        first_text: str,
        schema: Schema,
        rng: random.Random,
        equivalent: bool,
    ) -> Iterator[AppliedTransform]:
        """Second queries of one polarity, in draw order.

        The generator verifies each and stops at the first whose label
        stands, so later candidates are never drawn.
        """
        raise NotImplementedError


class QueryEquivPairs(PairRecipe):
    """query_equiv pairs: one equivalence or counter-transform each."""

    stream = "equivalence-pairs"
    id_suffix = "pair"

    def candidates(self, first, first_text, schema, rng, equivalent):
        if equivalent:
            type_pool, transform = EQUIVALENCE_TYPES, apply_equivalence_transform
        else:
            type_pool, transform = NON_EQUIVALENCE_TYPES, apply_non_equivalence_transform
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
            rewrite = transform(
                first, schema, rng, pair_type=pair_type, original_text=first_text
            )
            if rewrite is not None:
                yield rewrite


def iter_verified_pairs(
    source,
    recipe: PairRecipe,
    seed: int = 0,
    max_pairs: Optional[int] = None,
    verify: bool = True,
) -> Iterator[QueryPair]:
    """Yield verified pairs lazily from eligible SELECT queries.

    ``source`` is a :class:`~repro.workloads.base.Workload` or
    :class:`~repro.workloads.streaming.WorkloadStream`.  Pair generation
    is inherently sequential — the rng state and the alternating
    equivalent/non-equivalent polarity both carry across accepted pairs
    — so a built dataset drains this generator and the streaming engine
    chunks it, with identical output by construction.  ``verify=False``
    accepts every first candidate unchecked.  Checker databases are
    closed when the generator is exhausted or closed.
    """
    rng = derive_rng(recipe.stream, source.name, seed)
    settings = CHECKER_SETTINGS.get(source.name, {})
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
                checkers[query.schema_name] = EquivalenceChecker(schema, **settings)
            checker = checkers.get(query.schema_name)
            first = recipe.first(query, schema, rng)
            first_text = render(first)
            # The wanted polarity, then the other before giving up.
            for equivalent in (want_equivalent, not want_equivalent):
                second = _first_standing(
                    recipe.candidates(first, first_text, schema, rng, equivalent),
                    first,
                    checker,
                    equivalent,
                )
                if second is not None:
                    break
            if second is None:
                continue
            yield QueryPair(
                pair_id=f"{query.query_id}-{recipe.id_suffix}",
                workload=source.name,
                schema_name=query.schema_name,
                source_query_id=query.query_id,
                first_text=first_text,
                second_text=second.text,
                equivalent=equivalent,
                pair_type=second.name,
                first_props=recipe.first_props(query, first_text),
                detail=second.detail,
            )
            produced += 1
            want_equivalent = not want_equivalent
    finally:
        for checker in checkers.values():
            checker.close()


def _first_standing(
    candidates: Iterator[AppliedTransform],
    first: n.Statement,
    checker: Optional[EquivalenceChecker],
    equivalent: bool,
) -> Optional[AppliedTransform]:
    """The first candidate whose label stands (unchecked: the first)."""
    for candidate in candidates:
        if checker is None:
            return candidate
        # Both ASTs are in hand (the first query, the candidate fresh
        # from its transform), so the checker renders them directly
        # instead of re-parsing.
        verdict = checker.verdict(
            candidate.original_text,
            candidate.text,
            first_statement=first,
            second_statement=candidate.statement,
        )
        if label_stands(verdict, equivalent, candidate.name):
            return candidate
    return None
