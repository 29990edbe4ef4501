"""Equivalence engine: transforms, counter-transforms, checker, pairs.

Both transform pools return the :class:`~repro.sql.transform.AppliedTransform`
of the shared transform layer, whose ``name`` is the pair type.
:func:`iter_verified_pairs` is the one verified-pair generator; a
:class:`~repro.equivalence.pairs.PairRecipe` supplies each task's part.
"""

from repro.equivalence.checker import EquivalenceChecker
from repro.equivalence.counter_transforms import (
    NON_EQUIVALENCE_TYPES,
    apply_non_equivalence_transform,
)
from repro.equivalence.pairs import (
    QueryEquivPairs,
    QueryPair,
    iter_verified_pairs,
    label_stands,
)
from repro.equivalence.transforms import (
    EQUIVALENCE_TYPES,
    apply_equivalence_transform,
)

__all__ = [
    "EquivalenceChecker",
    "EQUIVALENCE_TYPES",
    "NON_EQUIVALENCE_TYPES",
    "apply_equivalence_transform",
    "apply_non_equivalence_transform",
    "QueryEquivPairs",
    "QueryPair",
    "iter_verified_pairs",
    "label_stands",
]
