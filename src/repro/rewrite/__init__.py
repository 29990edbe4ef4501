"""Semantics-preserving rewrite layer (tentpole of the rewrite tasks).

``repro.rewrite.catalog`` holds the transform catalog — eight families
of execution-validated, semantics-preserving rewrites built on the
generic :mod:`repro.sql.transform` primitives — and
``repro.rewrite.pairs`` holds :class:`RewritePairs`, the recipe by which
the shared verified-pair generator
(:func:`repro.equivalence.pairs.iter_verified_pairs`) turns workload
queries into labeled original/rewritten pairs (multi-step chains as
hard positives, counter-transforms as hard negatives) for the
``rewrite_equivalence`` and ``rewrite_speedup`` tasks.
"""

from repro.rewrite.catalog import (
    CATALOG,
    REWRITE_FAMILIES,
    RewriteChain,
    RewriteStep,
    RewriteTransform,
    apply_rewrite,
    apply_rewrite_chain,
    catalog_fingerprint,
    transforms_for,
)
from repro.rewrite.pairs import RewritePairs

__all__ = [
    "CATALOG",
    "REWRITE_FAMILIES",
    "RewriteChain",
    "RewritePairs",
    "RewriteStep",
    "RewriteTransform",
    "apply_rewrite",
    "apply_rewrite_chain",
    "catalog_fingerprint",
    "transforms_for",
]
