"""Synthetic workload family: complexity-stratified query generation.

The paper's four fixed workloads cap how far accuracy-vs-complexity
analysis can go; this package removes the cap with a seeded,
grammar-driven generator that emits valid ASTs directly against any
registered schema, stratified by a :class:`ComplexityProfile` (join
count, nesting depth, aggregation, set operators, predicate width) and
able to produce thousands of deterministic instances per stratum.

Synthetic workloads are addressed by *spec* strings —
``synthetic:default``, ``synthetic:joins:n=1000``,
``synthetic:default:strata=join2+nest3`` — resolved through
``repro.workloads.load_workload`` like any other workload name, so the
whole stack (task builders, chunked engine, caches, reporting, CLI)
consumes them unchanged.  See ``docs/WORKLOADS.md``.
"""

from repro.workloads.synthetic.generator import (
    SCHEMA_SOURCES,
    build_schema,
    generate_synthetic,
)
from repro.workloads.synthetic.profiles import (
    DEFAULT_INSTANCES_PER_STRATUM,
    PROFILES,
    REWRITE_PROFILE,
    SYNTHETIC_FAMILY,
    ComplexityProfile,
    Stratum,
    SyntheticSpec,
    is_rewrite_workload,
    is_synthetic,
    parse_spec,
    rewrite_families_of,
    stratum_of_query_id,
)

__all__ = [
    "SYNTHETIC_FAMILY",
    "DEFAULT_INSTANCES_PER_STRATUM",
    "PROFILES",
    "REWRITE_PROFILE",
    "SCHEMA_SOURCES",
    "ComplexityProfile",
    "Stratum",
    "SyntheticSpec",
    "build_schema",
    "generate_synthetic",
    "is_rewrite_workload",
    "is_synthetic",
    "parse_spec",
    "rewrite_families_of",
    "stratum_of_query_id",
]
