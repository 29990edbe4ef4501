"""Property-based equivalence-transform verification.

Hypothesis samples (query, transform seed) combinations from the SDSS
and SQLShare workloads; every applied equivalence transform must survive
execution-based verification on live instances.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.equivalence import EquivalenceChecker, apply_equivalence_transform
from repro.sql import nodes as n
from repro.workloads import load_workload

_WORKLOADS = {name: load_workload(name, seed=0) for name in ("sdss", "sqlshare")}


def _eligible(query):
    statement = query.statement
    if statement is None or not isinstance(statement, n.SelectStatement):
        return False
    body = statement.query.body
    if isinstance(body, n.SelectCore):
        return body.top is None and body.limit is None
    return True


_QUERIES = [
    (name, query)
    for name, workload in _WORKLOADS.items()
    for query in workload.select_queries()
    if _eligible(query)
]

_CHECKERS: dict[str, EquivalenceChecker] = {}


def _checker(workload_name, schema_name) -> EquivalenceChecker:
    key = f"{workload_name}/{schema_name}"
    if key not in _CHECKERS:
        _CHECKERS[key] = EquivalenceChecker(
            _WORKLOADS[workload_name].schemas[schema_name], rows_per_table=40
        )
    return _CHECKERS[key]


@pytest.fixture(scope="module", autouse=True)
def _close_checkers():
    yield
    for checker in _CHECKERS.values():
        checker.close()
    _CHECKERS.clear()


@given(
    st.integers(min_value=0, max_value=len(_QUERIES) - 1),
    st.integers(min_value=0, max_value=5_000),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_equivalence_transforms_survive_execution(index, seed):
    workload_name, query = _QUERIES[index]
    schema = _WORKLOADS[workload_name].schema_for(query)
    rewrite = apply_equivalence_transform(
        query.statement, schema, random.Random(seed)
    )
    if rewrite is None:
        return
    verdict = _checker(workload_name, query.schema_name).verdict(
        rewrite.original_text, rewrite.text
    )
    # None = execution failure (e.g. budget); anything decidable must agree.
    assert verdict is not False, (
        rewrite.name,
        rewrite.original_text,
        rewrite.text,
    )
