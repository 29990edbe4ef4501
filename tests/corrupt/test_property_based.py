"""Property-based corruption tests over real workload queries.

Hypothesis samples workload queries and corruption seeds; the invariants
must hold for every combination:

* injected syntax errors are always detected with the intended code;
* token removal always shortens the text and records a valid position;
* neither corruption ever mutates its input.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import SemanticAnalyzer
from repro.corrupt import inject_syntax_error, remove_token
from repro.sql.lexer import word_count
from repro.sql.parser import try_parse
from repro.workloads import load_workload

_WORKLOADS = {
    name: load_workload(name, seed=0)
    for name in ("sdss", "sqlshare", "join_order")
}
_QUERIES = [
    (name, query)
    for name, workload in _WORKLOADS.items()
    for query in workload.select_queries()
]
_ANALYZERS = {
    (name, schema_name): SemanticAnalyzer(workload.schemas[schema_name])
    for name, workload in _WORKLOADS.items()
    for schema_name in workload.schemas
}

query_indexes = st.integers(min_value=0, max_value=len(_QUERIES) - 1)
seeds = st.integers(min_value=0, max_value=10_000)


@given(query_indexes, seeds)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_injected_errors_always_detected(index, seed):
    workload_name, query = _QUERIES[index]
    schema = _WORKLOADS[workload_name].schema_for(query)
    corruption = inject_syntax_error(query.statement, schema, random.Random(seed))
    if corruption is None:
        return
    assert corruption.text != corruption.original_text
    mutated = try_parse(corruption.text)
    assert mutated is not None, corruption.text
    analyzer = _ANALYZERS[(workload_name, query.schema_name)]
    codes = {v.code for v in analyzer.analyze(mutated)}
    assert corruption.name in codes, (corruption.text, codes)


@given(query_indexes, seeds)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_token_removal_invariants(index, seed):
    _, query = _QUERIES[index]
    removal = remove_token(query.text, random.Random(seed))
    if removal is None:
        return
    assert len(removal.text) < len(query.text)
    assert removal.original_text == query.text
    assert 0 <= removal.position < word_count(query.text)
    # Removal drops at most one token — but a quoted value literal like
    # 'video game' is a single token spanning several whitespace-
    # separated words, so bound the drop by the token's own word count.
    removed_words = max(1, len(removal.removed.split()))
    assert word_count(removal.text) >= word_count(query.text) - removed_words


@given(query_indexes, seeds)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_corruption_does_not_mutate_input(index, seed):
    workload_name, query = _QUERIES[index]
    schema = _WORKLOADS[workload_name].schema_for(query)
    before = query.text
    statement_repr = str(query.statement)
    inject_syntax_error(query.statement, schema, random.Random(seed))
    remove_token(query.text, random.Random(seed))
    assert query.text == before
    assert str(query.statement) == statement_repr
