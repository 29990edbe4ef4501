"""syntax_error and syntax_error_type tasks (sections 3.1.1, 3.2, 4.1)."""

from __future__ import annotations

from repro.corrupt.structural import STRUCTURAL_TYPES, inject_structural_error
from repro.corrupt.syntax_errors import ERROR_TYPES, inject_syntax_error
from repro.parsing import extract_label, extract_yes_no
from repro.tasks.base import SYNTAX_ERROR, ModelAnswer, TaskInstance
from repro.util import derive_rng

#: Share of instances left uncorrupted ("error-free" class, section 3.2).
ERROR_FREE_FRACTION = 0.3

#: Per-workload injection weights: SQLShare's many small schemas make
#: alias errors endemic (Figure 7b shows them dominating FNs there).
TYPE_WEIGHTS: dict[str, dict[str, float]] = {
    "sqlshare": {"alias-ambiguous": 3.0, "alias-undefined": 1.5},
}

#: Share of *corrupted* synthetic instances carrying a structural error
#: (clause-order / dangling-alias / paren-imbalance) instead of one of
#: the paper's six semantic types.  The paper workloads keep their exact
#: historical generation — structural corruption only applies where
#: AST-level generation guarantees clean inputs (the synthetic family).
STRUCTURAL_FRACTION = 0.3

#: Every error-type label a response may carry (semantic + structural).
ALL_ERROR_TYPES: tuple[str, ...] = ERROR_TYPES + STRUCTURAL_TYPES


def iter_syntax_error_instances(source, seed: int = 0):
    """Yield syntax_error instances lazily, one per parseable query.

    A random ~70% of queries get one injected error; the rest stay
    clean.  The error type for each corrupted query is drawn uniformly
    from the types applicable to that query, mirroring the paper's
    generation.  Synthetic workloads additionally devote
    ``STRUCTURAL_FRACTION`` of their corrupted instances to the
    structural error classes.

    ``source`` is a :class:`~repro.workloads.base.Workload` or
    :class:`~repro.workloads.streaming.WorkloadStream` — anything with
    ``name``, ``schema_for`` and query iteration.
    """
    from repro.workloads.synthetic import is_synthetic

    structural_eligible = is_synthetic(source.name)
    for query in source:
        statement = query.statement
        if statement is None:
            continue
        rng = derive_rng("syntax-error-dataset", seed, query.query_id)
        make_error = rng.random() >= ERROR_FREE_FRACTION
        corruption = None
        if make_error:
            if structural_eligible and rng.random() < STRUCTURAL_FRACTION:
                corruption = inject_structural_error(statement, rng)
            if corruption is None:
                corruption = inject_syntax_error(
                    statement,
                    source.schema_for(query),
                    rng,
                    type_weights=TYPE_WEIGHTS.get(source.name),
                )
        if corruption is not None:
            yield TaskInstance(
                instance_id=f"{query.query_id}-syn",
                task=SYNTAX_ERROR,
                workload=source.name,
                schema_name=query.schema_name,
                payload={"query": corruption.text},
                label=True,
                label_type=corruption.error_type,
                source_query_id=query.query_id,
                props=query.properties,
                detail=corruption.detail,
            )
        else:
            yield TaskInstance(
                instance_id=f"{query.query_id}-syn",
                task=SYNTAX_ERROR,
                workload=source.name,
                schema_name=query.schema_name,
                payload={"query": query.text},
                label=False,
                label_type=None,
                source_query_id=query.query_id,
                props=query.properties,
            )


def parse_syntax_error_response(
    instance: TaskInstance, text: str, model_name: str
) -> ModelAnswer:
    """Extract the syntax_error labels from one verbose response text.

    Shared by every backend: predictions only ever come from parsing
    the response text, never from transport metadata.
    """
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        predicted=extract_yes_no(text),
        predicted_type=extract_label(text, ALL_ERROR_TYPES),
    )
