"""miss_token, miss_token_type and miss_token_loc tasks (sections 3.1-3.2, 4.2)."""

from __future__ import annotations

from repro.corrupt.missing_tokens import TOKEN_TYPES, remove_token
from repro.parsing import extract_label, extract_position, extract_yes_no
from repro.tasks.base import MISS_TOKEN, ModelAnswer, TaskInstance
from repro.util import derive_rng

#: Share of instances left intact (the negative class).
INTACT_FRACTION = 0.3


def iter_miss_token_instances(source, seed: int = 0):
    """Yield miss_token instances lazily, one per query.

    One token is removed from a random ~70% of queries; the rest stay
    intact.  ``source`` is a :class:`~repro.workloads.base.Workload` or
    ``WorkloadStream``.
    """
    for query in source:
        rng = derive_rng("miss-token-dataset", seed, query.query_id)
        corrupt = rng.random() >= INTACT_FRACTION
        removal = remove_token(query.text, rng) if corrupt else None
        if removal is not None:
            yield TaskInstance(
                instance_id=f"{query.query_id}-tok",
                task=MISS_TOKEN,
                workload=source.name,
                schema_name=query.schema_name,
                payload={"query": removal.text},
                label=True,
                label_type=removal.token_type,
                position=removal.position,
                removed_token=removal.removed,
                source_query_id=query.query_id,
                props=query.properties,
            )
        else:
            yield TaskInstance(
                instance_id=f"{query.query_id}-tok",
                task=MISS_TOKEN,
                workload=source.name,
                schema_name=query.schema_name,
                payload={"query": query.text},
                label=False,
                source_query_id=query.query_id,
                props=query.properties,
            )


def parse_miss_token_response(
    instance: TaskInstance, text: str, model_name: str
) -> ModelAnswer:
    """Extract the compound miss_token labels from one response text."""
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        predicted=extract_yes_no(text),
        predicted_type=extract_label(text, TOKEN_TYPES),
        predicted_position=extract_position(text),
    )
