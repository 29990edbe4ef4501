"""query_equiv and query_equiv_type tasks (sections 3.1-3.2, 4.4)."""

from __future__ import annotations

from typing import Optional

from repro.equivalence.counter_transforms import NON_EQUIVALENCE_TYPES
from repro.equivalence.pairs import QueryEquivPairs, iter_verified_pairs
from repro.equivalence.transforms import EQUIVALENCE_TYPES
from repro.parsing import extract_equivalence, extract_label
from repro.tasks.base import QUERY_EQUIV, ModelAnswer, TaskInstance

ALL_PAIR_TYPES: tuple[str, ...] = EQUIVALENCE_TYPES + NON_EQUIVALENCE_TYPES


def iter_query_equiv_instances(source, seed: int = 0, max_pairs: Optional[int] = None):
    """Yield query_equiv instances lazily from the sequential pair stream.

    Pairs come from verified equivalence and non-equivalence
    transforms.  ``source`` is a :class:`~repro.workloads.base.Workload`
    or ``WorkloadStream``.
    """
    for pair in iter_verified_pairs(
        source, QueryEquivPairs(), seed=seed, max_pairs=max_pairs
    ):
        yield TaskInstance(
            instance_id=pair.pair_id,
            task=QUERY_EQUIV,
            workload=source.name,
            schema_name=pair.schema_name,
            payload={"query_1": pair.first_text, "query_2": pair.second_text},
            label=pair.equivalent,
            label_type=pair.pair_type,
            source_query_id=pair.source_query_id,
            props=pair.first_props,
            detail=pair.detail,
        )


def parse_query_equiv_response(
    instance: TaskInstance, text: str, model_name: str
) -> ModelAnswer:
    """Extract the equivalence verdict and pair type from one response."""
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        predicted=extract_equivalence(text),
        predicted_type=extract_label(text, ALL_PAIR_TYPES),
    )
