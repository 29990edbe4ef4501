"""performance_pred task (sections 3.1-3.2, 4.3).

Only SDSS carries runtime ground truth; queries above 200 ms form the
positive (costly) class.
"""

from __future__ import annotations

from repro.parsing import extract_yes_no
from repro.perf.cost_model import is_high_cost
from repro.tasks.base import PERFORMANCE_PRED, ModelAnswer, TaskInstance


def iter_performance_instances(source):
    """Yield performance_pred instances lazily, one per logged query.

    Each query is labelled costly (>200 ms) or cheap.  ``source`` is a
    :class:`~repro.workloads.base.Workload` or ``WorkloadStream``.
    """
    for query in source:
        if query.elapsed_ms is None:
            continue
        yield TaskInstance(
            instance_id=f"{query.query_id}-perf",
            task=PERFORMANCE_PRED,
            workload=source.name,
            schema_name=query.schema_name,
            payload={"query": query.text},
            label=is_high_cost(query.elapsed_ms),
            source_query_id=query.query_id,
            props=query.properties,
            detail=f"elapsed_ms={query.elapsed_ms}",
        )


def parse_performance_pred_response(
    instance: TaskInstance, text: str, model_name: str
) -> ModelAnswer:
    """Extract the costly/cheap judgement from one response text."""
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        predicted=extract_yes_no(text),
    )
