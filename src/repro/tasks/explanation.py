"""query_exp task (sections 3.1.3, 4.5).

Spider-only and qualitative in the paper: model explanations are compared
against gold descriptions.  The reproduction scores explanations with a
token-overlap F1 (for aggregate trends) and keeps the per-response flaw
annotations for the section 4.5 case study.
"""

from __future__ import annotations

import re

from repro.tasks.base import QUERY_EXP, ModelAnswer, TaskInstance

_STOPWORDS = frozenset(
    "the a an of for in on to and or with from where by is are that "
    "this find show list each every".split()
)


def iter_query_exp_instances(source):
    """Yield query_exp instances lazily, one per query.

    Each instance carries the query's gold description.  ``source`` is
    a :class:`~repro.workloads.base.Workload` or ``WorkloadStream``.
    """
    for query in source:
        yield TaskInstance(
            instance_id=f"{query.query_id}-exp",
            task=QUERY_EXP,
            workload=source.name,
            schema_name=query.schema_name,
            payload={"query": query.text},
            gold_text=query.description,
            source_query_id=query.query_id,
            props=query.properties,
        )


def parse_query_exp_response(
    instance: TaskInstance,
    text: str,
    model_name: str,
    flaws: tuple[str, ...] = (),
) -> ModelAnswer:
    """Wrap an explanation response; ``flaws`` is simulator provenance.

    Real backends carry no flaw annotations — their explanations are
    scored purely by token overlap against the gold description.
    """
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        explanation=text,
        flaws=tuple(flaws),
    )


def _tokens(text: str) -> set[str]:
    words = re.findall(r"[a-z0-9_]+", text.lower())
    return {w for w in words if w not in _STOPWORDS and len(w) > 1}


def explanation_overlap_f1(gold: str, explanation: str) -> float:
    """Token-overlap F1 between gold description and model explanation.

    A crude but monotone proxy for explanation fidelity: detail-dropping
    lowers recall, hallucinated content lowers precision.
    """
    gold_tokens = _tokens(gold)
    pred_tokens = _tokens(explanation)
    if not gold_tokens or not pred_tokens:
        return 0.0
    overlap = len(gold_tokens & pred_tokens)
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)
