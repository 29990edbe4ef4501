"""query_equiv and query_equiv_type tasks (sections 3.1-3.2, 4.4)."""

from __future__ import annotations

from typing import Optional

from repro.equivalence.counter_transforms import NON_EQUIVALENCE_TYPES
from repro.equivalence.pairs import iter_equivalence_pairs
from repro.equivalence.transforms import EQUIVALENCE_TYPES
from repro.llm.simulated import SimulatedLLM
from repro.parsing import extract_equivalence, extract_label
from repro.prompts.templates import QUERY_EQUIV as PROMPT_KEY
from repro.prompts.templates import PromptTemplate, prompt_for
from repro.tasks.base import QUERY_EQUIV, ModelAnswer, TaskDataset, TaskInstance
from repro.workloads.base import Workload

ALL_PAIR_TYPES: tuple[str, ...] = EQUIVALENCE_TYPES + NON_EQUIVALENCE_TYPES


def iter_query_equiv_instances(
    source,
    seed: int = 0,
    max_pairs: Optional[int] = None,
    verify: bool = True,
):
    """Yield query_equiv instances lazily from the sequential pair stream.

    ``source`` is a :class:`Workload` or ``WorkloadStream``; both the
    materialised builder and the streaming engine consume this
    generator, so their instances are identical by construction.
    """
    for pair in iter_equivalence_pairs(
        source, seed=seed, max_pairs=max_pairs, verify=verify
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


def build_query_equiv_dataset(
    workload: Workload,
    seed: int = 0,
    max_pairs: Optional[int] = None,
    verify: bool = True,
) -> TaskDataset:
    """Build the labeled pair dataset via verified transforms."""
    dataset = TaskDataset(task=QUERY_EQUIV, workload=workload.name)
    dataset.instances.extend(
        iter_query_equiv_instances(
            workload, seed=seed, max_pairs=max_pairs, verify=verify
        )
    )
    return dataset


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


def ask_query_equiv(
    model: SimulatedLLM,
    instance: TaskInstance,
    prompt: Optional[PromptTemplate] = None,
) -> ModelAnswer:
    """Prompt the model with both queries and post-process the response."""
    template = prompt or prompt_for(PROMPT_KEY)
    response = model.answer_equivalence(
        instance.instance_id,
        instance.payload["query_1"],
        instance.payload["query_2"],
        instance.workload,
        instance.props,
        truth_equivalent=bool(instance.label),
        truth_pair_type=instance.label_type,
        prompt_quality=template.quality,
    )
    return parse_query_equiv_response(instance, response.text, model.name)
