"""Task registry: dataset builds and the request/parse plumbing around
a model backend, keyed by task name.

Every answer takes one route: :func:`build_request` renders an instance
into a :class:`ModelRequest`, a backend completes it, and
:func:`parse_answer` extracts a :class:`ModelAnswer` from the response
text.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.llm.backends.base import ModelRequest
from repro.llm.base import LLMResponse
from repro.prompts.templates import PromptTemplate, prompt_for
from repro.tasks.base import (
    MISS_TOKEN,
    PERFORMANCE_PRED,
    PRIMARY_TASKS,
    QUERY_EQUIV,
    QUERY_EXP,
    REWRITE_EQUIVALENCE,
    REWRITE_SPEEDUP,
    REWRITE_TASKS,
    SYNTAX_ERROR,
    ModelAnswer,
    TaskDataset,
    TaskInstance,
)
from repro.tasks.equivalence import parse_query_equiv_response
from repro.tasks.explanation import parse_query_exp_response
from repro.tasks.miss_token import parse_miss_token_response
from repro.tasks.performance import parse_performance_pred_response
from repro.tasks.rewrite import (
    parse_rewrite_equivalence_response,
    parse_rewrite_speedup_response,
)
from repro.tasks.streaming import iter_task_instances
from repro.tasks.syntax_error import parse_syntax_error_response
from repro.workloads.base import Workload

#: Which workloads each task evaluates on (Table 2 usage note + section 3.2).
TASK_WORKLOADS: dict[str, tuple[str, ...]] = {
    SYNTAX_ERROR: ("sdss", "sqlshare", "join_order"),
    MISS_TOKEN: ("sdss", "sqlshare", "join_order"),
    QUERY_EQUIV: ("sdss", "sqlshare", "join_order"),
    PERFORMANCE_PRED: ("sdss",),
    QUERY_EXP: ("spider",),
}


def tasks_for_workload(workload_name: str) -> tuple[str, ...]:
    """The tasks a workload carries ground truth for.

    Paper workloads follow the Table 2 usage note (inverted from
    ``TASK_WORKLOADS``); synthetic workloads support all five primary
    tasks — generated queries carry elapsed-time labels and gold
    descriptions in addition to being corruptible and pairable — and
    ``synthetic:rewrite`` workloads additionally carry the two rewrite
    tasks.  The CLI's ``run --workload`` grid mode uses this to avoid
    building datasets that would come out empty.
    """
    from repro.workloads.synthetic import is_rewrite_workload, is_synthetic

    if is_rewrite_workload(workload_name):
        return PRIMARY_TASKS + REWRITE_TASKS
    if is_synthetic(workload_name):
        return PRIMARY_TASKS
    return tuple(
        task
        for task in PRIMARY_TASKS
        if workload_name in TASK_WORKLOADS.get(task, ())
    )


def build_dataset(
    task: str, workload: Workload, seed: int = 0, max_instances: Optional[int] = None
) -> TaskDataset:
    """Build the labeled dataset for one (task, workload) cell.

    Drains :func:`~repro.tasks.streaming.iter_task_instances`, so a
    capped build stops its generator at the cap and the streamed path
    produces the same instances chunk by chunk.
    """
    return TaskDataset(
        task,
        workload.name,
        list(iter_task_instances(task, workload, seed, max_instances)),
    )


# -- backend plumbing (prompt rendering and response parsing) --------------

PARSE_FUNCTIONS: dict[str, Callable[..., ModelAnswer]] = {
    SYNTAX_ERROR: parse_syntax_error_response,
    MISS_TOKEN: parse_miss_token_response,
    QUERY_EQUIV: parse_query_equiv_response,
    PERFORMANCE_PRED: parse_performance_pred_response,
    QUERY_EXP: parse_query_exp_response,
    REWRITE_EQUIVALENCE: parse_rewrite_equivalence_response,
    REWRITE_SPEEDUP: parse_rewrite_speedup_response,
}


def build_request(
    task: str,
    model_name: str,
    instance: TaskInstance,
    prompt: Optional[PromptTemplate] = None,
) -> ModelRequest:
    """Render one instance into a backend-agnostic :class:`ModelRequest`.

    The rendered prompt text is exactly what a hosted backend sends over
    the wire; the instance rides along for backends that derive answers
    locally (the simulator's calibrated noise model).
    """
    if task not in PARSE_FUNCTIONS:
        raise KeyError(f"unknown task {task!r}")
    template = prompt or prompt_for(task)
    return ModelRequest(
        request_id=instance.instance_id,
        task=task,
        model=model_name,
        prompt_text=template.render(**instance.payload),
        prompt_quality=template.quality,
        instance=instance,
    )


def parse_answer(
    task: str, instance: TaskInstance, response: LLMResponse, model_name: str
) -> ModelAnswer:
    """Extract a :class:`ModelAnswer` from one backend response.

    Predictions come only from the response *text* (plus, for
    query_exp, the simulator's flaw provenance when present) — the same
    post-processing regardless of which backend produced the response.
    """
    try:
        parser = PARSE_FUNCTIONS[task]
    except KeyError:
        raise KeyError(f"unknown task {task!r}") from None
    if task == QUERY_EXP:
        return parser(
            instance,
            response.text,
            model_name,
            flaws=tuple(response.metadata.get("flaws", ())),
        )
    return parser(instance, response.text, model_name)


def answers_from_responses(
    task: str,
    instances: Sequence[TaskInstance],
    responses: Sequence[LLMResponse],
    model_name: str,
) -> list[ModelAnswer]:
    """Parse a whole dispatched batch, aligned index-for-index."""
    if len(instances) != len(responses):
        raise ValueError(
            f"{len(instances)} instances but {len(responses)} responses"
        )
    return [
        parse_answer(task, instance, response, model_name)
        for instance, response in zip(instances, responses)
    ]
