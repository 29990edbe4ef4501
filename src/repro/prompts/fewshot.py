"""Few-shot prompting (paper section 3.4 / future work, section 6).

The paper evaluates zero-shot only but names few-shot learning and
dynamic prompt adjustment as the next steps expected to "significantly
mitigate current limitations".  This module implements both:

* :func:`build_few_shot_prompt` prepends *k* labeled exemplars to a task
  prompt.  Example quality transfers to the model through an effective
  prompt-quality bonus (capped), so few-shot runs measurably improve the
  weaker models — the paper's stated expectation, testable via the
  ``bench_ablation_fewshot`` benchmark;
* :func:`dynamic_prompt_table` picks the best prompt variant *per
  workload* via mock experiments (the "dynamic prompt tuning" of
  section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.prompts.templates import PromptTemplate, prompt_for, variants_for
from repro.prompts.tuning import tune_prompt

if TYPE_CHECKING:  # avoid a tasks<->prompts import cycle at runtime
    from repro.tasks.base import TaskInstance

#: Accuracy bonus per exemplar, with diminishing returns and a hard cap.
_PER_EXAMPLE_BONUS = 0.02
_MAX_BONUS = 0.08


@dataclass(frozen=True)
class FewShotPrompt:
    """A task prompt carrying k worked examples."""

    base: PromptTemplate
    examples: tuple[str, ...]

    @property
    def task(self) -> str:
        return self.base.task

    @property
    def name(self) -> str:
        return f"{self.base.name}+{len(self.examples)}shot"

    @property
    def quality(self) -> float:
        """Effective quality: the base prompt plus the exemplar bonus.

        Bonus saturates at ``_MAX_BONUS`` — consistent with the common
        finding that the first few shots carry most of the gain.
        """
        bonus = min(len(self.examples) * _PER_EXAMPLE_BONUS, _MAX_BONUS)
        return min(self.base.quality + bonus, 1.1)

    @property
    def text(self) -> str:
        """The unrendered prompt, which cache keys fingerprint."""
        return self._with_examples(self.base.text)

    def render(self, **payload: str) -> str:
        return self._with_examples(self.base.render(**payload))

    def _with_examples(self, body: str) -> str:
        blocks = ["Here are solved examples:"]
        for index, example in enumerate(self.examples, start=1):
            blocks.append(f"Example {index}: {example}")
        blocks.append(body)
        return "\n".join(blocks)


def format_example(instance: "TaskInstance") -> str:
    """One exemplar line built from a labeled instance."""
    if instance.task == "syntax_error":
        verdict = (
            f"yes, a {instance.label_type} error" if instance.label else "no error"
        )
        return f"Query: {instance.payload['query']} -> {verdict}"
    if instance.task == "miss_token":
        if instance.label:
            verdict = (
                f"yes, a missing {instance.label_type} at word position "
                f"{instance.position}"
            )
        else:
            verdict = "nothing missing"
        return f"Query: {instance.payload['query']} -> {verdict}"
    if instance.task == "query_equiv":
        verdict = "equivalent" if instance.label else "not equivalent"
        return (
            f"Q1: {instance.payload['query_1']} / Q2: "
            f"{instance.payload['query_2']} -> {verdict}"
        )
    if instance.task == "performance_pred":
        verdict = "slow" if instance.label else "fast"
        return f"Query: {instance.payload['query']} -> {verdict}"
    return f"Query: {instance.payload.get('query', '')} -> {instance.gold_text}"


def build_few_shot_prompt(
    task: str,
    exemplars: Sequence["TaskInstance"],
    shots: int = 3,
    base: PromptTemplate | None = None,
) -> FewShotPrompt:
    """Build a k-shot prompt from labeled exemplar instances.

    Exemplars should come from a *held-out* slice; the caller is
    responsible for not leaking evaluation instances.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    chosen = tuple(format_example(instance) for instance in exemplars[:shots])
    if not chosen:
        raise ValueError("need at least one exemplar instance")
    return FewShotPrompt(base=base or prompt_for(task), examples=chosen)


def dynamic_prompt_table(
    task: str,
    instances_by_workload: dict[str, Sequence[object]],
    run_trial: Callable,
) -> dict[str, PromptTemplate]:
    """Per-workload prompt selection (section 6 'dynamic prompt tuning').

    Runs the mock-experiment tuner once per workload and returns the
    winning variant for each, so heterogeneous workloads can use
    different phrasings.
    """
    table: dict[str, PromptTemplate] = {}
    for workload, instances in instances_by_workload.items():
        result = tune_prompt(task, list(instances), run_trial)
        table[workload] = result.best
    if not table:
        raise ValueError("no workloads supplied")
    # Sanity: every selected prompt must be a known variant.
    known = {variant.name for variant in variants_for(task)}
    for workload, template in table.items():
        if template.name not in known:
            raise RuntimeError(
                f"tuner returned unknown variant {template.name!r} for "
                f"{workload!r}"
            )
    return table
