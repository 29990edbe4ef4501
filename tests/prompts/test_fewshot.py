"""Few-shot prompting and dynamic tuning tests (paper section 6 extensions)."""

import pytest

from repro.llm import SimulatedLLM
from repro.parsing import extract_yes_no
from repro.prompts import (
    build_few_shot_prompt,
    dynamic_prompt_table,
    format_example,
    prompt_for,
)
from repro.tasks import build_dataset
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def sdss_dataset():
    return build_dataset("syntax_error", load_workload("sdss", seed=0), seed=0)


class TestFewShotPrompt:
    def test_examples_embedded_in_prompt(self, sdss_dataset):
        prompt = build_few_shot_prompt(
            "syntax_error", sdss_dataset.instances[:3], shots=3
        )
        rendered = prompt.render(query="SELECT 1")
        assert rendered.count("Example") == 3
        assert rendered.endswith("SELECT 1")

    def test_quality_bonus_saturates(self, sdss_dataset):
        base = prompt_for("syntax_error")
        one = build_few_shot_prompt("syntax_error", sdss_dataset.instances, shots=1)
        three = build_few_shot_prompt("syntax_error", sdss_dataset.instances, shots=3)
        eight = build_few_shot_prompt("syntax_error", sdss_dataset.instances, shots=8)
        assert base.quality < one.quality < three.quality
        assert eight.quality - three.quality <= 0.03  # diminishing returns

    def test_name_encodes_shots(self, sdss_dataset):
        prompt = build_few_shot_prompt("syntax_error", sdss_dataset.instances, shots=2)
        assert prompt.name == "tuned+2shot"

    def test_zero_shots_rejected(self, sdss_dataset):
        with pytest.raises(ValueError):
            build_few_shot_prompt("syntax_error", sdss_dataset.instances, shots=0)

    def test_empty_exemplars_rejected(self):
        with pytest.raises(ValueError):
            build_few_shot_prompt("syntax_error", [], shots=3)

    def test_format_example_carries_label(self, sdss_dataset):
        positive = sdss_dataset.positives[0]
        text = format_example(positive)
        assert positive.label_type in text
        negative = sdss_dataset.negatives[0]
        assert "no error" in format_example(negative)

    def test_few_shot_improves_weak_model(self, sdss_dataset):
        """The paper's section 6 expectation, made measurable."""
        model = SimulatedLLM("gemini")
        exemplars = sdss_dataset.instances[:3]
        prompt = build_few_shot_prompt("syntax_error", exemplars, shots=3)
        held_out = [i for i in sdss_dataset.positives[3:]][:150]

        def recall(quality):
            hits = 0
            for instance in held_out:
                response = model.answer_syntax_error(
                    f"fs-{instance.instance_id}",
                    instance.payload["query"],
                    "sdss",
                    instance.props,
                    truth_has_error=True,
                    truth_error_type=instance.label_type,
                    prompt_quality=quality,
                )
                if extract_yes_no(response.text):
                    hits += 1
            return hits / len(held_out)

        zero_shot = recall(prompt_for("syntax_error").quality)
        few_shot = recall(prompt.quality)
        assert few_shot > zero_shot


    def test_engine_answers_a_few_shot_cell(self, sdss_dataset):
        """A few-shot prompt takes the grid's route and gets its own cache key."""
        from repro.engine.cache import prompt_fingerprint
        from repro.evalfw.runner import ExperimentRunner

        prompt = build_few_shot_prompt(
            "syntax_error", sdss_dataset.instances[:3], shots=3
        )
        cell = ExperimentRunner(seed=0, max_instances=10).run_cell(
            "gemini", "syntax_error", "sdss", prompt
        )
        assert len(cell.answers) == 10
        assert prompt_fingerprint("syntax_error", prompt) != prompt_fingerprint(
            "syntax_error", None
        )


class TestDynamicTuning:
    def test_per_workload_selection(self):
        def run_trial(variant, instance):
            # Pretend the terse prompt works better on short queries.
            workload, length = instance
            if workload == "short" and variant.name == "terse":
                return 1.0
            return variant.quality * 0.9

        table = dynamic_prompt_table(
            "syntax_error",
            {"short": [("short", 5)] * 4, "long": [("long", 100)] * 4},
            run_trial,
        )
        assert table["short"].name == "terse"
        assert table["long"].name == "tuned"

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            dynamic_prompt_table("syntax_error", {}, lambda v, i: 1.0)
