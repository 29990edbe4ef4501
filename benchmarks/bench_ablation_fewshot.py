"""Ablation: zero-shot vs few-shot prompting (paper section 6).

The paper evaluates zero-shot only and conjectures that few-shot
prompting would mitigate the weaker models' limitations.  This ablation
measures it: recall of every model on SDSS syntax_error under the tuned
zero-shot prompt vs a 3-shot prompt built from held-out exemplars.
"""

from repro.evalfw.metrics import binary_metrics
from repro.evalfw.report import render_table
from repro.llm.profiles import MODEL_PROFILES
from repro.prompts import build_few_shot_prompt, prompt_for


def _evaluate(engine, prompt):
    dataset = engine.dataset("syntax_error", "sdss")
    exemplar_ids = {i.instance_id for i in dataset.instances[:3]}
    rows = []
    for profile in MODEL_PROFILES:
        cell = engine.run_cell(profile.name, "syntax_error", "sdss", prompt)
        held_out = [
            (instance, answer)
            for instance, answer in zip(cell.dataset.instances, cell.answers)
            if instance.instance_id not in exemplar_ids
        ]
        metrics = binary_metrics(
            [bool(i.label) for i, _ in held_out], [a.predicted for _, a in held_out]
        )
        rows.append((profile.display_name, metrics))
    return rows


def run_ablation(engine):
    dataset = engine.dataset("syntax_error", "sdss")
    few_shot = build_few_shot_prompt("syntax_error", dataset.instances[:3], shots=3)
    zero_rows = _evaluate(engine, prompt_for("syntax_error"))
    few_rows = _evaluate(engine, few_shot)
    merged = []
    for (model, zero), (_, few) in zip(zero_rows, few_rows):
        merged.append(
            {
                "Model": model,
                "zero-shot Rec": zero.recall,
                "3-shot Rec": few.recall,
                "delta": round(few.recall - zero.recall, 4),
                "zero-shot F1": zero.f1,
                "3-shot F1": few.f1,
            }
        )
    return merged


def test_ablation_fewshot(benchmark, engine, save_report):
    rows = benchmark.pedantic(run_ablation, args=(engine,), rounds=1, iterations=1)
    text = render_table(rows, "Ablation: zero-shot vs 3-shot (syntax_error, SDSS)")
    save_report("ablation_fewshot", text)
    by_model = {row["Model"]: row for row in rows}
    # Few-shot helps the weaker models most (section 6's conjecture).
    assert by_model["Gemini"]["delta"] > 0
    assert by_model["Llama3"]["delta"] > 0
    # GPT4 is near-saturated; its delta is small.
    assert by_model["GPT4"]["delta"] < by_model["Gemini"]["delta"] + 0.05
