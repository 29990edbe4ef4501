"""Quickstart: the full pipeline on a single query.

Parses a query, measures it, injects a syntax error, asks a simulated
model about it through the paper's prompt, and extracts the label from
the verbose response.

Run:  python examples/quickstart.py
"""

import random

from repro.analysis import SemanticAnalyzer
from repro.corrupt import inject_syntax_error
from repro.llm import SimulatedLLM
from repro.parsing import extract_label, extract_yes_no
from repro.prompts import prompt_for
from repro.schema import SDSS_SCHEMA
from repro.sql import extract_properties, parse_statement, render

QUERY = (
    "SELECT s.plate, s.mjd, s.z FROM SpecObj AS s "
    "JOIN PhotoObj AS p ON s.bestobjid = p.objid "
    "WHERE s.z > 0.5 AND p.ra BETWEEN 100 AND 200"
)


def main() -> None:
    # 1. Parse and measure (paper section 2.1 properties).
    statement = parse_statement(QUERY)
    props = extract_properties(QUERY)
    print("query:", render(statement))
    print(
        f"properties: words={props.word_count} tables={props.table_count} "
        f"joins={props.join_count} predicates={props.predicate_count} "
        f"nestedness={props.nestedness}"
    )

    # 2. Verify it is clean, then inject a labeled error (section 3.2).
    analyzer = SemanticAnalyzer(SDSS_SCHEMA)
    assert analyzer.is_clean(statement)
    corruption = inject_syntax_error(statement, SDSS_SCHEMA, random.Random(7))
    print(f"\ninjected error: {corruption.name} ({corruption.detail})")
    print("corrupted:", corruption.text)
    detected = {v.code for v in analyzer.analyze_sql(corruption.text)}
    print("analyzer ground truth:", sorted(detected))

    # 3. Ask a model using the paper's tuned prompt (section 3.4).
    template = prompt_for("syntax_error")
    print("\nprompt:", template.render(query=corruption.text)[:120], "...")
    model = SimulatedLLM("gpt4")
    response = model.answer_syntax_error(
        "quickstart-1",
        corruption.text,
        "sdss",
        props,
        truth_has_error=True,
        truth_error_type=corruption.name,
    )
    print(f"\n{model.display_name} says: {response.text}")

    # 4. Post-process the verbose response into labels.
    says_error = extract_yes_no(response.text)
    claimed = extract_label(response.text, list(detected) + ["aggr-attr"])
    print(f"\nextracted: has_error={says_error} type={claimed}")
    verdict = "correct" if says_error and claimed == corruption.name else "wrong"
    print("model was", verdict)


if __name__ == "__main__":
    main()
