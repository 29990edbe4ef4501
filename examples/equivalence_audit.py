"""Equivalence audit: build verified query pairs and probe a model.

Shows the query_equiv pipeline end to end: transform-based pair
generation, execution-based label verification on live SQLite instances,
and a model audit revealing the value-change blind spot the paper
documents in section 4.4.

Run:  python examples/equivalence_audit.py
"""

from collections import Counter

from repro.equivalence import EquivalenceChecker, QueryEquivPairs, iter_verified_pairs
from repro.llm import SimulatedLLM
from repro.parsing import extract_equivalence
from repro.sql import extract_properties
from repro.workloads import load_workload


def main() -> None:
    workload = load_workload("sqlshare", seed=0)
    pairs = list(iter_verified_pairs(workload, QueryEquivPairs(), seed=0, max_pairs=60))
    balance = Counter("equivalent" if p.equivalent else "non-equivalent" for p in pairs)
    print(f"built {len(pairs)} verified pairs: {dict(balance)}")

    sample = pairs[0]
    print("\nexample pair ({}):".format(sample.pair_type))
    print("  Q1:", sample.first_text[:100])
    print("  Q2:", sample.second_text[:100])
    print("  equivalent:", sample.equivalent)

    # Independent re-verification on fresh instances.
    checker = EquivalenceChecker(
        workload.schemas[sample.schema_name], seeds=(400, 401)
    )
    print("  re-checked on fresh instances:", checker.verdict(
        sample.first_text, sample.second_text
    ))
    checker.close()

    # Audit a model: where is it fooled?
    model = SimulatedLLM("gemini")
    fooled = Counter()
    seen = Counter()
    for pair in pairs:
        props = extract_properties(pair.first_text)
        response = model.answer_equivalence(
            pair.pair_id,
            pair.first_text,
            pair.second_text,
            workload.name,
            props,
            truth_equivalent=pair.equivalent,
            truth_pair_type=pair.pair_type,
        )
        judged = extract_equivalence(response.text)
        if not pair.equivalent:
            seen[pair.pair_type] += 1
            if judged:
                fooled[pair.pair_type] += 1
    print(f"\n{model.display_name} on non-equivalent pairs (fooled / seen):")
    for pair_type, count in seen.most_common():
        print(f"  {pair_type:25s} {fooled.get(pair_type, 0)}/{count}")
    print(
        "\nModified conditions (value/logical changes) are the dominant "
        "blind spot — the paper's section 4.4 finding."
    )


if __name__ == "__main__":
    main()
