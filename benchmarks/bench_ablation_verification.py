"""Ablation: execution-verified vs unverified equivalence labels.

The equivalence checker (:mod:`repro.equivalence`) verifies every pair
on live SQLite
instances.  This ablation builds the SDSS pair dataset with verification
off and measures how many unverified labels the checker would dispute —
the label noise the verification step removes.
"""

from repro.equivalence import (
    EquivalenceChecker,
    QueryEquivPairs,
    iter_verified_pairs,
    label_stands,
)
from repro.evalfw.report import render_table


def run_ablation(engine):
    workload = engine.workload("sdss")
    unverified = list(
        iter_verified_pairs(
            workload, QueryEquivPairs(), seed=0, max_pairs=80, verify=False
        )
    )
    checker = EquivalenceChecker(workload.schemas["sdss"], rows_per_table=60)
    disputed = 0
    undecidable = 0
    checked = 0
    try:
        for pair in unverified:
            verdict = checker.verdict(pair.first_text, pair.second_text)
            if verdict is None:
                undecidable += 1
                continue
            checked += 1
            if not label_stands(verdict, pair.equivalent, pair.pair_type):
                disputed += 1
    finally:
        checker.close()
    return [
        {
            "pairs": len(unverified),
            "checked": checked,
            "undecidable": undecidable,
            "disputed": disputed,
            "noise%": round(100 * disputed / max(checked, 1), 2),
        }
    ]


def test_ablation_verification(benchmark, engine, save_report):
    rows = benchmark.pedantic(run_ablation, args=(engine,), rounds=1, iterations=1)
    text = render_table(
        rows, "Ablation: label noise in unverified equivalence pairs (SDSS)"
    )
    save_report("ablation_verification", text)
    row = rows[0]
    assert row["pairs"] >= 60
    # Verification matters: without it some labels are provably wrong,
    # but the transforms are sound enough that noise stays bounded.
    assert row["noise%"] <= 25.0
