"""Model report card: grade all five models on syntax-error detection.

Reproduces the Table 3 workflow on one workload and digs into *why* the
weak models fail (Figure 6-style breakdown + Figure 7-style FN profile).

Run:  python examples/model_report_card.py [workload]
"""

import sys

from repro.corrupt import ERROR_TYPES
from repro.engine import EngineConfig, ExperimentEngine
from repro.evalfw import (
    metrics_table,
    property_breakdown,
    render_breakdown,
    render_table,
    type_failure_profile,
)


def main(workload: str = "sdss") -> None:
    with ExperimentEngine(EngineConfig(seed=0)) as engine:
        grid = engine.run_task("syntax_error", workloads=(workload,))

    print(render_table(metrics_table(grid, "binary"), f"syntax_error on {workload}"))
    print()
    print(
        render_table(
            metrics_table(grid, "typed"), f"syntax_error_type on {workload}"
        )
    )

    # Why do the weak models fail?  Longer queries are riskier (Fig 6)...
    weak = min(grid, key=lambda key: grid[key].binary.f1)
    cell = grid[weak]
    print(f"\nweakest cell: {weak[0]} (F1 {cell.binary.f1:.2f})\n")
    breakdown = property_breakdown(cell.dataset.instances, cell.answers, "word_count")
    print(render_breakdown(breakdown, f"{weak[0]}: word_count by outcome"))
    trend = breakdown.positives_trend()
    print(f"\nFN queries average {trend:+.1f} words vs detected errors (TP).")

    # ...and specific error types dominate the misses (Fig 7).
    failure = type_failure_profile(cell.dataset.instances, cell.answers, ERROR_TYPES)
    print("\nFN share by error type:")
    for error_type, share in sorted(failure.fn_share.items(), key=lambda kv: -kv[1]):
        bar = "#" * round(share * 40)
        print(f"  {error_type:20s} {share:5.2f} {bar}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "sdss")
