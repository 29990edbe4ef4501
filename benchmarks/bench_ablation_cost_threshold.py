"""Ablation: the 200 ms cost threshold behind performance_pred.

The paper picks 200 ms from the Figure 5 valley.  This ablation sweeps
the threshold and shows why: at 200 ms the positive class is stable
(the valley is empty, so neighbouring thresholds give the same labels),
while thresholds inside the fast mode explode the positive class.
"""

from repro.evalfw.report import render_table
from repro.perf.cost_model import PAPER_COSTLY_FRACTION


def run_sweep(engine):
    workload = engine.workload("sdss")
    elapsed = [q.elapsed_ms for q in workload if q.elapsed_ms is not None]
    rows = []
    for threshold in (50, 100, 150, 200, 300, 400):
        positives = sum(1 for value in elapsed if value > threshold)
        rows.append(
            {
                "threshold_ms": threshold,
                "costly": positives,
                "fraction": round(positives / len(elapsed), 3),
            }
        )
    return rows


def test_ablation_cost_threshold(benchmark, engine, save_report):
    rows = benchmark.pedantic(run_sweep, args=(engine,), rounds=1, iterations=1)
    text = render_table(rows, "Ablation: cost-threshold sweep (SDSS runtimes)")
    save_report("ablation_cost_threshold", text)
    by_threshold = {row["threshold_ms"]: row for row in rows}
    # Inside the valley the labeling is insensitive to the exact cut...
    assert (
        abs(by_threshold[200]["costly"] - by_threshold[300]["costly"]) <= 6
    )
    # ...whereas a 50 ms cut would inflate the positive class.
    assert by_threshold[50]["costly"] > 2 * by_threshold[200]["costly"]
    # And 200 ms lands near the paper's 41/285 positive fraction.
    assert abs(by_threshold[200]["fraction"] - PAPER_COSTLY_FRACTION) < 0.06
