"""CI chaos smoke: the crash-safety contract, end to end, for real.

Drives the actual CLI (``repro.cli.main``) against chaos plans and
asserts the tentpole invariant from docs/RESILIENCE.md: every injected
fault either recovers to metrics **byte-identical** to a clean run, or
fails loudly with a named error — never a hang, never silently wrong
rows.  Scenarios:

1. SIGTERM mid-grid → exit code 4 → ``--resume`` → identical metrics
   (materialised path).
2. The same round-trip on the streaming path (``--chunk-size``).
3. Flaky backend (seeded 429s) → retries recover → identical metrics.
4. Terminal faults under ``--on-cell-error degrade`` → run completes
   with structured, reported gaps.
5. A persistently poisoned stream chunk → named error, exit code 1.
6. A killed queue worker on the materialised path (``--workers 2``) →
   its chunk is re-dispatched → identical metrics.

Usage: PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.lifecycle import EXIT_INTERRUPTED, RunJournal
from repro.reporting.run_record import RunRecordStore

SPEC = "synthetic:setops:n=6"


def run(base: Path, *extra: str) -> int:
    return main(
        [
            "run",
            "syntax_error",
            "--workload",
            SPEC,
            "--max-instances",
            "6",
            "--cache-dir",
            str(base / "cache"),
            "--runs-dir",
            str(base / "runs"),
            *extra,
        ]
    )


def metrics_of(base: Path) -> dict:
    record = RunRecordStore(base / "runs").latest()
    assert record is not None, f"no RunRecord under {base / 'runs'}"
    return {
        (c.model, c.task, c.workload): dict(c.metrics) for c in record.cells
    }


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def interrupt_resume(tmp: Path, label: str, *extra: str) -> None:
    clean = tmp / f"clean-{label}"
    chaos = tmp / f"chaos-{label}"
    check(run(clean, *extra) == 0, f"{label}: clean run failed")
    reference = metrics_of(clean)

    code = run(chaos, "--chaos", "sigterm:after-cells=2", *extra)
    check(
        code == EXIT_INTERRUPTED,
        f"{label}: expected exit {EXIT_INTERRUPTED} after SIGTERM, got {code}",
    )
    check(
        RunRecordStore(chaos / "runs").run_ids() == [],
        f"{label}: interrupted attempt must not persist a RunRecord",
    )
    manifests = list((chaos / "runs").glob("*/journal/manifest.json"))
    check(len(manifests) == 1, f"{label}: expected exactly one journal")
    run_id = manifests[0].parent.parent.name
    code = main(["run", "--resume", run_id, "--runs-dir", str(chaos / "runs")])
    check(code == 0, f"{label}: resume exited {code}")
    check(
        metrics_of(chaos) == reference,
        f"{label}: resumed metrics differ from the uninterrupted run",
    )
    journal = RunJournal.load(chaos / "runs", run_id)
    check(
        journal.states() == {"committed": len(reference)},
        f"{label}: journal not fully committed after resume: "
        f"{journal.states()}",
    )
    print(f"OK: {label} interrupt → resume → byte-identical metrics")


def flaky_recovery(tmp: Path) -> None:
    clean = tmp / "clean-flaky"
    flaky = tmp / "flaky"
    check(run(clean) == 0, "flaky: clean run failed")
    check(
        run(flaky, "--chaos", "flaky:rate=0.4:kind=429") == 0,
        "flaky: chaos run failed",
    )
    check(
        metrics_of(flaky) == metrics_of(clean),
        "flaky: retried metrics differ from the clean run",
    )
    print("OK: flaky backend (seeded 429s) recovers to identical metrics")


def degraded_completion(tmp: Path) -> None:
    base = tmp / "degrade"
    check(
        run(
            base,
            "--chaos",
            "flaky:rate=0.5:kind=500:fail_attempts=9",
            "--on-cell-error",
            "degrade",
        )
        == 0,
        "degrade: run did not complete under --on-cell-error degrade",
    )
    record = RunRecordStore(base / "runs").latest()
    check(bool(record.failures), "degrade: no structured CellFailures recorded")
    check(
        all(f.error_class for f in record.failures),
        "degrade: failure rows missing error classes",
    )
    from repro.reporting.markdown import render_markdown_report

    report = render_markdown_report(record)
    check(
        "## Degraded cells" in report,
        "degrade: report does not render the degraded-cells table",
    )
    print(
        f"OK: terminal faults degrade {len(record.failures)} cell(s) "
        "into reported gaps; run completes"
    )


def poison_named_error(tmp: Path) -> None:
    base = tmp / "poison"
    code = run(
        base,
        "--chaos",
        "poison:chunk=0:once=false",
        "--chunk-size",
        "3",
        "--workers",
        "2",
    )
    check(code == 1, f"poison: expected named-failure exit 1, got {code}")
    print("OK: persistent poison chunk fails loudly with a named error")


def kill_worker_redispatch(tmp: Path) -> None:
    clean = tmp / "clean-kill"
    chaos = tmp / "kill"
    pooled = ("--workers", "2")
    check(run(clean, *pooled) == 0, "kill-worker: clean run failed")
    check(
        run(chaos, "--chaos", "kill-worker:chunk=0", *pooled) == 0,
        "kill-worker: chaos run failed",
    )
    check(
        metrics_of(chaos) == metrics_of(clean),
        "kill-worker: re-dispatched metrics differ from the clean run",
    )
    record = RunRecordStore(chaos / "runs").latest()
    check(
        record.stream_stats.get("redispatched", 0) >= 1,
        "kill-worker: no chunk was re-dispatched",
    )
    print(
        "OK: killed worker on the materialised pool → chunk re-dispatched "
        "→ identical metrics"
    )


def main_smoke() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as raw:
        tmp = Path(raw)
        interrupt_resume(tmp, "materialised")
        interrupt_resume(tmp, "streaming", "--chunk-size", "3")
        flaky_recovery(tmp)
        degraded_completion(tmp)
        poison_named_error(tmp)
        kill_worker_redispatch(tmp)
    print("chaos smoke: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main_smoke())
