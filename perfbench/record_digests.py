"""Re-record ``perfbench/digests.json`` from the current program.

    python3 perfbench/record_digests.py

For each grid workload and each of the ``DIGEST_SEEDS`` input seeds it
runs one traced sample and stores the metrics digest of its RunRecord
plus the counts that must repeat exactly (``run.EXACT_COUNTS``); for
``serve`` it stores the counts of one traced phase.  Re-record only when
a change is meant to alter results or those counts, and say so in the
change: the benchmark treats any difference as a wrong output.
"""

from __future__ import annotations

import json
import sys

import run


def counts_of(layers: dict) -> dict:
    return {key: layers.get(key, 0) for key in run.EXACT_COUNTS}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    digests: dict = {}
    for workload in ("paper-cold", "synthetic-stream"):
        digests[workload] = {}
        for seed in range(run.DIGEST_SEEDS):
            sample = run.run_child(run.grid_argv(workload, seed), trace=True)
            run.check_sample(sample, None)
            digests[workload][str(seed)] = {
                "digest": sample["record"]["digest"],
                "counts": counts_of(run.grid_layers(sample)),
            }
            print(workload, seed, digests[workload][str(seed)], file=sys.stderr)
    phase = run.serve_phase(0, traced=True)
    digests["serve"] = {"counts": counts_of(phase["layers"])}
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
