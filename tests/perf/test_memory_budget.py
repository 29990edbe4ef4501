"""Bounded-memory regression gate for the streamed data path.

The streaming engine's contract is that peak memory scales with the
chunk size, not the instance count.  This test evaluates the same
streamed cell at two instance counts (3x apart) under ``tracemalloc``
and asserts the Python-heap peaks are flat — tripling the instances
must not move peak memory by more than 50%.  An absolute ceiling backs
the ratio up: if a refactor starts materialising the dataset again, the
larger run blows straight past it.

The companion RSS-level gate (whole-process peak RSS, including the
parser, the allocator and any worker processes) is
``benchmarks/harness.py --check``, which CI runs against the n=100k
point of the committed curve in ``benchmarks/BENCH_harness.json``.
"""

import tracemalloc

from repro.engine import EngineConfig, ExperimentEngine
from repro.llm.profiles import MODEL_PROFILES

CHUNK_SIZE = 400

#: Python-heap ceiling for the larger streamed run.  Materialising its
#: 12,000 instances would alone cost more than this; the streamed path
#: measures ~2 MB.
ABSOLUTE_BUDGET_BYTES = 64 * 1024 * 1024

#: Tripling the instance count may move the traced peak at most this much.
FLATNESS_RATIO = 1.5


def _streamed_peak(spec_n: int, max_instances: int) -> tuple[int, int]:
    """(traced peak bytes, instances evaluated) for one streamed cell."""
    profile = next(p for p in MODEL_PROFILES if p.name == "gpt4")
    config = EngineConfig(
        seed=0, chunk_size=CHUNK_SIZE, max_instances=max_instances
    )
    tracemalloc.start()
    try:
        with ExperimentEngine(config, (profile,)) as engine:
            result = engine.run_cell(
                "gpt4", "syntax_error", f"synthetic:default:n={spec_n}"
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result.instance_count


class TestStreamedMemoryBudget:
    def test_peak_is_flat_across_instance_counts(self):
        small_peak, small_n = _streamed_peak(400, 4_000)
        large_peak, large_n = _streamed_peak(1_200, 12_000)
        assert small_n == 4_000 and large_n == 12_000
        assert large_peak < ABSOLUTE_BUDGET_BYTES, (
            f"streamed run of {large_n} instances peaked at "
            f"{large_peak / 1e6:.1f} MB — the chunked path is "
            "materialising again"
        )
        ratio = large_peak / small_peak if small_peak else 0.0
        assert ratio < FLATNESS_RATIO, (
            f"3x the instances moved the traced peak {ratio:.2f}x "
            f"({small_peak / 1e6:.1f} MB -> {large_peak / 1e6:.1f} MB); "
            "streamed memory must be bounded by the chunk size"
        )
