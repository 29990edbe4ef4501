"""Cache-backed experiment engine with one work queue.

Public surface:

* :class:`ExperimentEngine` / :class:`EngineConfig` — evaluate grid
  cells in ordered chunks, in-process at ``workers=1`` or on a work
  queue of worker processes, with identical outputs either way;
* :class:`ResultCache` and :func:`cell_key` / :func:`dataset_key` /
  :func:`workload_key` — the content-addressed on-disk cache for cells,
  datasets and workloads;
* :class:`ChunkSpec` / :func:`evaluate_chunk` — one chunk of one cell,
  carrying its instances, as a queue worker evaluates it.
"""

from repro.engine.cache import (
    CACHE_VERSION,
    CacheStats,
    ResultCache,
    answer_from_dict,
    answer_to_dict,
    cell_key,
    dataset_key,
    prompt_fingerprint,
    workload_key,
)
from repro.engine.core import MATERIALISED_CHUNK_SIZE, EngineConfig, ExperimentEngine
from repro.engine.worker import ChunkSpec, evaluate_chunk

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "ChunkSpec",
    "EngineConfig",
    "ExperimentEngine",
    "MATERIALISED_CHUNK_SIZE",
    "ResultCache",
    "answer_from_dict",
    "answer_to_dict",
    "cell_key",
    "dataset_key",
    "evaluate_chunk",
    "prompt_fingerprint",
    "workload_key",
]
