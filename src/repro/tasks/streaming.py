"""Task-instance production: the one map from (task, workload) to instances.

:func:`iter_task_instances` dispatches to one generator per task
family, each consuming a query stream
(:class:`~repro.workloads.streaming.WorkloadStream` or a materialised
:class:`~repro.workloads.base.Workload`) and yielding
:class:`TaskInstance` values lazily.  :func:`repro.tasks.registry.build_dataset`
drains it and the streamed engine path chunks it, so a built dataset
and a chunked stream cannot disagree.

Capping stops the *producer*: most tasks truncate the instance stream
after ``max_instances``, query_equiv and rewrite_equivalence cap during
generation via ``max_pairs``, and rewrite_speedup counts the instances
it emits.  ``synthetic:default:n=1000000`` with ``--max-instances
1000000`` generates one million queries and then stops, instead of
materialising all twelve million the spec describes.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from repro.tasks.base import (
    MISS_TOKEN,
    PERFORMANCE_PRED,
    PRIMARY_TASKS,
    QUERY_EQUIV,
    QUERY_EXP,
    REWRITE_EQUIVALENCE,
    REWRITE_SPEEDUP,
    REWRITE_TASKS,
    SYNTAX_ERROR,
    TaskInstance,
)
from repro.tasks.equivalence import iter_query_equiv_instances
from repro.tasks.explanation import iter_query_exp_instances
from repro.tasks.miss_token import iter_miss_token_instances
from repro.tasks.performance import iter_performance_instances
from repro.tasks.rewrite import (
    iter_rewrite_equivalence_instances,
    iter_rewrite_speedup_instances,
)
from repro.tasks.syntax_error import iter_syntax_error_instances


def iter_task_instances(
    task: str,
    source,
    seed: int = 0,
    max_instances: Optional[int] = None,
) -> Iterator[TaskInstance]:
    """Yield one cell's task instances lazily, at most ``max_instances``."""
    if task == SYNTAX_ERROR:
        instances = iter_syntax_error_instances(source, seed)
    elif task == MISS_TOKEN:
        instances = iter_miss_token_instances(source, seed)
    elif task == QUERY_EQUIV:
        # max_pairs caps during generation; no outer islice needed.
        return iter_query_equiv_instances(source, seed, max_pairs=max_instances)
    elif task == PERFORMANCE_PRED:
        instances = iter_performance_instances(source)
    elif task == QUERY_EXP:
        instances = iter_query_exp_instances(source)
    elif task == REWRITE_EQUIVALENCE:
        # max_pairs caps during generation.
        return iter_rewrite_equivalence_instances(
            source, seed, max_pairs=max_instances
        )
    elif task == REWRITE_SPEEDUP:
        # the generator caps emitted instances itself (post-filter count).
        return iter_rewrite_speedup_instances(
            source, seed, max_instances=max_instances
        )
    else:
        raise KeyError(
            f"unknown task {task!r}; expected one of "
            f"{PRIMARY_TASKS + REWRITE_TASKS}"
        )
    if max_instances is not None:
        return islice(instances, max_instances)
    return instances


def iter_instance_chunks(
    task: str,
    source,
    seed: int = 0,
    chunk_size: int = 2000,
    max_instances: Optional[int] = None,
) -> Iterator[list[TaskInstance]]:
    """Yield the instance stream in fixed-size segments (last may be short)."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    instances = iter_task_instances(task, source, seed, max_instances)
    while True:
        chunk = list(islice(instances, chunk_size))
        if not chunk:
            return
        yield chunk
