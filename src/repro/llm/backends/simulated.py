"""The simulated backend: the five calibrated profiles behind the
backend protocol.

Wraps :class:`repro.llm.simulated.SimulatedLLM`: each request is
answered by the task's ``answer_*`` method, fed the instance riding on
the request (query text, ground truth, properties) and the prompt's
quality.  All noise is seeded by ``(model, task, instance_id)``, so
concurrency and dispatch order cannot change a single byte of any
response.
"""

from __future__ import annotations

from repro.llm.base import LLMResponse
from repro.llm.backends.base import BackendError, BaseBackend, ModelRequest
from repro.llm.simulated import SimulatedLLM
from repro.llm.profiles import ModelProfile

# Task names, mirrored from repro.tasks.base (string constants rather
# than an import: the tasks package imports the backend registry, and
# duplicating five literals is cheaper than a lazy-import dance).
_SYNTAX_ERROR = "syntax_error"
_MISS_TOKEN = "miss_token"
_QUERY_EQUIV = "query_equiv"
_PERFORMANCE_PRED = "performance_pred"
_QUERY_EXP = "query_exp"
_REWRITE_EQUIVALENCE = "rewrite_equivalence"
_REWRITE_SPEEDUP = "rewrite_speedup"


class SimulatedBackend(BaseBackend):
    """Answers requests by running the profile's calibrated noise model."""

    name = "simulated"
    blocking_io = False  # pure compute: dispatch inline, never to a thread

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self.client = SimulatedLLM(profile)

    def complete(self, request: ModelRequest) -> LLMResponse:
        instance = request.instance
        if instance is None:
            raise BackendError(
                "simulated backend needs the task instance on the request "
                f"(got a bare prompt for {request.request_id!r})"
            )
        task = request.task
        quality = request.prompt_quality
        if task == _SYNTAX_ERROR:
            return self.client.answer_syntax_error(
                instance.instance_id,
                instance.payload["query"],
                instance.workload,
                instance.props,
                truth_has_error=bool(instance.label),
                truth_error_type=instance.label_type,
                prompt_quality=quality,
            )
        if task == _MISS_TOKEN:
            return self.client.answer_miss_token(
                instance.instance_id,
                instance.payload["query"],
                instance.workload,
                instance.props,
                truth_missing=bool(instance.label),
                truth_token_type=instance.label_type,
                truth_token=instance.removed_token,
                truth_position=instance.position,
                prompt_quality=quality,
            )
        if task in (_QUERY_EQUIV, _REWRITE_EQUIVALENCE):
            return self.client.answer_equivalence(
                instance.instance_id,
                instance.payload["query_1"],
                instance.payload["query_2"],
                instance.workload,
                instance.props,
                truth_equivalent=bool(instance.label),
                truth_pair_type=instance.label_type,
                prompt_quality=quality,
            )
        if task == _PERFORMANCE_PRED:
            return self.client.answer_performance(
                instance.instance_id,
                instance.payload["query"],
                instance.props,
                truth_costly=bool(instance.label),
                prompt_quality=quality,
            )
        if task == _REWRITE_SPEEDUP:
            return self.client.answer_speedup(
                instance.instance_id,
                instance.payload["query_1"],
                instance.payload["query_2"],
                instance.props,
                truth_faster=bool(instance.label),
                prompt_quality=quality,
            )
        if task == _QUERY_EXP:
            from repro.sql.analysis_cache import try_parse_cached

            statement = try_parse_cached(instance.payload["query"])
            return self.client.answer_explanation(
                instance.instance_id,
                instance.payload["query"],
                statement,
                prompt_quality=quality,
            )
        raise BackendError(f"simulated backend has no handler for task {task!r}")
