"""Pluggable model backends and the async batched dispatcher.

See :mod:`repro.llm.backends.base` for the protocol and
:mod:`repro.llm.backends.dispatch` for the request funnel every engine
chunk goes through.
"""

from repro.llm.backends.base import (
    BackendError,
    BackendSpec,
    BaseBackend,
    CircuitOpenError,
    DeadlineExceededError,
    DispatchStats,
    ModelBackend,
    ModelRequest,
    SIMULATED_SPEC,
    TransientBackendError,
)
from repro.llm.backends.dispatch import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_MAX_CONCURRENCY,
    AsyncDispatcher,
    CircuitBreaker,
    TokenBucket,
)
from repro.llm.backends.registry import (
    BACKENDS,
    backend_names,
    create_backend,
    describe_backends,
    spec_from_cli,
)

__all__ = [
    "BackendError",
    "TransientBackendError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "CircuitBreaker",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_BREAKER_COOLDOWN",
    "BackendSpec",
    "SIMULATED_SPEC",
    "BaseBackend",
    "ModelBackend",
    "ModelRequest",
    "DispatchStats",
    "AsyncDispatcher",
    "TokenBucket",
    "DEFAULT_MAX_CONCURRENCY",
    "BACKENDS",
    "backend_names",
    "create_backend",
    "describe_backends",
    "spec_from_cli",
]
