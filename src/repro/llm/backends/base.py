"""Model-backend abstraction: how the engine talks to *any* model.

The evaluation pipeline is backend-agnostic: a task renders a
:class:`ModelRequest` (prompt text plus, for the simulator, the task
instance the ground-truth noise model needs), a backend turns it into an
:class:`repro.llm.base.LLMResponse`, and the task's response parser
extracts labels from the response *text* — exactly the paper's
prompt → verbose response → post-processing path (section 3.4).

Concrete backends live next to this module:

* :mod:`repro.llm.backends.simulated` — wraps :class:`SimulatedLLM`
  (byte-identical to the historical in-process path);
* :mod:`repro.llm.backends.openai_compat` — any OpenAI-style HTTP
  endpoint (stdlib ``urllib`` transport; ``httpx`` is optional);
* :mod:`repro.llm.backends.replay` — record/replay transport over
  on-disk fixtures, so CI runs fully offline and deterministic.

A backend is *addressed* by a :class:`BackendSpec` — a frozen,
picklable ``(name, options)`` pair that crosses process boundaries in
the engine's work queue and whose :meth:`~BackendSpec.fingerprint` is folded
into every cell cache key, so a cell cached under one backend (or one
endpoint) is never served to another.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

from repro.llm.base import LLMResponse


class BackendError(Exception):
    """A request failed for good: do not retry."""


class TransientBackendError(BackendError):
    """A request failed in a retryable way (timeouts, 429s, 5xx...)."""


class CircuitOpenError(BackendError):
    """The backend's circuit breaker is open: fail fast, do not retry.

    Raised by the dispatcher *before* a request is issued when the
    backend has failed enough recent calls that further attempts would
    only burn the retry ladder against a dead endpoint.  Terminal by
    design — the run surfaces it immediately (or degrades the cell,
    under ``--on-cell-error degrade``) instead of grinding through
    per-request backoff schedules.
    """


class DeadlineExceededError(BackendError):
    """A wall-clock deadline (per request or per cell) expired.

    Terminal: the time budget is gone, so retrying cannot help.
    """


@dataclass(frozen=True)
class ModelRequest:
    """One model invocation, addressed to one simulated/hosted model.

    ``prompt_text`` is the fully rendered prompt a hosted backend sends
    over the wire.  ``instance`` carries the task instance for backends
    that *derive* the answer instead of generating it (the simulator
    needs the ground truth its calibrated noise model perturbs); hosted
    backends must ignore it.  ``prompt_quality`` is the prompt
    template's calibrated quality knob, again simulator-only.
    """

    request_id: str
    task: str
    model: str
    prompt_text: str
    prompt_quality: float = 1.0
    instance: Optional[Any] = None

    def fingerprint(self) -> str:
        """Stable content address of the request (fixture lookup key).

        Only wire-visible fields participate: a fixture recorded from
        one backend must replay for any other backend asked the same
        question about the same instance.
        """
        payload = json.dumps(
            {
                "request_id": self.request_id,
                "task": self.task,
                "model": self.model,
                "prompt_text": self.prompt_text,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@runtime_checkable
class ModelBackend(Protocol):
    """The minimal surface the dispatcher needs from a backend."""

    #: Registry name ("simulated", "openai_compat", "replay", ...).
    name: str

    def complete(self, request: ModelRequest) -> LLMResponse:
        """Answer one request synchronously."""
        ...

    async def acomplete(self, request: ModelRequest) -> LLMResponse:
        """Answer one request from the dispatcher's event loop."""
        ...


class BaseBackend:
    """Shared async shim: ``acomplete`` delegates to ``complete``.

    CPU-bound backends (the simulator) override nothing; blocking I/O
    backends (HTTP) inherit an ``acomplete`` that runs ``complete`` in a
    worker thread so the dispatcher's event loop keeps multiple requests
    in flight.
    """

    name = "base"
    #: Whether ``complete`` blocks on I/O (dispatch via a thread) or is
    #: pure compute (call inline; a thread would add overhead only).
    blocking_io = False

    def complete(self, request: ModelRequest) -> LLMResponse:
        raise NotImplementedError

    async def acomplete(self, request: ModelRequest) -> LLMResponse:
        if self.blocking_io:
            import asyncio

            return await asyncio.to_thread(self.complete, request)
        return self.complete(request)

    def close(self) -> None:
        """Release any held resources (idempotent; default: none)."""


@dataclass(frozen=True)
class BackendSpec:
    """Picklable address of a backend: registry name + flat options.

    Options are stored as a sorted tuple of ``(key, value)`` string
    pairs so the spec is hashable, picklable, and content-addressable.
    Secrets must never be placed in options — backends read credentials
    from the environment (e.g. ``api_key_env`` names the variable).
    """

    name: str = "simulated"
    options: tuple[tuple[str, str], ...] = ()

    @classmethod
    def build(cls, name: str, options: Optional[dict[str, str]] = None) -> "BackendSpec":
        return cls(
            name=name,
            options=tuple(sorted((options or {}).items())),
        )

    def option(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for candidate, value in self.options:
            if candidate == key:
                return value
        return default

    def as_dict(self) -> dict[str, str]:
        return dict(self.options)

    def fingerprint(self) -> str:
        """Backend identity folded into cell cache keys.

        Hashes the registry name plus every option — the endpoint URL,
        the remote model mapping, the fixture directory — so results
        obtained from different backends (or the same backend pointed at
        a different endpoint) can never alias one another in the cache.
        """
        payload = json.dumps(
            {"name": self.name, "options": self.as_dict()}, sort_keys=True
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The default spec: the in-process simulator, no options.
SIMULATED_SPEC = BackendSpec(name="simulated")


@dataclass
class DispatchStats:
    """Counters one dispatcher run accumulates."""

    requests: int = 0
    completed: int = 0
    retries: int = 0
    failures: int = 0
    rate_waits: int = 0
    timeouts: int = 0
    breaker_rejections: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "retries": self.retries,
            "failures": self.failures,
            "rate_waits": self.rate_waits,
            "timeouts": self.timeouts,
            "breaker_rejections": self.breaker_rejections,
            "seconds": round(self.seconds, 6),
        }


# Re-exported for convenience: backends produce plain LLMResponses.
__all__ = [
    "BackendError",
    "TransientBackendError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ModelRequest",
    "ModelBackend",
    "BaseBackend",
    "BackendSpec",
    "SIMULATED_SPEC",
    "DispatchStats",
    "LLMResponse",
]
