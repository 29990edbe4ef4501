"""Async batched dispatcher: the one funnel every model call goes through.

The engine hands a whole chunk of :class:`ModelRequest`\\ s to
:class:`AsyncDispatcher`, which keeps up to ``max_concurrency`` of them
in flight, throttles issue rate through a :class:`TokenBucket`, guards
the backend with a :class:`CircuitBreaker`, and retries transient
failures with exponential backoff plus deterministic jitter.  Results
come back in request order regardless of completion order, so chunked
evaluation stays byte-identical to the serial path.

The bucket and the breaker hold their own state, so one of each,
handed to every dispatcher of an answering process, makes ``rps`` a
sustained per-process rate and carries breaker health from one batch to
the next.  A batch runs on the coroutine runner the dispatcher is given:
the engine passes the ``run`` of its one long-lived event loop
(:class:`repro.engine.worker.AnswerState`), because a bucket's asyncio
lock belongs to one loop; the default, ``asyncio.run``, gives each batch
a private loop.

Determinism: the jitter RNG is seeded from each request's id, and
backends themselves are deterministic (the simulator) or replayed from
fixtures — so a retried schedule changes *when* calls happen, never
*what* they return.

Test seams: ``sleep``, ``clock`` and the coroutine ``runner`` are
injectable, so the retry and rate-limit paths are property-tested
against a fake backend and a fake clock without any real waiting.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from typing import Any, Awaitable, Callable, Coroutine, Optional, Sequence

from repro.llm.base import LLMResponse
from repro.llm.backends.base import (
    BackendError,
    CircuitOpenError,
    DeadlineExceededError,
    DispatchStats,
    ModelBackend,
    ModelRequest,
    TransientBackendError,
)

#: Default in-flight bound; matches a typical hosted-API comfort zone.
DEFAULT_MAX_CONCURRENCY = 8

#: Retry schedule defaults (attempt n sleeps ~ base * 2**n, capped).
DEFAULT_MAX_RETRIES = 3
DEFAULT_BACKOFF_BASE = 0.1
DEFAULT_BACKOFF_CAP = 5.0

#: Circuit-breaker defaults: trip after this many consecutive transient
#: failures, or when the failure rate over the rolling window crosses
#: the rate threshold (only once the window holds ``min_calls`` calls).
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_WINDOW = 20
DEFAULT_BREAKER_RATE = 0.5
DEFAULT_BREAKER_MIN_CALLS = 10
#: Seconds an open breaker waits before letting one probe through.
DEFAULT_BREAKER_COOLDOWN = 30.0


class TokenBucket:
    """Classic token bucket: ``rps`` sustained, ``burst`` peak.

    ``acquire`` waits (via the injected ``sleep``) until a token is
    available; refill is computed lazily from the injected ``clock`` so
    tests can drive it with virtual time.  The fill level lives on the
    bucket, so one bucket shared by successive dispatch batches keeps
    ``rps`` a sustained rate instead of granting a fresh burst per batch.
    Its asyncio lock binds to the first event loop that queues on it:
    share a bucket only across batches of one loop.
    """

    def __init__(
        self,
        rps: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        if rps <= 0:
            raise ValueError(f"rps must be > 0, got {rps}")
        self.rps = float(rps)
        self.capacity = float(burst) if burst is not None else max(self.rps, 1.0)
        self._clock = clock
        self._sleep = sleep
        self.tokens = self.capacity
        self.updated = clock()
        self._lock = asyncio.Lock()

    #: Tolerance against float rounding: sleeping exactly
    #: ``deficit / rps`` can refill to a hair *under* one token, which
    #: without slack would loop forever on ever-tinier sleeps.
    EPSILON = 1e-9

    def _take(self) -> float:
        """Refill to now and try to take one token.

        Returns how many tokens short the bucket is (0.0 when the token
        was granted), which callers turn into a sleep (``deficit / rps``)
        or a 429 ``Retry-After``.
        """
        now = self._clock()
        elapsed = max(now - self.updated, 0.0)
        self.updated = now
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rps)
        if self.tokens >= 1.0 - self.EPSILON:
            self.tokens -= 1.0
            return 0.0
        return 1.0 - self.tokens

    async def acquire(self) -> int:
        """Take one token; returns how many waits were needed.

        The asyncio lock serialises waiters so they queue instead of
        thundering.
        """
        waits = 0
        async with self._lock:
            while deficit := self._take():
                waits += 1
                await self._sleep(deficit / self.rps + self.EPSILON)
        return waits

    def try_acquire(self) -> tuple[bool, float]:
        """Non-blocking take: ``(granted, seconds until next token)``.

        The synchronous entry point for callers that answer "try again
        later" instead of waiting — the server's per-client rate limit
        turns the returned delay into a 429 ``Retry-After``.
        """
        deficit = self._take()
        return deficit == 0.0, deficit / self.rps


class CircuitBreaker:
    """Closed/open/half-open breaker guarding one backend.

    * **closed** — requests flow; every outcome is recorded.  Trips to
      *open* on ``threshold`` consecutive transient failures, or when
      the failure rate over the rolling window reaches ``rate`` (once
      at least ``min_calls`` outcomes are in the window).
    * **open** — :meth:`admit` fails fast with
      :class:`CircuitOpenError` until ``cooldown`` seconds (by the
      injected ``clock``) have passed, then transitions to *half-open*.
    * **half-open** — exactly one probe request is admitted; its
      success closes the breaker (window reset), its failure re-opens
      it and restarts the cooldown timer.

    Like the token bucket, the clock is injectable so tests drive the
    cooldown with virtual time.  The breaker has no asyncio part, so one
    breaker shared by successive dispatchers keeps its health: a backend
    that died during one batch stays tripped for the next instead of
    re-earning a fresh retry ladder.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        rate: float = DEFAULT_BREAKER_RATE,
        min_calls: int = DEFAULT_BREAKER_MIN_CALLS,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
        backend_name: str = "backend",
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.threshold = threshold
        self.rate = rate
        self.min_calls = min_calls
        self.cooldown = cooldown
        self.backend_name = backend_name
        self._clock = clock
        #: "closed" (healthy), "open" (fail fast), or "half_open" (probing).
        self.state = "closed"
        self.consecutive_failures = 0
        #: Clock value when the breaker last tripped open.
        self.opened_at = 0.0
        #: True while the single half-open probe is in flight.
        self.probe_in_flight = False
        #: Rolling call outcomes (True = success) for the rate trip.
        self.window: deque[bool] = deque(maxlen=DEFAULT_BREAKER_WINDOW)
        #: How many times this breaker has tripped open (observability).
        self.trips = 0

    def admit(self) -> None:
        """Gate one request; raises :class:`CircuitOpenError` if shut.

        In the *open* state the first caller after the cooldown elapses
        becomes the half-open probe; everyone else fails fast.  In the
        *half-open* state only that single probe is in flight — all
        other callers fail fast until its outcome is known.
        """
        if self.state == "closed":
            return
        if self.state == "open":
            elapsed = self._clock() - self.opened_at
            if elapsed < self.cooldown:
                remaining = self.cooldown - elapsed
                raise CircuitOpenError(
                    f"circuit open for backend {self.backend_name!r}: "
                    f"failing fast ({self.trips} trip(s); next probe in "
                    f"{remaining:.1f}s)"
                )
            self.state = "half_open"
            self.probe_in_flight = True
            return
        # half_open: admit exactly one probe.
        if self.probe_in_flight:
            raise CircuitOpenError(
                f"circuit half-open for backend {self.backend_name!r}: "
                "probe already in flight"
            )
        self.probe_in_flight = True

    def on_success(self) -> None:
        """Record a successful call; a half-open probe closes the breaker."""
        self.consecutive_failures = 0
        if self.state == "half_open":
            self.state = "closed"
            self.probe_in_flight = False
            self.window.clear()
            return
        self.window.append(True)

    def on_failure(self) -> None:
        """Record a transient failure; may trip the breaker open."""
        self.consecutive_failures += 1
        if self.state == "half_open":
            # The probe failed: re-open and restart the cooldown.
            self._trip()
            return
        if self.state == "open":
            return
        self.window.append(False)
        failures = sum(1 for ok in self.window if not ok)
        rate_tripped = (
            len(self.window) >= self.min_calls
            and failures / len(self.window) >= self.rate
        )
        if self.consecutive_failures >= self.threshold or rate_tripped:
            self._trip()

    def release_probe(self) -> None:
        """Abandon an admitted half-open probe without an outcome.

        Called when the probe request is *cancelled* (graceful drain)
        rather than completing — otherwise ``probe_in_flight`` would
        stay latched and the breaker could never re-probe.
        """
        if self.state == "half_open":
            self.probe_in_flight = False

    def _trip(self) -> None:
        self.state = "open"
        self.opened_at = self._clock()
        self.probe_in_flight = False
        self.trips += 1


def _jitter_rng(request: ModelRequest, attempt: int) -> random.Random:
    """Deterministic per-(request, attempt) jitter source."""
    return random.Random(f"backoff:{request.request_id}:{attempt}")


class AsyncDispatcher:
    """Bounded-concurrency, rate-limited, retrying request funnel.

    ``bucket`` and ``breaker`` are optional and may be shared with other
    dispatchers on the same event loop; ``runner`` runs one batch's
    coroutine from synchronous code (:meth:`run_sync`).
    """

    def __init__(
        self,
        backend: ModelBackend,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        clock: Callable[[], float] = time.monotonic,
        request_timeout: Optional[float] = None,
        bucket: Optional[TokenBucket] = None,
        breaker: Optional[CircuitBreaker] = None,
        runner: Callable[[Coroutine], Any] = asyncio.run,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.backend = backend
        self.max_concurrency = max_concurrency
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._clock = clock
        self.request_timeout = request_timeout
        self.bucket = bucket
        self.breaker = breaker
        self._runner = runner
        self.stats = DispatchStats()

    def backoff_delay(self, request: ModelRequest, attempt: int) -> float:
        """Exponential backoff with deterministic jitter for *attempt*.

        ``attempt`` counts failures so far (1 for the first retry).
        Delay is ``base * 2**(attempt-1)`` scaled by a jitter factor in
        [1.0, 2.0), capped at ``backoff_cap``.
        """
        raw = self.backoff_base * (2.0 ** (attempt - 1))
        jitter = 1.0 + _jitter_rng(request, attempt).random()
        return min(raw * jitter, self.backoff_cap)

    def _attempt_timeout(self, deadline: Optional[float]) -> Optional[float]:
        """Seconds this attempt may run: min(request_timeout, remaining).

        Raises :class:`DeadlineExceededError` if the batch deadline has
        already passed — checked *before* issuing, so a deadline that
        expires during backoff never launches another doomed attempt.
        """
        remaining = None
        if deadline is not None:
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise DeadlineExceededError(
                    "cell deadline exceeded before request could be issued"
                )
        if self.request_timeout is None:
            return remaining
        if remaining is None:
            return self.request_timeout
        return min(self.request_timeout, remaining)

    async def _complete_with_retry(
        self, request: ModelRequest, deadline: Optional[float]
    ) -> LLMResponse:
        attempt = 0
        while True:
            timeout = self._attempt_timeout(deadline)
            if self.breaker is not None:
                try:
                    self.breaker.admit()
                except CircuitOpenError:
                    self.stats.breaker_rejections += 1
                    self.stats.failures += 1
                    raise
            if self.bucket is not None:
                self.stats.rate_waits += await self.bucket.acquire()
            try:
                if timeout is not None:
                    response = await asyncio.wait_for(
                        self.backend.acomplete(request), timeout=timeout
                    )
                else:
                    response = await self.backend.acomplete(request)
            except (TransientBackendError, asyncio.TimeoutError) as exc:
                timed_out = isinstance(exc, asyncio.TimeoutError)
                if timed_out:
                    self.stats.timeouts += 1
                if self.breaker is not None:
                    self.breaker.on_failure()
                attempt += 1
                if attempt > self.max_retries:
                    self.stats.failures += 1
                    if timed_out:
                        raise TransientBackendError(
                            f"request {request.request_id} timed out after "
                            f"{timeout:.3f}s (attempt {attempt})"
                        ) from exc
                    raise
                self.stats.retries += 1
                await self._sleep(self.backoff_delay(request, attempt))
                continue
            except asyncio.CancelledError:
                if self.breaker is not None:
                    self.breaker.release_probe()
                raise
            except BackendError:
                # Terminal protocol errors (bad request, auth) are the
                # request's fault, not evidence the endpoint is down —
                # they do not feed the breaker.
                self.stats.failures += 1
                raise
            if self.breaker is not None:
                self.breaker.on_success()
            self.stats.completed += 1
            return response

    async def run(
        self,
        requests: Sequence[ModelRequest],
        deadline_seconds: Optional[float] = None,
    ) -> list[LLMResponse]:
        """Answer every request; results align index-for-index.

        Any request that exhausts its retries (or fails terminally)
        propagates its exception once the batch's other requests are
        cancelled — the caller decides whether a partial cell is
        acceptable (the engine: it is not).

        ``deadline_seconds`` bounds the whole batch by wall clock: once
        it elapses, not-yet-issued attempts fail with
        :class:`DeadlineExceededError` and in-flight attempts have their
        per-attempt timeout clipped to the remaining budget.
        """
        self.stats.requests += len(requests)
        started = self._clock()
        deadline = (
            started + deadline_seconds if deadline_seconds is not None else None
        )
        semaphore = asyncio.Semaphore(self.max_concurrency)

        async def bounded(request: ModelRequest) -> LLMResponse:
            async with semaphore:
                return await self._complete_with_retry(request, deadline)

        tasks = [asyncio.create_task(bounded(request)) for request in requests]
        try:
            return await asyncio.gather(*tasks)
        except BaseException:
            # gather leaves the other requests running.  On a loop that
            # outlives the batch they would keep retrying into the next
            # one, so cancel them and wait until they are gone.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        finally:
            self.stats.seconds += self._clock() - started

    def run_sync(
        self,
        requests: Sequence[ModelRequest],
        deadline_seconds: Optional[float] = None,
    ) -> list[LLMResponse]:
        """``run`` from synchronous code, through this dispatcher's runner."""
        return self._runner(self.run(requests, deadline_seconds))
