"""Circuit breaker tests: trip conditions, cooldown, half-open probe.

All time goes through an injected virtual clock — no real sleeping.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.llm.backends.base import (
    CircuitOpenError,
    ModelRequest,
    TransientBackendError,
)
from repro.llm.backends.dispatch import AsyncDispatcher, CircuitBreaker
from repro.llm.base import LLMResponse
from tests.llm.backends.test_dispatch import EchoBackend, request


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def breaker(threshold: int = 3, cooldown: float = 30.0, **kwargs) -> tuple:
    clock = Clock()
    return (
        CircuitBreaker(
            threshold=threshold,
            cooldown=cooldown,
            clock=clock,
            backend_name="test",
            **kwargs,
        ),
        clock,
    )


class TestTripAndCooldown:
    def test_closed_admits(self):
        cb, _ = breaker()
        cb.admit()
        assert cb.state == "closed"

    def test_trips_after_consecutive_failures(self):
        cb, _ = breaker(threshold=3)
        for _ in range(2):
            cb.on_failure()
        assert cb.state == "closed"
        cb.on_failure()
        assert cb.state == "open"
        assert cb.trips == 1

    def test_success_resets_consecutive_count(self):
        cb, _ = breaker(threshold=3)
        cb.on_failure()
        cb.on_failure()
        cb.on_success()
        cb.on_failure()
        cb.on_failure()
        assert cb.state == "closed"

    def test_open_rejects_with_named_error(self):
        cb, clock = breaker(threshold=1, cooldown=30.0)
        cb.on_failure()
        clock.advance(1.0)
        with pytest.raises(CircuitOpenError, match="test"):
            cb.admit()

    def test_failure_rate_trip(self):
        cb, _ = breaker(threshold=100, rate=0.5, min_calls=10)
        # Alternate successes and failures: at 10 calls the rate is 0.5.
        for _ in range(5):
            cb.on_success()
            cb.on_failure()
        assert cb.state == "open"


class TestHalfOpenProbe:
    def test_cooldown_expiry_admits_exactly_one_probe(self):
        # Regression: half-open must admit one probe and queue the rest.
        cb, clock = breaker(threshold=1, cooldown=30.0)
        cb.on_failure()
        clock.advance(30.0)
        cb.admit()  # the probe
        assert cb.state == "half_open"
        assert cb.probe_in_flight
        for _ in range(5):
            with pytest.raises(CircuitOpenError):
                cb.admit()

    def test_probe_success_closes_and_clears(self):
        cb, clock = breaker(threshold=1, cooldown=30.0)
        cb.on_failure()
        clock.advance(30.0)
        cb.admit()
        cb.on_success()
        assert cb.state == "closed"
        assert not cb.probe_in_flight
        cb.admit()  # closed again: everyone admitted

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        cb, clock = breaker(threshold=1, cooldown=30.0)
        cb.on_failure()
        clock.advance(30.0)
        cb.admit()
        cb.on_failure()
        assert cb.state == "open"
        assert cb.trips == 2
        clock.advance(29.0)
        with pytest.raises(CircuitOpenError):
            cb.admit()
        clock.advance(1.0)
        cb.admit()  # next probe after the full cooldown

    def test_released_probe_unwedges_half_open(self):
        # A cancelled probe (graceful drain mid-request) must not leave
        # the breaker latched half-open forever.
        cb, clock = breaker(threshold=1, cooldown=30.0)
        cb.on_failure()
        clock.advance(30.0)
        cb.admit()
        cb.release_probe()
        cb.admit()  # a new probe is admitted instead of wedging


class FailingBackend(EchoBackend):
    name = "failing"

    async def acomplete(self, req: ModelRequest) -> LLMResponse:
        self.calls += 1
        raise TransientBackendError("down")


class TestDispatcherIntegration:
    def test_open_breaker_fails_fast_and_counts(self):
        cb, _ = breaker(threshold=1)
        backend = FailingBackend()
        dispatcher = AsyncDispatcher(
            backend, max_retries=0, sleep=_no_sleep, breaker=cb
        )
        with pytest.raises(TransientBackendError):
            dispatcher.run_sync([request(0)])
        assert cb.state == "open"
        with pytest.raises(CircuitOpenError):
            dispatcher.run_sync([request(1)])
        # The rejected request never reached the backend.
        assert backend.calls == 1
        assert dispatcher.stats.breaker_rejections == 1

    def test_shared_breaker_stays_tripped_across_dispatchers(self):
        # An answering process hands its one breaker to every
        # dispatcher on its loop; a dispatcher after the trip starts
        # tripped and never reaches the backend.
        cb, _ = breaker(threshold=1)
        backend = FailingBackend()
        with asyncio.Runner() as runner:
            first, second = (
                AsyncDispatcher(
                    backend,
                    max_retries=0,
                    sleep=_no_sleep,
                    breaker=cb,
                    runner=runner.run,
                )
                for _ in range(2)
            )
            with pytest.raises(TransientBackendError):
                first.run_sync([request(0)])
            with pytest.raises(CircuitOpenError):
                second.run_sync([request(1)])
        assert backend.calls == 1
        assert second.stats.breaker_rejections == 1


async def _no_sleep(seconds: float) -> None:
    return None


class HangingBackend(EchoBackend):
    name = "hanging"

    async def acomplete(self, req: ModelRequest) -> LLMResponse:
        self.calls += 1
        await asyncio.sleep(60)
        return LLMResponse(text="too late", model=req.model)


class TestDeadlines:
    def test_request_timeout_converts_to_transient_and_retries(self):
        backend = HangingBackend()
        dispatcher = AsyncDispatcher(
            backend, max_retries=1, request_timeout=0.01, sleep=_no_sleep
        )
        with pytest.raises(TransientBackendError, match="timed out"):
            dispatcher.run_sync([request(0)])
        assert backend.calls == 2  # original + one retry, both timed out
        assert dispatcher.stats.timeouts == 2

    def test_expired_deadline_fails_fast_with_named_error(self):
        from repro.llm.backends.base import DeadlineExceededError

        backend = EchoBackend()
        dispatcher = AsyncDispatcher(backend, sleep=_no_sleep)
        with pytest.raises(DeadlineExceededError):
            dispatcher.run_sync([request(0)], deadline_seconds=0.0)
        assert backend.calls == 0  # never issued

    def test_timeouts_feed_the_breaker(self):
        cb, _ = breaker(threshold=2)
        backend = HangingBackend()
        dispatcher = AsyncDispatcher(
            backend,
            max_retries=1,
            request_timeout=0.01,
            sleep=_no_sleep,
            breaker=cb,
        )
        with pytest.raises(TransientBackendError):
            dispatcher.run_sync([request(0)])
        assert cb.state == "open"
