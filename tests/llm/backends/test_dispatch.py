"""Dispatcher tests: ordering, concurrency bound, rate limit, retries.

All waiting goes through injected ``sleep``/``clock`` fakes, so the
retry and rate-limit paths run in virtual time — no real sleeping.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.backends.base import (
    BackendError,
    BaseBackend,
    ModelRequest,
    TransientBackendError,
)
from repro.llm.backends.dispatch import AsyncDispatcher, TokenBucket
from repro.llm.base import LLMResponse


def request(index: int, task: str = "syntax_error") -> ModelRequest:
    return ModelRequest(
        request_id=f"req-{index}",
        task=task,
        model="gpt4",
        prompt_text=f"prompt {index}",
    )


class EchoBackend(BaseBackend):
    """Returns the request id as text, tracking in-flight concurrency."""

    name = "echo"

    def __init__(self, yield_first: bool = True) -> None:
        self.in_flight = 0
        self.max_in_flight = 0
        self.calls = 0
        self.yield_first = yield_first

    async def acomplete(self, req: ModelRequest) -> LLMResponse:
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self.calls += 1
        if self.yield_first:
            await asyncio.sleep(0)  # let siblings start: observe real overlap
        self.in_flight -= 1
        return LLMResponse(text=req.request_id, model=req.model)


class FlakyBackend(EchoBackend):
    """Fails each request's first ``failures_per_request`` attempts."""

    name = "flaky"

    def __init__(self, failures_per_request: dict[str, int]) -> None:
        super().__init__()
        self.remaining = dict(failures_per_request)

    async def acomplete(self, req: ModelRequest) -> LLMResponse:
        left = self.remaining.get(req.request_id, 0)
        if left > 0:
            self.remaining[req.request_id] = left - 1
            self.calls += 1
            raise TransientBackendError(f"transient {req.request_id}")
        return await super().acomplete(req)


class FatalBackend(BaseBackend):
    name = "fatal"

    async def acomplete(self, req: ModelRequest) -> LLMResponse:
        raise BackendError("terminal failure")


async def _virtual_sleep(seconds: float) -> None:
    await asyncio.sleep(0)


class TestOrderingAndConcurrency:
    def test_results_align_with_requests(self):
        backend = EchoBackend()
        dispatcher = AsyncDispatcher(backend, max_concurrency=4)
        requests = [request(i) for i in range(23)]
        responses = dispatcher.run_sync(requests)
        assert [r.text for r in responses] == [f"req-{i}" for i in range(23)]
        assert dispatcher.stats.completed == 23

    def test_concurrency_never_exceeds_bound(self):
        backend = EchoBackend()
        dispatcher = AsyncDispatcher(backend, max_concurrency=3)
        dispatcher.run_sync([request(i) for i in range(30)])
        assert backend.max_in_flight <= 3

    def test_concurrency_actually_overlaps(self):
        backend = EchoBackend()
        dispatcher = AsyncDispatcher(backend, max_concurrency=8)
        dispatcher.run_sync([request(i) for i in range(30)])
        assert backend.max_in_flight > 1

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            AsyncDispatcher(EchoBackend(), max_concurrency=0)
        with pytest.raises(ValueError):
            AsyncDispatcher(EchoBackend(), max_retries=-1)
        with pytest.raises(ValueError):
            TokenBucket(rps=0)


class TestRetries:
    def test_transient_failures_recover(self):
        backend = FlakyBackend({"req-0": 2, "req-3": 1})
        dispatcher = AsyncDispatcher(
            backend, max_concurrency=2, sleep=_virtual_sleep
        )
        responses = dispatcher.run_sync([request(i) for i in range(5)])
        assert [r.text for r in responses] == [f"req-{i}" for i in range(5)]
        assert dispatcher.stats.retries == 3
        assert dispatcher.stats.failures == 0

    def test_retries_exhaust_and_raise(self):
        backend = FlakyBackend({"req-1": 99})
        dispatcher = AsyncDispatcher(
            backend, max_concurrency=2, max_retries=3, sleep=_virtual_sleep
        )
        with pytest.raises(TransientBackendError):
            dispatcher.run_sync([request(i) for i in range(3)])
        assert dispatcher.stats.failures == 1

    def test_terminal_errors_do_not_retry(self):
        dispatcher = AsyncDispatcher(
            FatalBackend(), max_concurrency=2, sleep=_virtual_sleep
        )
        with pytest.raises(BackendError):
            dispatcher.run_sync([request(0)])
        assert dispatcher.stats.retries == 0
        assert dispatcher.stats.failures == 1

    def test_backoff_grows_exponentially_with_jitter(self):
        dispatcher = AsyncDispatcher(
            EchoBackend(), backoff_base=0.1, backoff_cap=100.0
        )
        req = request(7)
        delays = [dispatcher.backoff_delay(req, attempt) for attempt in (1, 2, 3, 4)]
        for attempt, delay in zip((1, 2, 3, 4), delays):
            raw = 0.1 * 2 ** (attempt - 1)
            assert raw <= delay < raw * 2  # jitter factor in [1, 2)
        # Deterministic: same request + attempt -> same jitter.
        assert delays == [
            dispatcher.backoff_delay(req, attempt) for attempt in (1, 2, 3, 4)
        ]

    def test_backoff_cap(self):
        dispatcher = AsyncDispatcher(
            EchoBackend(), backoff_base=1.0, backoff_cap=2.5
        )
        assert dispatcher.backoff_delay(request(0), 10) == 2.5

    @settings(max_examples=30, deadline=None)
    @given(
        failures=st.dictionaries(
            st.integers(min_value=0, max_value=11).map(lambda i: f"req-{i}"),
            st.integers(min_value=1, max_value=3),
            max_size=8,
        ),
        max_concurrency=st.integers(min_value=1, max_value=6),
    )
    def test_property_any_transient_schedule_recovers(
        self, failures, max_concurrency
    ):
        """Whatever the failure schedule, every answer comes back in
        order and the retry count equals the injected fault count."""
        backend = FlakyBackend(failures)
        dispatcher = AsyncDispatcher(
            backend,
            max_concurrency=max_concurrency,
            max_retries=3,
            sleep=_virtual_sleep,
        )
        requests = [request(i) for i in range(12)]
        responses = dispatcher.run_sync(requests)
        assert [r.text for r in responses] == [f"req-{i}" for i in range(12)]
        assert dispatcher.stats.retries == sum(failures.values())
        assert backend.max_in_flight <= max_concurrency


class FakeClock:
    """Virtual time driven by the bucket's own sleeps."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds
        await asyncio.sleep(0)


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = FakeClock()
        bucket = TokenBucket(rps=2.0, burst=3, clock=clock, sleep=clock.sleep)

        async def scenario() -> tuple[int, int]:
            burst_waits = 0
            for _ in range(3):
                burst_waits += await bucket.acquire()
            throttled_waits = 0
            for _ in range(4):
                throttled_waits += await bucket.acquire()
            return burst_waits, throttled_waits

        burst_waits, throttled_waits = asyncio.run(scenario())
        assert burst_waits == 0  # burst capacity covers the first three
        assert throttled_waits >= 4  # every further token had to wait
        # 7 tokens at 2 rps from a 3-token bucket: at least 2 virtual
        # seconds must have elapsed.
        assert clock.now >= 2.0

    def test_sustained_rate_is_respected(self):
        clock = FakeClock()
        bucket = TokenBucket(rps=10.0, burst=1, clock=clock, sleep=clock.sleep)

        async def drain(n: int) -> None:
            for _ in range(n):
                await bucket.acquire()

        asyncio.run(drain(51))
        # 50 post-burst tokens at 10 rps: 5 virtual seconds, +- refill
        # granularity.
        assert clock.now == pytest.approx(5.0, rel=0.05)

    def test_dispatcher_rate_limit_counts_waits(self):
        clock = FakeClock()
        backend = EchoBackend(yield_first=False)
        dispatcher = AsyncDispatcher(
            backend,
            max_concurrency=4,
            sleep=clock.sleep,
            clock=clock,
            bucket=TokenBucket(rps=5.0, clock=clock, sleep=clock.sleep),
        )
        responses = dispatcher.run_sync([request(i) for i in range(20)])
        assert len(responses) == 20
        assert dispatcher.stats.rate_waits > 0
        # 20 requests at 5 rps with a burst of 5: >= 3 virtual seconds.
        assert clock.now >= 3.0

    def test_shared_bucket_keeps_fill_level_across_dispatchers(self):
        """Two dispatchers on one loop sharing one bucket: the second
        starts from the drained level, so re-batching (one dispatcher
        per chunk) cannot re-burst."""
        clock = FakeClock()
        bucket = TokenBucket(rps=2.0, clock=clock, sleep=clock.sleep)
        backend = EchoBackend(yield_first=False)
        with asyncio.Runner() as runner:
            first, second = (
                AsyncDispatcher(
                    backend,
                    max_concurrency=2,
                    sleep=clock.sleep,
                    clock=clock,
                    bucket=bucket,
                    runner=runner.run,
                )
                for _ in range(2)
            )
            first.run_sync([request(i) for i in range(4)])
            drained_at = clock.now
            assert bucket.tokens < 1.0  # bucket left empty
            second.run_sync([request(i) for i in range(2)])
        # A fresh bucket would let the second batch ride a new burst and
        # finish instantly; the shared one makes it wait ~1s.
        assert clock.now - drained_at >= 0.9
        assert second.stats.rate_waits > 0

    def test_try_acquire_denies_with_retry_delay(self):
        clock = FakeClock()
        bucket = TokenBucket(rps=1.0, burst=2, clock=clock, sleep=clock.sleep)
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire() == (True, 0.0)
        ok, retry_after = bucket.try_acquire()
        assert not ok
        assert retry_after == pytest.approx(1.0)
        clock.now = 1.5  # one token refilled
        ok, retry_after = bucket.try_acquire()
        assert ok and retry_after == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        rps=st.floats(min_value=0.5, max_value=50.0),
        count=st.integers(min_value=2, max_value=40),
    )
    def test_property_virtual_elapsed_matches_rate(self, rps, count):
        clock = FakeClock()
        bucket = TokenBucket(rps=rps, burst=1, clock=clock, sleep=clock.sleep)

        async def drain() -> None:
            for _ in range(count):
                await bucket.acquire()

        asyncio.run(drain())
        expected = (count - 1) / rps  # first token rides the burst
        assert clock.now == pytest.approx(expected, rel=0.1)


class _LeftBehind(BaseBackend):
    """``req-0`` fails terminally at once; the other requests fail
    transiently after a yield, so they are still retrying when the
    batch raises.  Records every call."""

    name = "left-behind"

    def __init__(self) -> None:
        self.seen: list[str] = []

    async def acomplete(self, req: ModelRequest) -> LLMResponse:
        self.seen.append(req.request_id)
        if req.request_id == "req-0":
            raise BackendError("terminal failure")
        await asyncio.sleep(0)
        if req.task == "failing":
            raise TransientBackendError(f"transient {req.request_id}")
        return LLMResponse(text=req.request_id, model=req.model)


class TestOneLoopAcrossBatches:
    def test_failed_batch_leaves_nothing_on_the_loop(self):
        """A batch that raises cancels and awaits its other requests
        before raising, so nothing of it runs on into the next batch on
        the same loop."""
        backend = _LeftBehind()
        with asyncio.Runner() as runner:
            dispatcher = AsyncDispatcher(
                backend,
                max_concurrency=4,
                max_retries=50,
                sleep=_virtual_sleep,
                runner=runner.run,
            )
            with pytest.raises(BackendError, match="terminal"):
                dispatcher.run_sync([request(i, task="failing") for i in range(4)])
            assert not asyncio.all_tasks(runner.get_loop())
            called = len(backend.seen)
            responses = dispatcher.run_sync([request(i) for i in range(10, 13)])
            assert [r.text for r in responses] == ["req-10", "req-11", "req-12"]
            assert backend.seen[called:] == ["req-10", "req-11", "req-12"]
