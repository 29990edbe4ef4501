"""Chaos plan parsing and arming.

Plan format: semicolon-separated events, each ``kind`` followed by
colon-separated ``key=value`` params::

    flaky:rate=0.3:kind=429
    kill-worker:chunk=2
    poison:chunk=1
    sigterm:after-cells=2
    corrupt-segment
    flaky:rate=0.2;kill-worker:chunk=1;sigterm:after-cells=3

Event semantics:

* ``flaky`` — wrap the run's backend in :class:`ChaosBackend`: a
  seeded ``rate`` fraction of requests fail their first
  ``fail_attempts`` attempts with the given ``kind`` (429/500/timeout).
  The wrapper is part of the backend spec, so chaos cells get their own
  cache identity and a resumed chaos run stays cache-consistent.
* ``kill-worker`` / ``poison`` — arm the streaming engine's existing
  :class:`~repro.engine.streaming.StreamFault` channel at the given
  chunk (``once=true`` by default; ``once=false`` exhausts the
  re-dispatch budget and must surface as a named error).
* ``sigint`` / ``sigterm`` / ``sigkill`` — deliver that signal to the
  run's own process after ``after-cells`` cells have committed.  Riding
  the cell-commit hook makes interrupt tests deterministic: the signal
  lands at an exact grid position, not a wall-clock race.
* ``corrupt-segment`` — flip bytes in one committed cache segment
  (seeded choice) before the run starts, exercising the
  corruption-detection → clean-recompute path.
"""

from __future__ import annotations

import os
import signal as signal_module
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, Optional

from repro.llm.backends.base import BackendSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExperimentEngine


class ChaosPlanError(ValueError):
    """A chaos plan string could not be parsed or validated."""


#: kind -> allowed param keys.
_EVENT_PARAMS: dict[str, frozenset[str]] = {
    "flaky": frozenset({"rate", "kind", "fail_attempts"}),
    "kill-worker": frozenset({"chunk", "once"}),
    "poison": frozenset({"chunk", "once"}),
    "sigint": frozenset({"after-cells"}),
    "sigterm": frozenset({"after-cells"}),
    "sigkill": frozenset({"after-cells"}),
    "corrupt-segment": frozenset(),
}

_SIGNALS = {
    "sigint": signal_module.SIGINT,
    "sigterm": signal_module.SIGTERM,
    "sigkill": signal_module.SIGKILL,
}

_FLAKY_KINDS = ("429", "500", "timeout")


@dataclass(frozen=True)
class ChaosEvent:
    """One parsed fault event."""

    kind: str
    params: tuple[tuple[str, str], ...] = ()

    def param(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for candidate, value in self.params:
            if candidate == key:
                return value
        return default

    def int_param(self, key: str, default: int) -> int:
        raw = self.param(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ChaosPlanError(
                f"chaos event {self.kind!r}: param {key}={raw!r} is not an integer"
            ) from None


@dataclass(frozen=True)
class ChaosPlan:
    """A parsed, validated chaos plan."""

    events: tuple[ChaosEvent, ...] = ()
    text: str = ""

    @classmethod
    def parse(cls, text: str) -> "ChaosPlan":
        events = []
        for raw_event in text.split(";"):
            raw_event = raw_event.strip()
            if not raw_event:
                continue
            parts = raw_event.split(":")
            kind = parts[0].strip()
            if kind not in _EVENT_PARAMS:
                raise ChaosPlanError(
                    f"unknown chaos event {kind!r}; expected one of "
                    f"{', '.join(sorted(_EVENT_PARAMS))}"
                )
            params = []
            for raw_param in parts[1:]:
                key, sep, value = raw_param.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ChaosPlanError(
                        f"bad chaos param {raw_param!r} in event {kind!r}; "
                        "expected key=value"
                    )
                if key not in _EVENT_PARAMS[kind]:
                    raise ChaosPlanError(
                        f"unknown param {key!r} for chaos event {kind!r}; "
                        f"allowed: {', '.join(sorted(_EVENT_PARAMS[kind])) or '(none)'}"
                    )
                params.append((key, value.strip()))
            event = ChaosEvent(kind=kind, params=tuple(params))
            _validate_event(event)
            events.append(event)
        if not events:
            raise ChaosPlanError(f"empty chaos plan {text!r}")
        return cls(events=tuple(events), text=text)

    def first(self, kind: str) -> Optional[ChaosEvent]:
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    @property
    def flaky(self) -> Optional[ChaosEvent]:
        return self.first("flaky")

    @property
    def stream_fault(self) -> Optional[ChaosEvent]:
        return self.first("kill-worker") or self.first("poison")

    @property
    def signal_event(self) -> Optional[ChaosEvent]:
        for event in self.events:
            if event.kind in _SIGNALS:
                return event
        return None

    @property
    def corrupts_segment(self) -> bool:
        return self.first("corrupt-segment") is not None


def _validate_event(event: ChaosEvent) -> None:
    if event.kind == "flaky":
        raw_rate = event.param("rate", "0.2")
        try:
            rate = float(raw_rate)
        except ValueError:
            raise ChaosPlanError(
                f"flaky rate {raw_rate!r} is not a number"
            ) from None
        if not 0.0 < rate <= 1.0:
            raise ChaosPlanError(f"flaky rate must be in (0, 1], got {rate}")
        kind = event.param("kind", "500")
        if kind not in _FLAKY_KINDS:
            raise ChaosPlanError(
                f"flaky kind {kind!r} not in {', '.join(_FLAKY_KINDS)}"
            )
    elif event.kind in ("kill-worker", "poison"):
        event.int_param("chunk", 0)
        once = event.param("once", "true").lower()
        if once not in ("true", "false"):
            raise ChaosPlanError(
                f"{event.kind} once={once!r}; expected true or false"
            )
    elif event.kind in _SIGNALS:
        after = event.int_param("after-cells", 1)
        if after < 1:
            raise ChaosPlanError(
                f"{event.kind} after-cells must be >= 1, got {after}"
            )


def wrap_backend_spec(spec: BackendSpec, plan: ChaosPlan, seed: int) -> BackendSpec:
    """Fold the plan's ``flaky`` event into the backend spec, if any.

    The chaos wrapper becomes *the* backend of record: it joins the
    spec fingerprint (chaos cells never alias clean cells in the
    cache) and it round-trips through the journal manifest, so a
    resumed chaos run re-creates the identical wrapper and its
    committed cells are warm hits.
    """
    flaky = plan.flaky
    if flaky is None:
        return spec
    if spec.name == "chaos":
        raise ChaosPlanError("backend is already chaos-wrapped")
    options = {
        "inner": spec.name,
        "rate": flaky.param("rate", "0.2"),
        "kind": flaky.param("kind", "500"),
        "fail_attempts": flaky.param("fail_attempts", "1"),
        "chaos_seed": str(seed),
    }
    options.update(spec.as_dict())
    return BackendSpec.build("chaos", options)


def apply_chaos(plan: ChaosPlan, engine: "ExperimentEngine") -> None:
    """Arm the plan's schedule events (faults + signals) on one run.

    Backend flakiness is *not* armed here — it travels inside the
    backend spec (see :func:`wrap_backend_spec`) so it survives the
    process boundary to pool workers.  Schedule events are one-shot by
    nature and are deliberately not re-armed on ``--resume``: resume
    is the recovery path, not a second chaos round.
    """
    from repro.engine.streaming import StreamFault

    fault_event = plan.stream_fault
    if fault_event is not None:
        engine.streaming.fault = StreamFault(
            kind="crash" if fault_event.kind == "kill-worker" else "poison",
            chunk=fault_event.int_param("chunk", 0),
            once=fault_event.param("once", "true").lower() == "true",
        )
    signal_event = plan.signal_event
    if signal_event is not None:
        target = _SIGNALS[signal_event.kind]
        remaining = signal_event.int_param("after-cells", 1)

        def deliver() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                os.kill(os.getpid(), target)

        engine.on_cell_commit = deliver


def corrupt_cache_segment(cache_dir: Path, seed: int = 0) -> Optional[Path]:
    """Flip bytes in one committed segment file (seeded choice).

    Returns the corrupted path, or None when the cache holds no cell
    segments yet (nothing to corrupt — e.g. a cold first run).  Cells of
    both data paths are stored as segments
    (``cells/xy/<key>/seg-*.json``).  The engine must respond with a
    cache miss or a loud :class:`~repro.engine.cache.CacheSegmentError`
    → clean recompute, never by serving wrong bytes.
    """
    root = Path(cache_dir)
    segments = sorted(root.glob("cells/*/*/seg-*.json"))
    if not segments:
        return None
    target = Random(f"chaos-corrupt:{seed}").choice(segments)
    payload = bytearray(target.read_bytes())
    if not payload:
        return None
    # Truncate to half and flip the first byte: breaks both JSON
    # structure and any content check, whatever the serialisation.
    payload = payload[: max(1, len(payload) // 2)]
    payload[0] ^= 0xFF
    target.write_bytes(bytes(payload))
    return target
