"""The model response type.

The reproduction talks to models the way the paper did: a prompt goes
in, verbose natural-language text comes out as an :class:`LLMResponse`,
and the response-processing pipeline (:mod:`repro.parsing`) extracts
labels.  ``SimulatedLLM`` is the offline stand-in for the five hosted
models; a :mod:`repro.llm.backends` backend swaps in any other model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LLMResponse:
    """One model response."""

    text: str
    model: str
    prompt: str = ""
    metadata: dict = field(default_factory=dict)

