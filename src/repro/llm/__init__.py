"""Simulated LLM substrate: profiles, reasoning, verbalisation."""

from repro.llm.base import LLMResponse
from repro.llm.describer import describe_query, describe_statement
from repro.llm.profiles import (
    EQUIVALENCE,
    EXPLANATION,
    MODEL_PROFILES,
    PERFORMANCE,
    SYNTAX,
    TOKEN,
    ExplanationStyle,
    ModelProfile,
    TaskSkill,
    get_profile,
    model_names,
)
from repro.llm.simulated import SimulatedLLM

__all__ = [
    "LLMResponse",
    "SimulatedLLM",
    "ModelProfile",
    "TaskSkill",
    "ExplanationStyle",
    "MODEL_PROFILES",
    "get_profile",
    "model_names",
    "SYNTAX",
    "TOKEN",
    "PERFORMANCE",
    "EQUIVALENCE",
    "EXPLANATION",
    "describe_statement",
    "describe_query",
]
