"""The simulated LLM client.

Replaces the paper's five hosted models.  For each task the client first
derives the *true* answer — using the semantic analyzer, the describer,
or the instance's construction-time ground truth — then passes it through
the model's calibrated noise profile (:mod:`repro.llm.profiles`).  All
noise is seeded by ``(model, task, instance id)``, so experiments are
reproducible bit-for-bit and independent of evaluation order.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.analysis.complexity import complexity_score
from repro.llm import verbalize
from repro.llm.base import LLMResponse
from repro.llm.describer import describe_statement
from repro.llm.difficulty import (
    EQUIV_TYPE_CONFUSIONS,
    SYNTAX_TYPE_CONFUSIONS,
    TOKEN_TYPE_CONFUSIONS,
    equivalence_fp_boost,
    syntax_penalty,
    token_penalty,
)
from repro.llm.profiles import (
    EQUIVALENCE,
    PERFORMANCE,
    SYNTAX,
    TOKEN,
    ModelProfile,
    get_profile,
)
from repro.sql import nodes as n
from repro.sql.properties import QueryProperties
from repro.util import derive_rng

from repro.corrupt.missing_tokens import TOKEN_TYPES
from repro.corrupt.syntax_errors import ERROR_TYPES
from repro.equivalence.counter_transforms import NON_EQUIVALENCE_TYPES
from repro.equivalence.transforms import EQUIVALENCE_TYPES


def _clamp(value: float, low: float = 0.01, high: float = 0.995) -> float:
    return max(low, min(high, value))


def _excess(complexity: float, floor: float = 0.1) -> float:
    """Complexity above the floor that even weak models handle."""
    return max(complexity - floor, 0.0)


class SimulatedLLM:
    """One simulated model; construct via name or profile."""

    def __init__(self, model: str | ModelProfile) -> None:
        self.profile = model if isinstance(model, ModelProfile) else get_profile(model)

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def display_name(self) -> str:
        return self.profile.display_name

    def _rng(self, task: str, instance_id: str) -> random.Random:
        return derive_rng(self.profile.name, task, instance_id)

    # -- syntax_error ---------------------------------------------------------

    def answer_syntax_error(
        self,
        instance_id: str,
        query_text: str,
        workload: str,
        props: QueryProperties,
        truth_has_error: bool,
        truth_error_type: Optional[str],
        prompt_quality: float = 1.0,
    ) -> LLMResponse:
        skill = self.profile.skill(SYNTAX)
        rng = self._rng("syntax_error", instance_id)
        complexity = complexity_score(props)
        if truth_has_error:
            tpr = _clamp(
                (
                    skill.competence
                    - skill.complexity_sensitivity * _excess(complexity)
                    - skill.penalty_scale()
                    * syntax_penalty(workload, truth_error_type or "")
                    - skill.workload_penalty.get(workload, 0.0)
                )
                * prompt_quality
            )
            says_error = rng.random() < tpr
        else:
            fpr = _clamp(
                skill.false_alarm + skill.fp_complexity * complexity, 0.0, 0.9
            )
            says_error = rng.random() < fpr
        claimed_type: Optional[str] = None
        if says_error:
            claimed_type = self._claim_type(
                rng,
                truth_error_type if truth_has_error else None,
                skill.type_accuracy * prompt_quality,
                ERROR_TYPES,
                SYNTAX_TYPE_CONFUSIONS,
            )
        text = verbalize.typed_response(
            says_error,
            claimed_type,
            "syntax error",
            rng,
            self.profile.verbosity,
        )
        return LLMResponse(
            text=text,
            model=self.profile.name,
            metadata={"says_error": says_error, "claimed_type": claimed_type},
        )

    # -- miss_token -----------------------------------------------------------

    def answer_miss_token(
        self,
        instance_id: str,
        query_text: str,
        workload: str,
        props: QueryProperties,
        truth_missing: bool,
        truth_token_type: Optional[str],
        truth_token: Optional[str],
        truth_position: Optional[int],
        prompt_quality: float = 1.0,
    ) -> LLMResponse:
        skill = self.profile.skill(TOKEN)
        rng = self._rng("miss_token", instance_id)
        complexity = complexity_score(props)
        if truth_missing:
            tpr = _clamp(
                (
                    skill.competence
                    - skill.complexity_sensitivity * _excess(complexity)
                    - skill.penalty_scale()
                    * token_penalty(workload, truth_token_type or "")
                    - skill.workload_penalty.get(workload, 0.0)
                )
                * prompt_quality
            )
            says_missing = rng.random() < tpr
        else:
            fpr = _clamp(
                skill.false_alarm + skill.fp_complexity * complexity, 0.0, 0.9
            )
            says_missing = rng.random() < fpr
        claimed_type: Optional[str] = None
        claimed_token: Optional[str] = None
        claimed_position: Optional[int] = None
        if says_missing:
            claimed_type = self._claim_type(
                rng,
                truth_token_type if truth_missing else None,
                skill.type_accuracy * prompt_quality,
                TOKEN_TYPES,
                TOKEN_TYPE_CONFUSIONS,
            )
            claimed_token = truth_token if truth_missing else None
            claimed_position = self._claim_position(
                rng, skill, truth_position, props.word_count
            )
        text = verbalize.token_response(
            says_missing,
            claimed_type,
            claimed_token,
            claimed_position,
            rng,
            self.profile.verbosity,
        )
        return LLMResponse(
            text=text,
            model=self.profile.name,
            metadata={
                "says_missing": says_missing,
                "claimed_type": claimed_type,
                "claimed_position": claimed_position,
            },
        )

    def _claim_position(
        self,
        rng: random.Random,
        skill,
        truth_position: Optional[int],
        word_count: int,
    ) -> int:
        """Position prediction: exact with probability ``exact_location``,
        else jittered; jitter grows with query length (Table 5: long SDSS
        queries inflate MAE)."""
        if truth_position is None:
            return rng.randrange(max(word_count, 1))
        if rng.random() < skill.exact_location:
            return truth_position
        scale = skill.location_noise * (0.5 + word_count / 80.0)
        offset = 0
        while offset == 0:
            offset = round(rng.gauss(0.0, max(scale, 1.0)))
        claimed = truth_position + offset
        return max(0, min(claimed, max(word_count - 1, 0)))

    # -- performance_pred -------------------------------------------------------

    def answer_performance(
        self,
        instance_id: str,
        query_text: str,
        props: QueryProperties,
        truth_costly: bool,
        prompt_quality: float = 1.0,
    ) -> LLMResponse:
        skill = self.profile.skill(PERFORMANCE)
        rng = self._rng("performance_pred", instance_id)
        complexity = complexity_score(props)
        if truth_costly:
            tpr = _clamp(
                (skill.competence - skill.complexity_sensitivity * (1 - complexity))
                * prompt_quality
            )
            says_costly = rng.random() < tpr
        else:
            # The paper's key failure mode: long/wide queries *look* slow,
            # so false positives grow with perceived complexity (Fig 10).
            fpr = _clamp(
                skill.false_alarm + skill.fp_complexity * complexity, 0.0, 0.95
            )
            says_costly = rng.random() < fpr
        text = verbalize.runtime_response(says_costly, rng, self.profile.verbosity)
        return LLMResponse(
            text=text,
            model=self.profile.name,
            metadata={"says_costly": says_costly},
        )

    # -- rewrite_speedup --------------------------------------------------------

    def answer_speedup(
        self,
        instance_id: str,
        first_text: str,
        second_text: str,
        props: QueryProperties,
        truth_faster: bool,
        prompt_quality: float = 1.0,
    ) -> LLMResponse:
        """Judge whether a semantics-preserving rewrite speeds the query up.

        Reuses the performance skill: the same cost intuition that decides
        "slow or fast" decides "did this rewrite help", with the same
        complexity-driven false-positive mode — busy-looking rewrites of
        complex queries *look* like optimisations.
        """
        skill = self.profile.skill(PERFORMANCE)
        rng = self._rng("rewrite_speedup", instance_id)
        complexity = complexity_score(props)
        if truth_faster:
            tpr = _clamp(
                (
                    skill.competence
                    - skill.complexity_sensitivity * _excess(complexity)
                )
                * prompt_quality
            )
            says_faster = rng.random() < tpr
        else:
            fpr = _clamp(
                skill.false_alarm + skill.fp_complexity * complexity, 0.0, 0.95
            )
            says_faster = rng.random() < fpr
        reason_faster = (
            "The rewritten form avoids redundant work the original performs.",
            "The transformation simplifies the plan, so it should run faster.",
            "Collapsing the predicate structure reduces evaluation cost.",
        )
        reason_same = (
            "The rewrite is cosmetic; the engine would plan both the same way.",
            "Both forms scan the same data, so runtime should not improve.",
            "The optimizer already normalises this pattern; no speedup.",
        )
        text = verbalize.yes_no_response(
            says_faster,
            rng,
            self.profile.verbosity,
            rng.choice(reason_faster if says_faster else reason_same),
        )
        return LLMResponse(
            text=text,
            model=self.profile.name,
            metadata={"says_faster": says_faster},
        )

    # -- query_equiv -------------------------------------------------------------

    def answer_equivalence(
        self,
        instance_id: str,
        first_text: str,
        second_text: str,
        workload: str,
        props: QueryProperties,
        truth_equivalent: bool,
        truth_pair_type: Optional[str],
        prompt_quality: float = 1.0,
    ) -> LLMResponse:
        skill = self.profile.skill(EQUIVALENCE)
        rng = self._rng("query_equiv", instance_id)
        complexity = complexity_score(props)
        if truth_equivalent:
            tpr = _clamp(
                (
                    skill.competence
                    - skill.complexity_sensitivity * _excess(complexity)
                )
                * prompt_quality
            )
            says_equivalent = rng.random() < tpr
        else:
            # FP rate grows with query complexity — predicate volume above
            # all (section 4.4: all Join-Order FPs had 19+ predicates) —
            # and with how subtle the modification is (value/logical
            # changes fool models most).
            from repro.analysis.complexity import property_complexity

            predicate_pressure = property_complexity(props, "predicate_count")
            mix = 0.5 * complexity + 0.5 * predicate_pressure**2
            fpr = _clamp(
                skill.false_alarm
                + skill.workload_penalty.get(workload, 0.0)
                + skill.fp_complexity
                * mix
                * equivalence_fp_boost(truth_pair_type or ""),
                0.0,
                0.9,
            )
            says_equivalent = rng.random() < fpr
        claimed_type: Optional[str] = None
        if says_equivalent:
            pool = EQUIVALENCE_TYPES
            truth_for_type = truth_pair_type if truth_equivalent else None
            claimed_type = self._claim_type(
                rng,
                truth_for_type,
                skill.type_accuracy * prompt_quality,
                pool,
                EQUIV_TYPE_CONFUSIONS,
            )
        elif truth_pair_type is not None:
            pool = NON_EQUIVALENCE_TYPES
            truth_for_type = truth_pair_type if not truth_equivalent else None
            claimed_type = self._claim_type(
                rng,
                truth_for_type,
                skill.type_accuracy * prompt_quality,
                pool,
                EQUIV_TYPE_CONFUSIONS,
            )
        text = verbalize.equivalence_response(
            says_equivalent, claimed_type, rng, self.profile.verbosity
        )
        return LLMResponse(
            text=text,
            model=self.profile.name,
            metadata={
                "says_equivalent": says_equivalent,
                "claimed_type": claimed_type,
            },
        )

    # -- query_exp ------------------------------------------------------------------

    def answer_explanation(
        self,
        instance_id: str,
        query_text: str,
        statement: Optional[n.Statement],
        prompt_quality: float = 1.0,
    ) -> LLMResponse:
        rng = self._rng("query_exp", instance_id)
        style = self.profile.explanation
        if statement is None:
            return LLMResponse(
                text="This query could not be interpreted.",
                model=self.profile.name,
                metadata={"flaws": ["unparseable"]},
            )
        text = describe_statement(statement)
        flaws: list[str] = []
        if rng.random() < style.superlative_invert * (2.0 - prompt_quality):
            inverted = _invert_superlatives(text)
            if inverted != text:
                text = inverted
                flaws.append("superlative-invert")
        if rng.random() < style.detail_drop:
            dropped = _drop_selected_details(text)
            if dropped != text:
                text = dropped
                flaws.append("detail-drop")
        if rng.random() < style.context_loss:
            reduced = _drop_context(text)
            if reduced != text:
                text = reduced
                flaws.append("context-loss")
        return LLMResponse(
            text=text,
            model=self.profile.name,
            metadata={"flaws": flaws},
        )

    # -- shared helpers ---------------------------------------------------------------

    def _claim_type(
        self,
        rng: random.Random,
        truth_type: Optional[str],
        type_accuracy: float,
        pool: Sequence[str],
        confusions: dict[str, tuple[str, ...]],
    ) -> str:
        if truth_type is not None and rng.random() < _clamp(type_accuracy):
            return truth_type
        if truth_type is not None:
            neighbours = confusions.get(truth_type, ())
            if neighbours and rng.random() < 0.75:
                return rng.choice(list(neighbours))
        return rng.choice(list(pool))


def _invert_superlatives(text: str) -> str:
    """Misread ORDER BY direction (the Q18 failure: slowest vs fastest)."""
    swaps = {
        "lowest": "highest",
        "highest": "lowest",
        "ascending": "descending",
        "descending": "ascending",
        "minimum": "maximum",
        "maximum": "minimum",
    }
    for old, new in swaps.items():
        if old in text:
            return text.replace(old, new, 1)
    return text


def _drop_selected_details(text: str) -> str:
    """Omit part of the select list (the Q17 failure: missing attributes)."""
    for connector in (" and ", ", "):
        head, sep, tail = text.partition(connector)
        if sep and (" from " in tail or " where " in tail):
            for boundary in (" from ", " where "):
                if boundary in tail:
                    return head + boundary + tail.split(boundary, 1)[1]
    return text


def _drop_context(text: str) -> str:
    """Reduce the description to its head clause (the Q15/Q16 failure)."""
    for boundary in (" where ", " from "):
        if boundary in text:
            head = text.split(boundary, 1)[0]
            return head.rstrip(",. ") + "."
    return text
