"""Tests for answer extraction from simulated responses.

These exercise the complete prompt -> simulated response -> extraction
path for every task (``build_request`` -> backend -> ``parse_answer``),
verifying that extracted labels agree with the simulation's internal
decision (no information loss in the text channel).
"""

import pytest

from repro.llm.backends import SIMULATED_SPEC, create_backend
from repro.llm.profiles import get_profile
from repro.tasks import build_dataset, explanation_overlap_f1
from repro.tasks.registry import build_request, parse_answer
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def sdss():
    return load_workload("sdss", seed=0)


@pytest.fixture(scope="module")
def backend():
    return create_backend(SIMULATED_SPEC, get_profile("gpt35"))


def _ask(backend, task, instance):
    """Answer one instance the way the grid does: ``(answer, response)``."""
    model = backend.profile.name
    response = backend.complete(build_request(task, model, instance))
    return parse_answer(task, instance, response, model), response


class TestSyntaxAsk:
    def test_extraction_matches_internal_decision(self, sdss, backend):
        dataset = build_dataset("syntax_error", sdss, seed=0)
        for instance in dataset.instances[:60]:
            answer, response = _ask(backend, "syntax_error", instance)
            assert answer.predicted == response.metadata["says_error"]
            if response.metadata["claimed_type"] is not None:
                assert answer.predicted_type == response.metadata["claimed_type"]

    def test_answer_carries_model_and_text(self, sdss, backend):
        dataset = build_dataset("syntax_error", sdss, seed=0)
        answer, _ = _ask(backend, "syntax_error", dataset.instances[0])
        assert answer.model == "gpt35"
        assert answer.response_text


class TestMissTokenAsk:
    def test_position_extraction_round_trip(self, sdss, backend):
        dataset = build_dataset("miss_token", sdss, seed=0)
        for instance in dataset.positives[:60]:
            answer, response = _ask(backend, "miss_token", instance)
            assert answer.predicted == response.metadata["says_missing"]
            assert answer.predicted_position == response.metadata["claimed_position"]


class TestEquivAsk:
    def test_equivalence_extraction(self, sdss, backend):
        dataset = build_dataset("query_equiv", sdss, seed=0, max_instances=25)
        for instance in dataset.instances:
            answer, response = _ask(backend, "query_equiv", instance)
            assert answer.predicted == response.metadata["says_equivalent"]


class TestPerformanceAsk:
    def test_costly_extraction(self, sdss, backend):
        dataset = build_dataset("performance_pred", sdss)
        for instance in dataset.instances[:60]:
            answer, response = _ask(backend, "performance_pred", instance)
            assert answer.predicted == response.metadata["says_costly"]


class TestExplanationAsk:
    def test_explanation_and_flaws(self, backend):
        spider = load_workload("spider", seed=0)
        dataset = build_dataset("query_exp", spider)
        answer, _ = _ask(backend, "query_exp", dataset.instances[0])
        assert answer.explanation
        assert isinstance(answer.flaws, tuple)


class TestOverlapF1:
    def test_identical_text_scores_one(self):
        assert explanation_overlap_f1("count rows per college", "count rows per college") == 1.0

    def test_disjoint_text_scores_zero(self):
        assert explanation_overlap_f1("apples oranges", "trains planes") == 0.0

    def test_partial_overlap_between(self):
        score = explanation_overlap_f1(
            "count the students per college", "count the players per college"
        )
        assert 0.0 < score < 1.0

    def test_empty_inputs(self):
        assert explanation_overlap_f1("", "anything") == 0.0
        assert explanation_overlap_f1("anything", "") == 0.0

    def test_detail_drop_lowers_score(self):
        gold = "find the name and location of stadiums hosting concerts"
        full = "Find the name and location of stadiums hosting concerts."
        dropped = "Find the name of stadiums hosting concerts."
        assert explanation_overlap_f1(gold, full) > explanation_overlap_f1(
            gold, dropped
        )
