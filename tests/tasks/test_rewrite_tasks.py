"""The rewrite_equivalence / rewrite_speedup task wiring.

Covers registry dispatch, dataset construction, the request/parse path
through the simulated backend, and build-vs-streaming instance
identity.
"""

import pytest

from repro.llm.backends import SIMULATED_SPEC, create_backend
from repro.llm.profiles import get_profile
from repro.tasks import (
    PRIMARY_TASKS,
    REWRITE_EQUIVALENCE,
    REWRITE_SPEEDUP,
    REWRITE_TASKS,
    build_dataset,
)
from repro.tasks.registry import build_request, parse_answer, tasks_for_workload
from repro.tasks.streaming import iter_task_instances
from repro.workloads import load_workload

WORKLOAD_NAME = "synthetic:rewrite:n=4"


@pytest.fixture(scope="module")
def workload():
    return load_workload(WORKLOAD_NAME, seed=0)


@pytest.fixture(scope="module")
def backend():
    return create_backend(SIMULATED_SPEC, get_profile("gpt35"))


def _ask(backend, task, instance):
    """Answer one instance the way the grid does: ``(answer, response)``."""
    model = backend.profile.name
    response = backend.complete(build_request(task, model, instance))
    return parse_answer(task, instance, response, model), response


class TestRegistry:
    def test_rewrite_workloads_get_the_rewrite_tasks(self):
        tasks = tasks_for_workload(WORKLOAD_NAME)
        assert tasks == PRIMARY_TASKS + REWRITE_TASKS

    def test_plain_synthetic_workloads_do_not(self):
        assert REWRITE_EQUIVALENCE not in tasks_for_workload(
            "synthetic:default:n=4"
        )


class TestDatasets:
    def test_equivalence_dataset_has_both_classes(self, workload):
        dataset = build_dataset(
            REWRITE_EQUIVALENCE, workload, seed=0, max_instances=16
        )
        assert dataset.positives and dataset.negatives
        assert len(dataset.instances) == 16
        for instance in dataset.instances:
            assert instance.payload["query_1"] != instance.payload["query_2"]
            assert instance.label_type

    def test_speedup_dataset_carries_cost_detail_not_types(self, workload):
        dataset = build_dataset(
            REWRITE_SPEEDUP, workload, seed=0, max_instances=16
        )
        assert dataset.instances
        assert dataset.types_present() == []
        labels = {bool(i.label) for i in dataset.instances}
        assert labels == {True, False}
        for instance in dataset.instances:
            assert "families=" in instance.detail
            assert "cost_original=" in instance.detail

    def test_streaming_matches_build(self, workload):
        for task in REWRITE_TASKS:
            built = build_dataset(task, workload, seed=0, max_instances=12)
            streamed = list(
                iter_task_instances(task, workload, seed=0, max_instances=12)
            )
            assert [
                (i.instance_id, i.payload, i.label, i.label_type)
                for i in built.instances
            ] == [
                (i.instance_id, i.payload, i.label, i.label_type)
                for i in streamed
            ]

    def test_capped_speedup_build_stops_at_its_cap(self, monkeypatch):
        """A capped build draws no pair past its last instance: on this
        workload the 5th instance comes from the pair of the 12th
        verdict, and nothing is verified after it."""
        from repro.equivalence.checker import EquivalenceChecker

        verdicts = []
        verdict = EquivalenceChecker.verdict

        def counting_verdict(self, *args, **kwargs):
            verdicts.append(args)
            return verdict(self, *args, **kwargs)

        monkeypatch.setattr(EquivalenceChecker, "verdict", counting_verdict)
        source = load_workload("synthetic:rewrite:n=8", 0)
        instances = list(
            iter_task_instances(REWRITE_SPEEDUP, source, 0, max_instances=5)
        )
        assert len(instances) == 5
        assert len(verdicts) == 12
        assert list(iter_task_instances(REWRITE_SPEEDUP, source, 0, max_instances=0)) == []
        assert len(verdicts) == 12


class TestAskPath:
    def test_equivalence_extraction_matches_internal_decision(
        self, workload, backend
    ):
        dataset = build_dataset(
            REWRITE_EQUIVALENCE, workload, seed=0, max_instances=12
        )
        for instance in dataset.instances:
            answer, response = _ask(backend, REWRITE_EQUIVALENCE, instance)
            assert answer.predicted == response.metadata["says_equivalent"]

    def test_speedup_extraction_matches_internal_decision(
        self, workload, backend
    ):
        dataset = build_dataset(
            REWRITE_SPEEDUP, workload, seed=0, max_instances=12
        )
        for instance in dataset.instances:
            answer, response = _ask(backend, REWRITE_SPEEDUP, instance)
            assert answer.predicted == response.metadata["says_faster"]
