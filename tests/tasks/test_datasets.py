"""Task dataset builder tests (the section 3.2 generation pipeline)."""

import pytest

from repro.analysis import SemanticAnalyzer, paper_violations
from repro.corrupt import ERROR_TYPES, TOKEN_TYPES
from repro.tasks import build_dataset
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def sdss():
    return load_workload("sdss", seed=0)


@pytest.fixture(scope="module")
def spider():
    return load_workload("spider", seed=0)


class TestSyntaxErrorDataset:
    @pytest.fixture(scope="class")
    def dataset(self, sdss):
        return build_dataset("syntax_error", sdss, seed=0)

    def test_covers_workload(self, dataset, sdss):
        assert len(dataset) == len(sdss)

    def test_positive_fraction_near_target(self, dataset):
        positives = len(dataset.positives)
        assert 0.55 <= positives / len(dataset) <= 0.8

    def test_positive_labels_carry_types(self, dataset):
        for instance in dataset.positives:
            assert instance.label_type in ERROR_TYPES

    def test_negative_labels_have_no_type(self, dataset):
        for instance in dataset.negatives:
            assert instance.label_type is None

    def test_labels_verified_by_analyzer(self, dataset, sdss):
        analyzer = SemanticAnalyzer(sdss.schemas["sdss"])
        for instance in dataset.instances[:80]:
            violations = analyzer.analyze_sql(instance.payload["query"])
            codes = {v.code for v in violations}
            if instance.label:
                assert instance.label_type in codes, instance.payload["query"]
            else:
                assert not paper_violations(violations)

    def test_deterministic(self, sdss):
        first = build_dataset("syntax_error", sdss, seed=5)
        second = build_dataset("syntax_error", sdss, seed=5)
        assert [i.payload["query"] for i in first] == [
            i.payload["query"] for i in second
        ]

    def test_all_error_types_represented(self, dataset):
        present = {i.label_type for i in dataset.positives}
        assert present == set(ERROR_TYPES)


class TestMissTokenDataset:
    @pytest.fixture(scope="class")
    def dataset(self, sdss):
        return build_dataset("miss_token", sdss, seed=0)

    def test_positive_instances_differ_from_source(self, dataset, sdss):
        by_id = {q.query_id: q for q in sdss.queries}
        for instance in dataset.positives[:60]:
            source = by_id[instance.source_query_id]
            assert instance.payload["query"] != source.text

    def test_positions_within_source_word_count(self, dataset, sdss):
        by_id = {q.query_id: q for q in sdss.queries}
        for instance in dataset.positives:
            source = by_id[instance.source_query_id]
            assert 0 <= instance.position < source.properties.word_count

    def test_all_token_types_represented(self, dataset):
        present = {i.label_type for i in dataset.positives}
        assert present == set(TOKEN_TYPES)

    def test_removed_token_recorded(self, dataset):
        for instance in dataset.positives[:40]:
            assert instance.removed_token


class TestPerformanceDataset:
    def test_sdss_only_runtime_labels(self, sdss):
        dataset = build_dataset("performance_pred", sdss)
        assert len(dataset) == 285
        costly = len(dataset.positives)
        assert 0.08 <= costly / len(dataset) <= 0.22  # paper: 41/285

    def test_no_runtime_no_instances(self):
        spider = load_workload("spider", seed=0)
        dataset = build_dataset("performance_pred", spider)
        assert len(dataset) == 0


class TestQueryEquivDataset:
    def test_pairs_have_two_queries(self, sdss):
        dataset = build_dataset("query_equiv", sdss, seed=0, max_instances=30)
        assert len(dataset) >= 20
        for instance in dataset.instances:
            assert "query_1" in instance.payload
            assert "query_2" in instance.payload


class TestQueryExpDataset:
    def test_gold_descriptions_attached(self, spider):
        dataset = build_dataset("query_exp", spider)
        assert len(dataset) == 200
        assert all(i.gold_text for i in dataset.instances)
