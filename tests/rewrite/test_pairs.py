"""Rewrite-pair generation: labels, provenance, determinism, coverage."""

from repro.equivalence import NON_EQUIVALENCE_TYPES, iter_verified_pairs
from repro.rewrite.catalog import REWRITE_FAMILIES, catalog_fingerprint
from repro.rewrite.pairs import CHAIN_STEPS, RewritePairs
from repro.workloads import load_workload


def _workload():
    return load_workload("synthetic:rewrite:n=4", seed=0)


def _pairs(workload, families=None, **kwargs):
    return list(iter_verified_pairs(workload, RewritePairs(families), **kwargs))


class TestPairGeneration:
    def test_both_polarities_with_chain_provenance(self):
        pairs = _pairs(_workload(), seed=0, max_pairs=24)
        positives = [p for p in pairs if p.equivalent]
        negatives = [p for p in pairs if not p.equivalent]
        assert positives and negatives
        for pair in positives:
            families = pair.pair_type.split("+")
            assert 1 <= len(families) <= CHAIN_STEPS
            assert set(families) <= set(REWRITE_FAMILIES)
        for pair in negatives:
            assert pair.pair_type in NON_EQUIVALENCE_TYPES
        assert len({p.pair_id for p in pairs}) == len(pairs)

    def test_generation_is_deterministic(self):
        first = _pairs(_workload(), seed=0, max_pairs=12)
        second = _pairs(_workload(), seed=0, max_pairs=12)
        assert [
            (p.pair_id, p.first_text, p.second_text, p.equivalent, p.pair_type)
            for p in first
        ] == [
            (p.pair_id, p.first_text, p.second_text, p.equivalent, p.pair_type)
            for p in second
        ]

    def test_texts_differ_within_each_pair(self):
        for pair in _pairs(_workload(), seed=0, max_pairs=12):
            assert pair.first_text != pair.second_text


class TestFamilyRestriction:
    def test_each_family_is_generatable_alone(self):
        # Also pins coverage for families that only exist after seeding
        # (distinct-elim) or via dedicated strata (setop-exists).
        workload = _workload()
        for family in REWRITE_FAMILIES:
            # No max_pairs: families whose sites live in late strata
            # (e.g. subquery-cte in the nest strata) would otherwise be
            # crowded out by early counter-transform negatives.
            pairs = _pairs(workload, (family,), seed=0)
            positives = [p for p in pairs if p.equivalent]
            assert positives, family
            for pair in positives:
                assert set(pair.pair_type.split("+")) == {family}, (family, pair.pair_type)

    def test_fingerprint_tracks_the_selection(self):
        full = catalog_fingerprint()
        restricted = catalog_fingerprint(("or-in",))
        assert full != restricted
        assert catalog_fingerprint(("or-in",)) == restricted
