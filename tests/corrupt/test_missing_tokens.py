"""Missing-token removal tests."""

import random

import pytest

from repro.corrupt import TOKEN_TYPES, remove_token

QUERY = (
    "SELECT s.plate, s.mjd, COUNT(*) AS n FROM SpecObj AS s "
    "JOIN PhotoObj AS p ON s.bestobjid = p.objid "
    "WHERE s.z > 0.5 AND p.ra BETWEEN 100 AND 200 GROUP BY s.plate, s.mjd"
)


class TestRemovalTypes:
    @pytest.mark.parametrize("token_type", TOKEN_TYPES)
    def test_each_type_removable_from_rich_query(self, token_type):
        removal = remove_token(QUERY, random.Random(1), token_type=token_type)
        assert removal is not None
        assert removal.token_type == token_type
        assert removal.text != QUERY
        assert len(removal.text) < len(QUERY)

    def test_keyword_removal_removes_keyword(self):
        removal = remove_token(QUERY, random.Random(2), token_type="keyword")
        assert removal.removed.upper() in QUERY.upper()
        # the removed word no longer appears at that position
        assert removal.text.split() != QUERY.split()

    def test_table_removal_targets_table_position(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj WHERE z > 1", random.Random(0), "table"
        )
        assert removal.removed == "SpecObj"
        assert removal.text == "SELECT plate FROM WHERE z > 1"

    def test_column_removal_not_a_function_name(self):
        removal = remove_token(
            "SELECT COUNT(z), plate FROM SpecObj", random.Random(0), "column"
        )
        assert removal.removed in ("z", "plate")

    def test_value_removal(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj WHERE z > 0.5", random.Random(0), "value"
        )
        assert removal.removed == "0.5"
        assert removal.text == "SELECT plate FROM SpecObj WHERE z >"

    def test_string_value_removal_takes_quotes(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj WHERE class = 'QSO'",
            random.Random(0),
            "value",
        )
        assert removal.removed == "'QSO'"
        assert "'" not in removal.text

    def test_alias_removal_after_as(self):
        removal = remove_token(
            "SELECT s.plate FROM SpecObj AS s", random.Random(0), "alias"
        )
        assert removal.removed == "s"
        assert removal.text == "SELECT s.plate FROM SpecObj AS"

    def test_comparison_removal(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj WHERE z > 0.5", random.Random(0), "comparison"
        )
        assert removal.removed == ">"
        assert removal.text == "SELECT plate FROM SpecObj WHERE z 0.5"


class TestPositions:
    def test_position_is_word_index(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj WHERE z > 0.5", random.Random(0), "table"
        )
        # words: 0=SELECT 1=plate 2=FROM 3=SpecObj
        assert removal.position == 3

    def test_position_of_comparison(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj WHERE z > 0.5",
            random.Random(0),
            "comparison",
        )
        assert removal.position == 6

    def test_qualified_column_position_counts_whole_word(self):
        removal = remove_token("SELECT s.plate FROM SpecObj AS s", random.Random(0), "column")
        assert removal.removed == "plate"
        assert removal.position == 1  # "s.plate" is word 1


def _applicable(text: str) -> set[str]:
    """The token types with a removable occurrence in *text*."""
    return {
        token_type
        for token_type in TOKEN_TYPES
        if remove_token(text, random.Random(0), token_type) is not None
    }


class TestApplicability:
    def test_rich_query_admits_every_type(self):
        assert _applicable(QUERY) == set(TOKEN_TYPES)

    def test_plain_select_lacks_alias(self):
        types = _applicable("SELECT plate FROM SpecObj")
        assert "alias" not in types
        assert "comparison" not in types
        assert "keyword" in types

    def test_returns_none_when_type_absent(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj", random.Random(0), token_type="alias"
        )
        assert removal is None

    def test_random_type_fallback(self):
        removal = remove_token("SELECT plate FROM SpecObj", random.Random(0))
        assert removal is not None
        assert removal.token_type in TOKEN_TYPES

    def test_unlexable_text_returns_none(self):
        assert remove_token("SELECT # FROM", random.Random(0)) is None

    def test_unknown_type_raises(self):
        with pytest.raises(KeyError):
            remove_token(QUERY, random.Random(0), token_type="emoji")


class TestDeterminism:
    def test_same_seed_same_removal(self):
        first = remove_token(QUERY, random.Random(7))
        second = remove_token(QUERY, random.Random(7))
        assert first == second

    def test_whitespace_collapsed(self):
        removal = remove_token(
            "SELECT plate FROM SpecObj", random.Random(0), "table"
        )
        assert "  " not in removal.text
