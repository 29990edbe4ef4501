"""``results_equal`` normalises cells only when the raw results differ.

Equal raw results (same cells, same cell types) stay equal after float
normalisation, so the comparison answers them without normalising.
The property test holds the function to the normalise-everything
definition it replaced, over the inputs where a shortcut could go
wrong: floats on either side of a rounding boundary, NaN (shared and
distinct objects), None, ints equal to floats, and ordered comparison.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import sqlite_backend
from repro.data.sqlite_backend import QueryResult, results_equal


def reference_results_equal(
    first: QueryResult, second: QueryResult, ordered: bool = False
) -> bool:
    """The comparison as defined before the raw fast path."""
    normalise = sqlite_backend._normalise_cell
    if len(first.columns) != len(second.columns):
        return False
    first_rows = [tuple(normalise(c) for c in row) for row in first.rows]
    second_rows = [tuple(normalise(c) for c in row) for row in second.rows]
    if ordered:
        return first_rows == second_rows
    return Counter(first_rows) == Counter(second_rows)


class TestRawEqualResultsSkipNormalisation:
    def test_normalise_cell_is_never_called(self, monkeypatch):
        calls = []

        def counting(cell):
            calls.append(cell)
            return cell

        monkeypatch.setattr(sqlite_backend, "_normalise_cell", counting)
        rows = [(1, 0.1 + 0.2, "x", None), (2, 1234567.0499994, "y", 3.5)]
        first = QueryResult(columns=["a", "b", "c", "d"], rows=rows)
        permuted = QueryResult(columns=["w", "x", "y", "z"], rows=rows[::-1])
        copied = QueryResult(columns=["a", "b", "c", "d"], rows=list(rows))
        assert results_equal(first, permuted)
        assert results_equal(first, copied, ordered=True)
        assert calls == []

    def test_a_raw_mismatch_still_normalises(self, monkeypatch):
        calls = []

        def counting(cell):
            calls.append(cell)
            return math.floor(cell) if isinstance(cell, float) else cell

        monkeypatch.setattr(sqlite_backend, "_normalise_cell", counting)
        first = QueryResult(columns=["a"], rows=[(1.25,)])
        second = QueryResult(columns=["a"], rows=[(1.5,)])
        assert results_equal(first, second)
        assert calls == [1.25, 1.5]

    def test_an_int_never_matches_a_float_it_normalises_away_from(self):
        # 12345678 == 12345678.0, but normalisation rounds the float to
        # 12345680.0; the raw match must not pair the two.
        first = QueryResult(columns=["a"], rows=[(12345678,)])
        second = QueryResult(columns=["a"], rows=[(12345678.0,)])
        assert not reference_results_equal(first, second)
        assert not results_equal(first, second)
        assert not results_equal(first, second, ordered=True)


SHARED_NAN = float("nan")

#: Values just either side of the points where six significant digits
#: round differently, at small and large magnitudes.
_BOUNDARIES = (0.1234565, 1.0000005, 2.5e-7, 1234567.05, 98765432.5, -1234567.05)

floats_near_boundaries = st.builds(
    lambda base, ulps: base + ulps * math.ulp(base),
    st.sampled_from(_BOUNDARIES),
    st.integers(-3, 3),
)

cells = st.one_of(
    floats_near_boundaries,
    st.floats(allow_nan=False, width=64),
    st.just(SHARED_NAN),
    st.builds(float, st.just("nan")),
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0]),
    st.none(),
    st.integers(-5, 5),
    st.sampled_from([12345678, 1234567, 98765432, 2**60]),
    st.sampled_from(["a", "b"]),
)


@st.composite
def result_pairs(draw):
    width = draw(st.integers(1, 3))
    row = st.tuples(*[cells] * width)
    first = draw(st.lists(row, max_size=5))
    # Half the pairs start from a permutation of the first result, so
    # raw-equal and near-equal pairs are common; each cell may then be
    # swapped for a fresh draw or for the float/int of the same value.
    second = draw(st.permutations(first)) if draw(st.booleans()) else draw(
        st.lists(row, max_size=5)
    )
    mutated = []
    for values in second:
        cells_out = []
        for cell in values:
            choice = draw(st.integers(0, 5))
            if choice == 0:
                cell = draw(cells)
            elif choice == 1 and isinstance(cell, int) and not isinstance(cell, bool):
                cell = float(cell)
            elif choice == 2 and isinstance(cell, float) and cell.is_integer():
                cell = int(cell)
            cells_out.append(cell)
        mutated.append(tuple(cells_out))
    second_width = width if draw(st.integers(0, 9)) else width + 1
    return (
        QueryResult(columns=["c"] * width, rows=first),
        QueryResult(columns=["c"] * second_width, rows=mutated),
    )


@settings(max_examples=400, deadline=None)
@given(pair=result_pairs(), ordered=st.booleans())
def test_matches_the_normalise_everything_definition(pair, ordered):
    first, second = pair
    expected = reference_results_equal(first, second, ordered=ordered)
    assert results_equal(first, second, ordered=ordered) == expected
    assert results_equal(second, first, ordered=ordered) == expected
