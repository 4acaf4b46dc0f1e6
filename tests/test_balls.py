"""Deletion balls and the codebook oracle against reference implementations.

The references are the direct definitions: a minor is every cell whose row
and column survive (filtered through frozensets), a ball is the set of minors
over every pattern, and the oracle builds each codeword's ball, then brackets
the first deleted row and column over every pattern that yields the input.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.core_array import (
    Array2D,
    DeletionPattern,
    burst_deletion_ball_raw,
    delete_rows_cols,
    deletion_ball_raw,
    enumerate_arrays,
)
from crisscross.errors import AmbiguityError, NotACodewordError
from crisscross.outcome import DecodeOutcome
from crisscross.verify import decode_by_codebook


def _ref_minor(cells, drop_r, drop_c):
    return tuple(
        tuple(v for j, v in enumerate(row) if j not in drop_c)
        for i, row in enumerate(cells)
        if i not in drop_r
    )


def _ref_index_sets(size, t, burst):
    if burst:
        return [frozenset(range(s, s + t)) for s in range(size - t + 1)]
    return [frozenset(c) for c in itertools.combinations(range(size), t)]


def _ref_ball(x, t_r, t_c, burst):
    return frozenset(
        _ref_minor(x.cells, dr, dc)
        for dr in _ref_index_sets(x.rows, t_r, burst)
        for dc in _ref_index_sets(x.cols, t_c, burst)
    )


def _ref_decode(y, arrays, t_r, t_c, mode):
    """The oracle as first written: build every ball, then enumerate patterns."""
    burst = mode == "burst"
    hits = []
    for x in arrays:
        if y.cells in _ref_ball(x, t_r, t_c, burst) and all(x != seen for seen in hits):
            hits.append(x)
    if not hits:
        raise NotACodewordError("no codeword's ball contains the input")
    if len(hits) > 1:
        raise AmbiguityError(f"{len(hits)} codewords explain the input")
    x = hits[0]
    if burst:
        patterns = [
            (tuple(range(r0, r0 + t_r)), tuple(range(c0, c0 + t_c)))
            for r0 in range(1, x.rows - t_r + 2)
            for c0 in range(1, x.cols - t_c + 2)
        ]
    else:
        patterns = itertools.product(
            itertools.combinations(range(1, x.rows + 1), t_r),
            itertools.combinations(range(1, x.cols + 1), t_c),
        )
    matched = [
        (rr[0], cc[0])
        for rr, cc in patterns
        if _ref_minor(x.cells, {i - 1 for i in rr}, {j - 1 for j in cc}) == y.cells
    ]
    rows = [r for r, _ in matched]
    cols = [c for _, c in matched]
    return DecodeOutcome(
        array=x,
        row_interval=(min(rows), max(rows)),
        col_interval=(min(cols), max(cols)),
        path="codebook",
    )


def _outcome(decode, *args):
    try:
        return decode(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


@st.composite
def _arrays_and_widths(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    q = draw(st.sampled_from((2, 3)))
    cells = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
    t_r = draw(st.integers(0, min(2, rows - 1)))
    t_c = draw(st.integers(0, min(2, cols - 1)))
    return Array2D(cells, q), t_r, t_c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_arrays_and_widths())
def test_balls_equal_the_reference(case):
    x, t_r, t_c = case
    assert deletion_ball_raw(x, t_r, t_c) == _ref_ball(x, t_r, t_c, burst=False)
    assert burst_deletion_ball_raw(x, t_r, t_c) == _ref_ball(x, t_r, t_c, burst=True)
    for rr in itertools.combinations(range(1, x.rows + 1), t_r):
        for cc in itertools.combinations(range(1, x.cols + 1), t_c):
            want = _ref_minor(x.cells, {i - 1 for i in rr}, {j - 1 for j in cc})
            assert delete_rows_cols(x, DeletionPattern(rr, cc)).cells == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_oracle_equals_the_reference_on_small_books(data):
    rows, cols = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    t_r, t_c = data.draw(st.integers(1, rows - 1)), data.draw(st.integers(1, cols - 1))
    cells = st.lists(
        st.lists(st.integers(0, 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    book = [Array2D(c, 2) for c in data.draw(st.lists(cells, min_size=1, max_size=4))]
    mode = data.draw(st.sampled_from(("plain", "burst")))
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(book))
        minors = sorted(_ref_ball(x, t_r, t_c, mode == "burst"))
        y = Array2D(data.draw(st.sampled_from(minors)), 2)
    else:
        y = Array2D(
            data.draw(st.lists(
                st.lists(st.integers(0, 1), min_size=cols - t_c, max_size=cols - t_c),
                min_size=rows - t_r, max_size=rows - t_r,
            )),
            2,
        )
    args = (y, book, t_r, t_c, mode)
    assert _outcome(decode_by_codebook, *args) == _outcome(_ref_decode, *args)


@pytest.mark.parametrize("t_r, t_c", [(1, 1), (2, 1), (1, 2)])
def test_oracle_equals_the_reference_on_every_3x3_binary_codeword(t_r, t_c):
    minors = list(enumerate_arrays(3 - t_r, 3 - t_c, 2))
    for x in enumerate_arrays(3, 3, 2):
        for mode in ("plain", "burst"):
            for y in minors:
                args = (y, [x], t_r, t_c, mode)
                assert _outcome(decode_by_codebook, *args) == _outcome(_ref_decode, *args)
