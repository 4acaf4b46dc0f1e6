"""Deletion balls and the codebook oracle against reference implementations.

The references are the direct definitions: a minor is every cell whose row
and column survive (filtered through frozensets), a ball is the set of minors
over every pattern, and the oracle builds each codeword's ball, then brackets
the first deleted row and column over every pattern that yields the input.
"""
import itertools
import random

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
    packed_deletion_ball,
    unpack_minor,
)
from crisscross.errors import AmbiguityError, NotACodewordError
from crisscross.outcome import DecodeOutcome
from crisscross.verify import VerificationReport, decode_by_codebook, verify_codebook


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


def _twin(rng, x, t):
    """x with t consecutive rows and t consecutive columns redrawn: the two
    share a (t, t) minor, plain and burst."""
    r, c = rng.randrange(x.rows - t + 1), rng.randrange(x.cols - t + 1)
    return Array2D(
        [
            [rng.randrange(x.q) if r <= i < r + t or c <= j < c + t else v
             for j, v in enumerate(row)]
            for i, row in enumerate(x.cells)
        ],
        x.q,
    )


def _seeded_book(seed, n, q, t):
    """Eight random n x n arrays, then two planted twins and a duplicate."""
    rng = random.Random(seed)
    book = [Array2D([[rng.randrange(q) for _ in range(n)] for _ in range(n)], q)
            for _ in range(8)]
    return book + [_twin(rng, book[1], t), _twin(rng, book[5], t), book[3]]


def _tuple_key_report(book, t, mode):
    """verify_codebook's report from the cell-tuple balls: every pair whose
    balls meet, in order, with the least minor they share."""
    ball = burst_deletion_ball_raw if mode == "burst" else deletion_ball_raw
    balls = [ball(x, t, t) for x in book]
    violations = tuple(
        ((i, j), Array2D(min(balls[i] & balls[j]), book[i].q))
        for i, j in itertools.combinations(range(len(book)), 2)
        if balls[i] & balls[j]
    )
    return VerificationReport(len(book) * (len(book) - 1) // 2, violations, not violations)


def _unpacked(key, width):
    return tuple(zip(*[iter(key)] * width))


@pytest.mark.parametrize("seed, n, q, t, mode", [
    (1, 6, 2, 1, "plain"), (2, 6, 3, 1, "burst"), (3, 8, 2, 2, "plain"),
    (4, 8, 3, 2, "burst"), (5, 10, 3, 1, "plain"), (6, 10, 2, 2, "burst"),
    (7, 12, 3, 2, "plain"), (8, 12, 2, 2, "burst"),
])
def test_packed_keys_give_the_tuple_key_report(seed, n, q, t, mode):
    book = _seeded_book(seed, n, q, t)
    report = verify_codebook(book, t, t, mode)
    want = _tuple_key_report(book, t, mode)
    assert {(1, 8), (5, 9), (3, 10)} <= {pair for pair, _ in report.violations}
    assert report == want
    assert [w.cells for _, w in report.violations] == [w.cells for _, w in want.violations]
    assert report.to_lines() == want.to_lines()


@pytest.mark.parametrize("burst", [False, True])
def test_packed_keys_sort_as_the_cell_tuples(burst):
    rng = random.Random(17)
    for n, q, t in ((6, 2, 1), (7, 3, 2), (6, 256, 1)):
        x = Array2D([[rng.randrange(q) for _ in range(n)] for _ in range(n)], q)
        keys = packed_deletion_ball(x, t, t, burst)
        cells = (burst_deletion_ball_raw if burst else deletion_ball_raw)(x, t, t)
        assert all(isinstance(key, bytes) for key in keys)
        assert [_unpacked(key, n - t) for key in sorted(keys)] == sorted(cells)
        assert unpack_minor(min(keys), n - t, q).cells == min(cells)


def test_books_over_more_than_256_symbols_keep_cell_tuple_keys():
    rng = random.Random(257)
    book = [Array2D([[rng.randrange(257) for _ in range(5)] for _ in range(5)], 257)
            for _ in range(4)]
    book += [_twin(rng, book[0], 1), book[2]]
    assert packed_deletion_ball(book[0], 1, 1) == deletion_ball_raw(book[0], 1, 1)
    for mode in ("plain", "burst"):
        report = verify_codebook(book, 1, 1, mode)
        assert report == _tuple_key_report(book, 1, mode)
        assert {(0, 4), (2, 5)} <= {pair for pair, _ in report.violations}


def test_empty_and_one_codeword_books_have_no_pairs():
    x = _seeded_book(0, 6, 2, 1)[0]
    for book in ([], [x]):
        for mode in ("plain", "burst"):
            assert verify_codebook(book, 1, 1, mode) == VerificationReport(0, (), True)
