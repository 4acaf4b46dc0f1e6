"""Array container, deletion patterns, balls, residue interleaving, text IO."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    array_from_text,
    array_to_text,
    burst_deletion_ball,
    burst_deletion_ball_raw,
    delete_rows_cols,
    deletion_ball,
    deletion_ball_raw,
    enumerate_arrays,
    extract_residue_subarray,
    insertion_ball_raw,
    interleave_residue_subarrays,
    transpose,
)
from crisscross.errors import CapacityError, InvalidParameterError

X33 = Array2D([[0, 1, 2], [2, 0, 1], [1, 1, 0]], 3)


def small_arrays(max_side=3, max_q=3):
    return st.integers(2, max_q).flatmap(
        lambda q: st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
            lambda shape: st.lists(
                st.lists(st.integers(0, q - 1), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            ).map(lambda cells: Array2D(cells, q))
        )
    )


def test_array_construction_and_accessors():
    assert (X33.rows, X33.cols, X33.q) == (3, 3, 3)
    assert X33.at(1, 3) == 2
    assert X33.row(2) == (2, 0, 1)
    assert X33.col(2) == (1, 0, 1)
    assert X33.row_sums() == (0, 0, 2)
    assert X33.col_sums() == (0, 2, 0)
    with pytest.raises(InvalidParameterError):
        Array2D([[0, 1], [2]], 3)
    with pytest.raises(InvalidParameterError):
        Array2D([[0, 3]], 3)
    with pytest.raises(InvalidParameterError):
        Array2D([], 2)
    with pytest.raises(InvalidParameterError):
        Array2D([[0]], 1)
    with pytest.raises(AttributeError):
        X33.q = 4
    with pytest.raises(InvalidParameterError):
        X33.at(0, 1)


def _reference_cells(cells, q):
    """The per-cell int() normalisation and checks, as a reference for Array2D."""
    norm = tuple(tuple(int(v) for v in row) for row in cells)
    if not norm or not norm[0]:
        raise InvalidParameterError("arrays must have at least one row and one column")
    for row in norm:
        if len(row) != len(norm[0]):
            raise InvalidParameterError("ragged rows: all rows must share one length")
        for v in row:
            if not 0 <= v < q:
                raise InvalidParameterError(f"cell value {v} outside [0, {q})")
    return norm


def _array_cells(cells, q):
    out = Array2D(cells, q).cells
    assert all(type(v) is int for row in out for v in row)
    return out


def _outcome(build, cells, q):
    try:
        return build(cells, q)
    except InvalidParameterError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize(
    "cells, q, expected",
    [
        ([[True, False], [False, True]], 2, ((1, 0), (0, 1))),
        ([[1.0, 0.0]], 2, ((1, 0),)),
        ([[0, -1]], 2, ("error", "cell value -1 outside [0, 2)")),
        ([[0, 1], [2, 0]], 2, ("error", "cell value 2 outside [0, 2)")),
        ([[True, 2]], 2, ("error", "cell value 2 outside [0, 2)")),
        ([[0, 1], [1]], 2, ("error", "ragged rows: all rows must share one length")),
        ([[0, 5], [1]], 2, ("error", "cell value 5 outside [0, 2)")),
        ([], 2, ("error", "arrays must have at least one row and one column")),
        ([[]], 2, ("error", "arrays must have at least one row and one column")),
        ([[], [0]], 2, ("error", "arrays must have at least one row and one column")),
    ],
)
def test_array_normalises_and_rejects_like_per_cell_checks(cells, q, expected):
    assert _outcome(_reference_cells, cells, q) == expected
    assert _outcome(_array_cells, cells, q) == expected


def test_array_accepts_one_pass_iterables():
    x = Array2D((iter(row) for row in ((2, 1), (0, 2))), 3)
    assert x.cells == ((2, 1), (0, 2))


def test_array_with_huge_alphabet_allocates_nothing_alphabet_sized():
    tracemalloc.start()
    try:
        x = Array2D([[0, 1, 2], [3, 4, 5]], 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.cells == ((0, 1, 2), (3, 4, 5))
    assert peak < 64 * 1024


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(
        st.lists(
            st.one_of(st.integers(-1, 4), st.booleans(), st.sampled_from([0.0, 1.0, 2.0])),
            max_size=3,
        ),
        max_size=3,
    ),
)
def test_array_agrees_with_per_cell_reference(q, cells):
    assert _outcome(_array_cells, cells, q) == _outcome(_reference_cells, cells, q)


def test_array_equality_includes_alphabet():
    a = Array2D([[0, 1]], 2)
    b = Array2D([[0, 1]], 3)
    assert a != b
    assert a == Array2D([[0, 1]], 2)
    assert hash(a) == hash(Array2D([[0, 1]], 2))


def test_deletion_pattern_normalizes_and_validates():
    p = DeletionPattern((3, 1), (2,))
    assert p.rows == (1, 3)
    with pytest.raises(InvalidParameterError):
        DeletionPattern((1, 1), (2,))
    with pytest.raises(InvalidParameterError):
        DeletionPattern((0,), (1,))


def test_burst_pattern_windows():
    b = BurstPattern(2, 3, 2, 1)
    assert b.rows() == (2, 3)
    assert b.cols() == (3,)
    with pytest.raises(InvalidParameterError):
        BurstPattern(0, 1, 1, 1)


def test_delete_rows_cols_plain_and_burst():
    y = delete_rows_cols(X33, DeletionPattern((2,), (1,)))
    assert y == Array2D([[1, 2], [1, 0]], 3)
    z = delete_rows_cols(X33, BurstPattern(1, 2, 2, 2))
    assert z == Array2D([[1]], 3)
    with pytest.raises(InvalidParameterError):
        delete_rows_cols(X33, DeletionPattern((4,), (1,)))


def test_transpose():
    assert transpose(X33) == Array2D([[0, 2, 1], [1, 0, 1], [2, 1, 0]], 3)
    assert transpose(transpose(X33)) == X33


def test_deletion_ball_enumerates_all_minors():
    ball = deletion_ball_raw(X33, 1, 1)
    direct = {
        delete_rows_cols(X33, DeletionPattern((i,), (j,))).cells
        for i in range(1, 4)
        for j in range(1, 4)
    }
    assert ball == frozenset(direct)
    # canonical wrapper agrees
    assert {a.cells for a in deletion_ball(X33, 1, 1)} == direct


def test_burst_ball_is_subset_of_plain_ball():
    for x in itertools.islice(enumerate_arrays(3, 3, 2), 0, 64, 7):
        plain = deletion_ball_raw(x, 2, 2)
        burst = burst_deletion_ball_raw(x, 2, 2)
        assert burst <= plain
    b = burst_deletion_ball(X33, 2, 2)
    assert all(a.rows == 1 and a.cols == 1 for a in b)


def test_insertion_ball_matches_brute_force():
    # the insertion ball of x is exactly the set of arrays having x as a minor
    x = Array2D([[0, 0], [0, 0]], 2)
    ball = insertion_ball_raw(x, 1, 1)
    direct = {
        y.cells
        for y in enumerate_arrays(3, 3, 2)
        if x.cells in deletion_ball_raw(y, 1, 1)
    }
    assert ball == frozenset(direct)
    assert len(ball) == 178  # frozen from the brute force above


def test_enumerate_arrays_count_and_cap():
    arrays = list(enumerate_arrays(2, 2, 2))
    assert len(arrays) == 16
    assert len({a.cells for a in arrays}) == 16
    with pytest.raises(CapacityError):
        list(enumerate_arrays(5, 5, 3, cap=100))


def test_residue_extraction_shapes():
    sub = extract_residue_subarray(X33, 1, 1, 3, 3)
    assert sub == Array2D([[0]], 3)
    with pytest.raises(InvalidParameterError):
        extract_residue_subarray(X33, 4, 1, 3, 3)
    with pytest.raises(InvalidParameterError):
        extract_residue_subarray(X33, 1, 1, 2, 1)  # 2 does not divide 3


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(1, 2),
       st.integers(1, 2), st.integers(1, 2), st.randoms(use_true_random=False))
def test_interleave_inverts_extraction(q, t_r, t_c, m_r, m_c, rng):
    rows, cols = t_r * m_r, t_c * m_c
    x = Array2D([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], q)
    parts = [
        [extract_residue_subarray(x, s_r, s_c, t_r, t_c) for s_c in range(1, t_c + 1)]
        for s_r in range(1, t_r + 1)
    ]
    assert interleave_residue_subarrays(parts, t_r, t_c) == x


@settings(max_examples=60, deadline=None)
@given(small_arrays())
def test_text_round_trip(x):
    assert array_from_text(array_to_text(x)) == x


def test_text_parse_errors():
    with pytest.raises(InvalidParameterError):
        array_from_text("")
    with pytest.raises(InvalidParameterError):
        array_from_text("2 2\n0 0\n0 0\n")
    with pytest.raises(InvalidParameterError):
        array_from_text("2 2 2\n0 0\n")
    with pytest.raises(InvalidParameterError):
        array_from_text("1 2 2\n0 7\n")
