"""Band-syndrome single-deletion code: membership, interval location, decoding."""

import random

import pytest

from crisscross.code_c2 import (
    C2Params,
    c2_check,
    c2_decode,
    c2_locate_intervals,
    c2_syndromes,
    default_band_height,
)
from crisscross.core_array import Array2D, DeletionPattern, delete_rows_cols, enumerate_arrays
from crisscross.errors import (
    AmbiguityError,
    InvalidParameterError,
    NotACodewordError,
)
from crisscross.reprs import is_l_valid
from crisscross.verify import sample_valid


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        C2Params(rows=5, cols=5, q=2, l=2, a=(0,) * 5, b=(0,) * 4,
                 c=(0, 0), d=(0, 0, 0, 0))
    with pytest.raises(InvalidParameterError):
        C2Params(rows=6, cols=6, q=2, l=2, a=(0,) * 6, b=(0,) * 5,
                 c=(6, 0), d=(0, 0, 0, 0))
    with pytest.raises(InvalidParameterError):
        C2Params(rows=6, cols=6, q=2, l=2, a=(0,) * 6, b=(0,) * 5,
                 c=(0, 0), d=(0, 0, 2, 0))
    with pytest.raises(InvalidParameterError):
        C2Params(rows=6, cols=6, q=2, l=0, a=(0,) * 6, b=(0,) * 5,
                 c=(0, 0), d=(0, 0, 0, 0))


def test_default_band_height_is_clipped():
    # ceil(log2 n) + 6 for binary, + 2 otherwise, but three bands must fit
    assert default_band_height(12, 2) == 4
    assert default_band_height(12, 3) == 4
    assert default_band_height(9, 3) == 3
    assert default_band_height(3, 2) == 1
    assert default_band_height(64, 2) == 12


def test_check_iff_valid_within_own_class_exhaustive():
    # all 512 binary 3x3 arrays; 6 are band-valid, each in a singleton class
    members = []
    for x in enumerate_arrays(3, 3, 2):
        p = c2_syndromes(x, 1)
        assert c2_check(x, p) == is_l_valid(x, 1)
        if c2_check(x, p):
            members.append(x)
    assert len(members) == 6


def test_rows_distinct_flag_tightens_membership():
    x = Array2D([[0, 1, 0], [1, 0, 1], [0, 1, 0]], 2)  # valid but rows 1 == 3
    p = c2_syndromes(x, 1)
    assert c2_check(x, p)
    # adjacent rows all differ here, so the distinct-rows class keeps it
    pd = c2_syndromes(x, 1, rows_distinct=True)
    assert c2_check(x, pd)
    y = Array2D([[0, 1, 0], [0, 1, 0], [1, 0, 1]], 2)  # adjacent repeat
    py = c2_syndromes(y, 1, rows_distinct=True)
    assert not c2_check(y, py)


def test_round_trip_all_patterns_uniform():
    rng = random.Random(21)
    x = sample_valid(9, 9, 3, 2, rng, uniform_sums=True)
    p = c2_syndromes(x, 2)
    assert p.uniform
    for i in range(1, 10):
        for j in range(1, 10):
            y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
            for path in ("fast", "scan"):
                out = c2_decode(y, p, path=path)
                assert out.array == x
                assert out.row_interval[0] <= i <= out.row_interval[1]
                assert out.col_interval[0] <= j <= out.col_interval[1]


def test_fast_equals_scan_on_uniform_instances():
    rng = random.Random(8)
    x = sample_valid(6, 6, 3, 1, rng, uniform_sums=True)
    p = c2_syndromes(x, 1)
    for i in (1, 3, 6):
        for j in (2, 5):
            y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
            fast = c2_decode(y, p, path="fast")
            scan = c2_decode(y, p, path="scan")
            assert fast.array == scan.array == x
            assert fast.row_interval == scan.row_interval
            assert fast.col_interval == scan.col_interval


def test_rows_distinct_gives_exact_positions():
    rng = random.Random(33)
    for _ in range(10):
        x = sample_valid(8, 8, 3, 2, rng, uniform_sums=True, rows_distinct=True)
        p = c2_syndromes(x, 2, rows_distinct=True)
        i, j = rng.randint(1, 8), rng.randint(1, 8)
        y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
        out = c2_decode(y, p)
        assert out.array == x
        assert out.row_interval == (i, i)
        assert out.col_interval == (j, j)


def test_rectangular_shapes_round_trip():
    rng = random.Random(14)
    x = sample_valid(4, 7, 3, 1, rng, uniform_sums=True)
    p = c2_syndromes(x, 1)
    for i in (1, 4):
        for j in (1, 3, 7):
            y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
            out = c2_decode(y, p)
            assert out.array == x


def test_locate_intervals_brackets_the_pattern():
    rng = random.Random(2)
    x = sample_valid(6, 6, 3, 1, rng, uniform_sums=True)
    p = c2_syndromes(x, 1)
    y = delete_rows_cols(x, DeletionPattern((4,), (2,)))
    loc = c2_locate_intervals(y, p)
    assert loc.row_interval[0] <= 4 <= loc.row_interval[1]
    assert loc.col_interval[0] <= 2 <= loc.col_interval[1]


def test_decode_failure_on_impossible_input():
    p = C2Params(rows=6, cols=6, q=3, l=1, a=(1,) * 6, b=(1,) * 5,
                 c=(0, 0), d=(0, 0, 0, 0))
    y = Array2D([[0] * 5] * 5, 3)
    with pytest.raises(NotACodewordError):
        c2_decode(y, p, path="scan")
    with pytest.raises(InvalidParameterError):
        c2_decode(Array2D([[0] * 6] * 6, 3), p)  # not a minor shape


def test_position_dependent_sums_fail_honestly():
    # With arbitrary sum vectors the class is not always a code; the decoder
    # must either return the transmitted array or raise, never fabricate.
    rng = random.Random(101)
    wrong, honest = 0, 0
    for _ in range(120):
        x = sample_valid(12, 12, 2, 4, rng)
        p = c2_syndromes(x, 4)
        i, j = rng.randint(1, 12), rng.randint(1, 12)
        y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
        try:
            out = c2_decode(y, p)
        except (AmbiguityError, NotACodewordError):
            honest += 1
            continue
        if out.array != x:
            wrong += 1
    assert wrong == 0
    assert honest > 0  # the failure mode genuinely occurs at this size


def test_decode_refuses_minor_over_other_alphabet_on_every_path():
    rng = random.Random(5)
    uniform = sample_valid(9, 9, 2, 3, rng, uniform_sums=True)
    plain = Array2D([[rng.randrange(2) for _ in range(9)] for _ in range(9)], 2)
    ternary = [
        Array2D([[rng.randrange(3) for _ in range(8)] for _ in range(8)], 3),
        Array2D([[2] * 8] * 8, 3),
    ]
    for x in (uniform, plain):
        p = c2_syndromes(x, 3)
        for y in ternary:
            for path in ("auto", "scan"):
                with pytest.raises(InvalidParameterError, match="a single deletion"):
                    c2_decode(y, p, path=path)
