"""Burst deletion code built from residue-interleaved subarrays."""

import random

import pytest

from crisscross.code_c2 import c2_syndromes
from crisscross.code_c3 import C3Params, c3_check, c3_decode, c3_syndromes
from crisscross.core_array import (
    Array2D,
    BurstPattern,
    delete_rows_cols,
    interleave_residue_subarrays,
)
from crisscross.errors import (
    AmbiguityError,
    CodePropertyError,
    InvalidParameterError,
    NotACodewordError,
    NotInstantiableError,
)
from crisscross.verify import sample_valid, sample_weakly_valid


def make_codeword(rng, n, q, t_r, t_c, l, uniform=True):
    m_r, m_c = n // t_r, n // t_c
    parts = []
    for s_r in range(1, t_r + 1):
        row = []
        for s_c in range(1, t_c + 1):
            if (s_r, s_c) == (1, 1):
                row.append(sample_valid(m_r, m_c, q, l, rng,
                                        uniform_sums=uniform, rows_distinct=True))
            else:
                row.append(sample_weakly_valid(m_r, m_c, q, l, rng,
                                               uniform_sums=uniform))
        parts.append(row)
    return interleave_residue_subarrays(parts, t_r, t_c)


def test_syndromes_shape_guards():
    x = Array2D([[0, 1], [1, 0]], 2)
    with pytest.raises(InvalidParameterError):
        c3_syndromes(x, 2, 2, 1)  # subarrays would be 1x1 < 3 bands
    rng = random.Random(1)
    x9 = make_codeword(rng, 9, 3, 3, 3, 1)
    with pytest.raises(InvalidParameterError):
        c3_syndromes(x9, 2, 3, 1)  # 2 does not divide 9


def test_syndromes_reject_unusable_anchor():
    # the all-zeros array has an all-equal anchor: no banding, no distinct rows
    x = Array2D([[0] * 8] * 8, 3)
    with pytest.raises(NotInstantiableError):
        c3_syndromes(x, 2, 2, 1)


def test_params_grid_agreement_is_enforced():
    rng = random.Random(3)
    x = make_codeword(rng, 8, 3, 2, 2, 1)
    p = c3_syndromes(x, 2, 2, 1)
    assert c3_check(x, p)
    # perturb one non-anchor sum entry: membership must fail
    a = [list(map(list, row)) for row in ([list(g) for g in p.a],)][0]
    a[1][1] = list(a[1][1])
    a[1][1][0] = (a[1][1][0] + 1) % 3
    bumped = C3Params(
        n=p.n, q=p.q, t_r=p.t_r, t_c=p.t_c, l=p.l, anchor=p.anchor,
        a=tuple(tuple(tuple(v) if isinstance(v, list) else v for v in row) for row in a),
        b=p.b, d=p.d,
    )
    assert not c3_check(x, bumped)
    # the (1,1) grid slot must agree with the anchor record
    slot = tuple((p.anchor.a[0] + 1) % p.q for _ in p.anchor.a)
    with pytest.raises(InvalidParameterError):
        C3Params(n=p.n, q=p.q, t_r=p.t_r, t_c=p.t_c, l=p.l, anchor=p.anchor,
                 a=((slot,) + p.a[0][1:],) + p.a[1:], b=p.b, d=p.d)


def test_round_trip_every_window():
    rng = random.Random(9)
    x = make_codeword(rng, 8, 3, 2, 2, 1)
    p = c3_syndromes(x, 2, 2, 1)
    for r0 in range(1, 8):
        for c0 in range(1, 8):
            y = delete_rows_cols(x, BurstPattern(r0, c0, 2, 2))
            out = c3_decode(y, p)
            assert out.array == x
            assert out.row_interval[0] <= r0 <= out.row_interval[1]
            assert out.col_interval[0] <= c0 <= out.col_interval[1]
            assert out.row_interval[1] - out.row_interval[0] < 2
            assert out.col_interval[1] - out.col_interval[0] < 2


def test_round_trip_binary_wide_bands():
    rng = random.Random(17)
    x = make_codeword(rng, 12, 2, 2, 2, 2)
    p = c3_syndromes(x, 2, 2, 2)
    for (r0, c0) in [(1, 1), (5, 8), (11, 11), (3, 6)]:
        y = delete_rows_cols(x, BurstPattern(r0, c0, 2, 2))
        out = c3_decode(y, p)
        assert out.array == x


def test_asymmetric_burst_widths():
    rng = random.Random(23)
    x = make_codeword(rng, 12, 3, 3, 2, 1)
    p = c3_syndromes(x, 3, 2, 1)
    for (r0, c0) in [(1, 1), (10, 11), (4, 7)]:
        y = delete_rows_cols(x, BurstPattern(r0, c0, 3, 2))
        out = c3_decode(y, p)
        assert out.array == x


def test_single_burst_reduces_to_single_deletion():
    rng = random.Random(4)
    x = make_codeword(rng, 6, 3, 1, 1, 1)
    p = c3_syndromes(x, 1, 1, 1)
    # with t=1 the anchor is the whole array; compare against the band decoder
    p2 = c2_syndromes(x, 1, rows_distinct=True)
    for i in (1, 4, 6):
        for j in (2, 5):
            y = delete_rows_cols(x, BurstPattern(i, j, 1, 1))
            out = c3_decode(y, p)
            assert out.array == x
            assert out.row_interval == (i, i)
            assert out.col_interval == (j, j)


def test_decode_shape_guard():
    rng = random.Random(6)
    x = make_codeword(rng, 8, 3, 2, 2, 1)
    p = c3_syndromes(x, 2, 2, 1)
    with pytest.raises(InvalidParameterError):
        c3_decode(x, p)  # not a burst minor


def test_decode_refuses_paths_other_than_auto():
    rng = random.Random(6)
    x = make_codeword(rng, 8, 3, 2, 2, 1)
    p = c3_syndromes(x, 2, 2, 1)
    y = delete_rows_cols(x, BurstPattern(3, 5, 2, 2))
    assert c3_decode(y, p, path="auto").array == x
    for path in ("fast", "scan", "residue"):
        with pytest.raises(InvalidParameterError, match="single path"):
            c3_decode(y, p, path=path)


def test_position_dependent_sums_fail_honestly():
    rng = random.Random(77)
    wrong, honest, clean = 0, 0, 0
    for _ in range(40):
        x = make_codeword(rng, 8, 3, 2, 2, 1, uniform=False)
        p = c3_syndromes(x, 2, 2, 1)
        r0 = rng.randint(1, 7)
        c0 = rng.randint(1, 7)
        y = delete_rows_cols(x, BurstPattern(r0, c0, 2, 2))
        try:
            out = c3_decode(y, p)
        except (AmbiguityError, NotACodewordError, CodePropertyError):
            honest += 1
            continue
        if out.array == x:
            clean += 1
        else:
            wrong += 1
    assert wrong == 0
    assert honest > 0 and clean > 0
