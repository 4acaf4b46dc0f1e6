"""Burst deletion code built from residue-interleaved subarrays."""

import itertools
import operator
import random

import pytest

from crisscross import code_c3, scan
from crisscross.code_c2 import c2_syndromes
from crisscross.code_c3 import C3Params, c3_check, c3_decode, c3_syndromes
from crisscross.core_array import (
    Array2D,
    BurstPattern,
    delete_rows_cols,
    extract_residue_subarray,
    interleave_residue_subarrays,
)
from crisscross.errors import (
    AmbiguityError,
    CodePropertyError,
    InvalidParameterError,
    NotACodewordError,
    NotInstantiableError,
)
from crisscross.params_io import params_from_text, params_to_text
from crisscross.reprs import is_l_weakly_valid
from crisscross.reprs import parity_bits
from crisscross.verify import TrialConfig, sample_valid, sample_weakly_valid


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


@pytest.mark.parametrize("n, t_r, t_c", [(8, 3, 2), (9, 3, 2), (8, 2, 5), (8, 0, 2), (8, 2, -1)])
def test_every_entry_checks_the_burst_lengths_by_one_rule(n, t_r, t_c):
    want = f"burst lengths \\({t_r}, {t_c}\\) must be positive factors of n={n}$"
    text = params_to_text(c3_syndromes(make_codeword(random.Random(3), 8, 3, 2, 2, 1), 2, 2, 1))
    text = text.replace("\nn=8\n", f"\nn={n}\n").replace("\ntr=2\n", f"\ntr={t_r}\n")
    entries = [
        lambda: C3Params(n, 3, t_r, t_c, 1, None, (), (), ()),
        lambda: c3_syndromes(Array2D([[0] * n] * n, 3), t_r, t_c, 1),
        lambda: params_from_text(text.replace("\ntc=2\n", f"\ntc={t_c}\n")),
    ]
    if min(t_r, t_c) >= 1:  # TrialConfig refuses nonpositive widths with its other options
        entries.append(lambda: TrialConfig("c3", n=n, q=3, t_r=t_r, t_c=t_c, burst=True))
    for entry in entries:
        with pytest.raises(InvalidParameterError, match=want):
            entry()


@pytest.mark.parametrize("t", [1, 2, 3])
def test_syndromes_equal_the_per_subarray_reference(t):
    # the anchor's grid slot comes from its c2 class; every slot must equal
    # the subarray's own sums and parity bits all the same
    rng = random.Random(40 + t)
    n, q, l = 6 * t, 3, 1
    for uniform in (True, False):
        x = make_codeword(rng, n, q, t, t, l, uniform=uniform)
        subs = [
            [extract_residue_subarray(x, s, u, t, t) for u in range(1, t + 1)]
            for s in range(1, t + 1)
        ]
        want = C3Params(
            n=n, q=q, t_r=t, t_c=t, l=l,
            anchor=c2_syndromes(subs[0][0], l, rows_distinct=True),
            a=tuple(tuple(sub.col_sums() for sub in row) for row in subs),
            b=tuple(tuple(sub.row_sums()[:-1] for sub in row) for row in subs),
            d=tuple(tuple(parity_bits(sub.cells, l) for sub in row) for row in subs),
        )
        assert c3_syndromes(x, t, t, l) == want


def test_decode_builds_one_scan_context_per_subarray(monkeypatch):
    # 2x2 residue classes under uniform sums: the anchor's fast decode builds
    # one context and each of the other three subarrays one more
    rng = random.Random(12)
    x = make_codeword(rng, 12, 3, 2, 2, 1)
    p = c3_syndromes(x, 2, 2, 1)
    assert p.anchor.uniform
    built = []
    init = scan.ScanContext.__init__
    monkeypatch.setattr(
        scan.ScanContext, "__init__", lambda self, *args: built.append(init(self, *args))
    )
    for r0, c0 in ((1, 1), (6, 3), (11, 11)):
        built.clear()
        assert c3_decode(delete_rows_cols(x, BurstPattern(r0, c0, 2, 2)), p).array == x
        assert len(built) == 4


def test_decode_builds_arrays_only_where_it_hands_them_on(array_builds):
    # 2x2 residue classes: the anchor's minor for c2_decode, the anchor
    # array c2_decode returns, and the result; the other subarrays stay row
    # tuples from the cut to the interleave. All three are derived from the
    # validated minor, so none is validated again.
    rng = random.Random(12)
    x = make_codeword(rng, 12, 3, 2, 2, 1)
    p = c3_syndromes(x, 2, 2, 1)
    built, validated = array_builds
    for r0, c0 in ((1, 1), (6, 3), (11, 11)):
        y = delete_rows_cols(x, BurstPattern(r0, c0, 2, 2))
        built.clear()
        validated.clear()
        assert c3_decode(y, p).array == x
        assert len(built) == 3 and not validated


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


def _with_cell(sub, i, j, v):
    cells = [list(row) for row in sub.cells]
    cells[i][j] = v
    return Array2D(cells, sub.q)


def _subs_2x2(x):
    return [[extract_residue_subarray(x, s, u, 2, 2) for u in (1, 2)] for s in (1, 2)]


def _rectangle_moves(sub):
    """sub with d added at (r1, c1) and (r2, c2) and taken at (r1, c2) and
    (r2, c1), for every such rectangle and d: every row and column sum stays."""
    q = sub.q
    for r1, r2 in itertools.combinations(range(sub.rows), 2):
        for c1, c2 in itertools.combinations(range(sub.cols), 2):
            for d in range(1, q):
                cells = [list(row) for row in sub.cells]
                for r, c, e in ((r1, c1, d), (r1, c2, -d), (r2, c1, -d), (r2, c2, d)):
                    cells[r][c] = (cells[r][c] + e) % q
                yield Array2D(cells, q)


@pytest.mark.parametrize("broken", ["grids", "weak validity"])
def test_tampered_non_anchor_subarray_is_refused(monkeypatch, broken):
    # The decoder checks the anchor inside c2_decode and, on the subarrays
    # it resolved, what resolve_deletion leaves open. Make the first
    # non-anchor subarray (1, 2) come back tampered but true to the
    # resolver's postcondition (the slot's sums and row parity, no band
    # claimed as matched), breaking one band parity or weak validity only.
    rng = random.Random(12)
    x = make_codeword(rng, 8, 3, 2, 2, 1)
    subs = _subs_2x2(x)
    sub = subs[0][1]
    if broken == "grids":
        # its slot in p's grids differs in one band parity, weak validity stays
        tampered = next(
            t for t in _rectangle_moves(sub)
            if is_l_weakly_valid(t, 1)
            and sum(map(operator.ne, parity_bits(t.cells, 1), parity_bits(sub.cells, 1))) == 1
            and parity_bits(t.cells, 1)[3] == parity_bits(sub.cells, 1)[3]
        )
    else:
        # equal adjacent cells in band 1; the class is taken from the result
        tampered = _with_cell(sub, 0, 1, sub.cells[0][0])
        assert not is_l_weakly_valid(tampered, 1)
        subs[0][1] = tampered
        x = interleave_residue_subarrays(subs, 2, 2)
    p = c3_syndromes(x, 2, 2, 1)
    assert (tampered.col_sums(), tampered.row_sums()[:-1]) == (p.a[0][1], p.b[0][1])
    assert parity_bits(tampered.cells, 1)[3] == p.d[0][1][3]
    real = code_c3.resolve_deletion
    calls = []

    def resolve(*args):
        calls.append(args)
        return (tampered.cells, None, None, None) if len(calls) == 1 else real(*args)

    monkeypatch.setattr(code_c3, "resolve_deletion", resolve)
    y = delete_rows_cols(x, BurstPattern(3, 5, 2, 2))
    with pytest.raises(NotACodewordError, match="class constraints"):
        c3_decode(y, p)
    assert len(calls) == 3


def test_decode_never_returns_a_non_member_on_random_minors():
    rng = random.Random(31)
    x = make_codeword(rng, 8, 3, 2, 2, 1)
    p = c3_syndromes(x, 2, 2, 1)
    returned = 0
    for k in range(400):
        y = delete_rows_cols(
            x, BurstPattern(rng.randint(1, 7), rng.randint(1, 7), 2, 2)
        )
        if k % 2:  # one cell off a genuine minor
            y = _with_cell(y, rng.randrange(6), rng.randrange(6), rng.randrange(3))
        if k % 4 == 3:  # no relation to the codeword at all
            y = Array2D([[rng.randrange(3) for _ in range(6)] for _ in range(6)], 3)
        try:
            out = c3_decode(y, p)
        except (AmbiguityError, NotACodewordError):
            continue
        assert c3_check(out.array, p)
        returned += 1
    assert returned >= 200  # the genuine minors at least
