"""Single criss-cross deletion code: membership, decoding, class structure."""

import functools
import itertools
import random
import sys
from collections import defaultdict

import pytest

from crisscross import scan
from crisscross.code_c1 import C1Params, c1_check, c1_decode, c1_enumerate, c1_syndromes
from crisscross.core_array import (
    Array2D,
    DeletionPattern,
    delete_rows_cols,
    deletion_brackets,
    enumerate_arrays,
)
from crisscross.errors import (
    AmbiguityError,
    CapacityError,
    CodePropertyError,
    CrissCrossError,
    InvalidParameterError,
    NotACodewordError,
)
from crisscross.reprs import is_good
from crisscross.verify import decode_by_codebook, sample_good


def all_patterns(n):
    return [DeletionPattern((i,), (j,)) for i in range(1, n + 1) for j in range(1, n + 1)]


def test_syndromes_of_all_zeros():
    x = Array2D([[0] * 3] * 3, 3)
    p = c1_syndromes(x, relaxed=False)
    assert p.a == (0, 0, 0) and p.b == (0, 0, 0)
    # constant composition/row sequences have all-ones signatures: 1+2 mod 3
    assert p.c == 0 and p.d == 0
    assert not c1_check(x, p)  # not good, so never a member


def test_check_iff_good_within_own_class():
    for x in enumerate_arrays(3, 3, 2):
        assert c1_check(x, c1_syndromes(x)) == is_good(x)
        assert c1_check(x, c1_syndromes(x, relaxed=False)) == is_good(x)


def test_check_rejects_wrong_sums():
    x = Array2D([[0, 1, 2], [2, 0, 1], [1, 1, 0]], 3)
    p = c1_syndromes(x)
    bumped = C1Params(
        n=p.n, q=p.q, a=tuple((v + 1) % 3 for v in p.a), b=p.b, c=p.c, d=p.d,
        relaxed=p.relaxed,
    )
    assert not c1_check(x, bumped)
    with pytest.raises(InvalidParameterError):
        c1_check(Array2D([[0, 1], [1, 0]], 3), p)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        C1Params(n=3, q=3, a=(0, 0, 3), b=(0, 0), c=0, d=0)
    with pytest.raises(InvalidParameterError):
        C1Params(n=3, q=3, a=(0, 0, 0), b=(0, 0, 0, 0), c=0, d=0, relaxed=False)
    with pytest.raises(InvalidParameterError):
        C1Params(n=3, q=3, a=(0, 0, 0), b=(0, 0), c=3, d=0)


def test_round_trip_exhaustive_uniform_witness():
    rng = random.Random(12)
    x = sample_good(3, 3, rng, uniform_sums=True)
    for relaxed in (True, False):
        p = c1_syndromes(x, relaxed=relaxed)
        assert p.uniform
        for pat in all_patterns(3):
            y = delete_rows_cols(x, pat)
            for path in ("auto", "fast", "scan"):
                out = c1_decode(y, p, path=path)
                assert out.array == x
                assert out.row_interval[0] <= pat.rows[0] <= out.row_interval[1]
                assert out.col_interval[0] <= pat.cols[0] <= out.col_interval[1]
                assert c1_check(out.array, p)


def test_fast_equals_scan_on_uniform_instances():
    rng = random.Random(7)
    for n in (3, 5, 8):
        x = sample_good(n, n, rng, uniform_sums=True)
        p = c1_syndromes(x)
        for _ in range(6):
            pat = DeletionPattern(
                (rng.randint(1, n),), (rng.randint(1, n),)
            )
            y = delete_rows_cols(x, pat)
            fast = c1_decode(y, p, path="fast")
            scan = c1_decode(y, p, path="scan")
            assert fast.array == scan.array == x
            assert fast.row_interval == scan.row_interval
            assert fast.col_interval == scan.col_interval


def test_decode_failure_on_impossible_input():
    # all-zeros received array under a class demanding nonzero sums
    p = C1Params(n=4, q=3, a=(1,) * 4, b=(1,) * 4, c=0, d=0, relaxed=False)
    y = Array2D([[0] * 3] * 3, 3)
    for path in ("fast", "scan"):
        with pytest.raises(NotACodewordError):
            c1_decode(y, p, path=path)


def test_decode_never_returns_a_non_member():
    # a substitution-corrupted minor may decode to a different codeword (the
    # code only separates within-class deletions), but whatever comes back
    # must satisfy every class constraint
    rng = random.Random(5)
    x = sample_good(4, 4, rng, uniform_sums=True)
    p = c1_syndromes(x, relaxed=False)
    y = delete_rows_cols(x, DeletionPattern((2,), (3,)))
    cells = [list(r) for r in y.cells]
    cells[0][0] = (cells[0][0] + 1) % 4
    bad = Array2D(cells, 4)
    for path in ("fast", "scan"):
        try:
            out = c1_decode(bad, p, path=path)
        except (NotACodewordError, AmbiguityError):
            continue
        assert c1_check(out.array, p)


def test_decode_never_returns_a_non_member_on_random_minors():
    # true, perturbed and arbitrary minors of a uniform and a plain class,
    # on both paths; the fast path refuses the plain class outright
    rng = random.Random(43)
    returned = 0
    for uniform in (True, False):
        x = sample_good(7, 3, rng, uniform_sums=uniform)
        p = c1_syndromes(x)
        assert p.uniform == uniform
        for k in range(400):
            y = delete_rows_cols(x, DeletionPattern((rng.randint(1, 7),), (rng.randint(1, 7),)))
            if k % 2:  # one cell off a genuine minor
                cells = [list(row) for row in y.cells]
                cells[rng.randrange(6)][rng.randrange(6)] = rng.randrange(3)
                y = Array2D(cells, 3)
            if k % 4 == 3:  # no relation to the codeword at all
                y = Array2D([[rng.randrange(3) for _ in range(6)] for _ in range(6)], 3)
            for path in ("fast", "scan"):
                if path == "fast" and not uniform:
                    with pytest.raises(InvalidParameterError, match="uniform"):
                        c1_decode(y, p, path=path)
                    continue
                try:
                    out = c1_decode(y, p, path=path)
                except (AmbiguityError, NotACodewordError) as exc:
                    assert not isinstance(exc, CodePropertyError)
                    continue
                assert c1_check(out.array, p)
                assert deletion_brackets(out.array, y, 1, 1) is not None
                returned += 1
    assert returned >= 600  # the genuine minors, both paths on the uniform class


def test_fast_decode_ranks_each_column_once(monkeypatch):
    # one rank kernel pass over the completion's n columns; the final test
    # reuses those ranks, so no other line is ranked
    rng = random.Random(8)
    x = sample_good(9, 3, rng, uniform_sums=True)
    p = c1_syndromes(x)
    ranked, real = [], scan.comp_ranks

    def counted(table, q):
        out = real(table, q)
        ranked.append(len(out))
        return out

    for module in list(sys.modules.values()):
        if module.__name__.startswith("crisscross") and "comp_ranks" in vars(module):
            monkeypatch.setattr(module, "comp_ranks", counted)
    for i, j in ((1, 1), (4, 7), (9, 9)):
        ranked.clear()
        y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
        assert c1_decode(y, p, path="fast").array == x
        assert ranked == [9]


@functools.cache
def _strict_class_buckets(n, q):
    buckets = defaultdict(list)
    for x in enumerate_arrays(n, n, q):
        if is_good(x):
            p = c1_syndromes(x, relaxed=False)
            buckets[(p.a, p.b, p.c, p.d)].append(x)
    return buckets


def test_enumerate_agrees_with_bucketing():
    buckets = _strict_class_buckets(3, 2)
    good_total = sum(len(v) for v in buckets.values())
    assert good_total == sum(1 for x in enumerate_arrays(3, 3, 2) if is_good(x))
    some = sorted(buckets.items(), key=lambda kv: -len(kv[1]))[:3]
    for (a, b, c, d), members in some:
        p = C1Params(n=3, q=2, a=a, b=b, c=c, d=d, relaxed=False)
        assert list(c1_enumerate(p)) == members
    with pytest.raises(CapacityError):
        list(c1_enumerate(C1Params(n=3, q=2, a=(0,) * 3, b=(0,) * 3, c=0, d=0,
                                   relaxed=False), cap=10))


def test_pigeonhole_largest_class():
    # number of strict parameter tuples at n=3, q=3 is 3^3 * 3^3 * 3 * 3
    buckets = _strict_class_buckets(3, 3)
    good_total = sum(len(v) for v in buckets.values())
    assert good_total == 15042  # frozen from this same exhaustive count
    largest = max(len(v) for v in buckets.values())
    assert largest * (3**3 * 3**3 * 3 * 3) >= good_total


def _same_class_collision(n, q):
    """First same-class codeword pair whose deletion balls intersect."""
    from crisscross.core_array import deletion_ball_raw

    buckets = _strict_class_buckets(n, q)
    for members in buckets.values():
        balls = [deletion_ball_raw(x, 1, 1) for x in members]
        for (i, u), (j, v) in itertools.combinations(enumerate(members), 2):
            shared = balls[i] & balls[j]
            if shared:
                return u, v, Array2D(min(shared), q)
    return None


def _outcome(decode, *args):
    """The decoded array, or the class of the package error raised."""
    try:
        return decode(*args).array
    except CrissCrossError as exc:
        return type(exc)


def test_decode_agrees_with_the_codebook_oracle_on_every_3x3_ternary_uniform_class():
    # every 2x2 ternary minor against every uniform class: the decoder returns
    # the member whose ball holds it, or raises what the oracle raises
    minors = list(enumerate_arrays(2, 2, 3))
    classes = [
        (C1Params(n=3, q=3, a=a, b=b, c=c, d=d, relaxed=False), members)
        for (a, b, c, d), members in _strict_class_buckets(3, 3).items()
        if len(set(a)) == 1 and len(set(b)) == 1
    ]
    assert len(classes) == 67
    mismatches = [
        (p, y)
        for p, members in classes
        for y in minors
        if _outcome(c1_decode, y, p) != _outcome(decode_by_codebook, y, members, 1, 1)
    ]
    assert not mismatches


def test_position_dependent_classes_can_collide():
    # Regression for the known failure mode: some classes with
    # position-dependent sum vectors contain codewords at deletion distance
    # one. The decoder must refuse rather than guess.
    found = _same_class_collision(3, 3)
    assert found is not None
    u, v, shared = found
    p = c1_syndromes(u, relaxed=False)
    assert c1_check(u, p) and c1_check(v, p)
    assert not p.uniform  # uniform classes are certified collision-free
    with pytest.raises(AmbiguityError):
        c1_decode(shared, p, path="scan")
