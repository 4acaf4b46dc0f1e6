"""Sequence-level primitives: signatures, VT decoding, compositions."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.errors import InvalidParameterError, NotACodewordError
from crisscross.onedim import (
    comp_rank,
    composition,
    inserted_syndrome,
    inversions,
    signature,
    signature_syndrome,
    vt_decode_full,
    vt_decode_known_symbol,
    vt_syndromes,
)

from oracles import one_deletion_ball, runs_count


def test_signature_marks_non_decreasing_steps():
    assert signature((0, 1, 1, 0)) == (1, 1, 0)
    assert signature((2, 0)) == (0,)
    assert signature((5,)) == ()
    with pytest.raises(InvalidParameterError):
        signature(())


def test_signature_syndrome_constant_sequence():
    # every step of a constant sequence is an ascent, so the syndrome is
    # 1 + 2 + ... + (n-1) mod n
    for n in range(2, 9):
        x = (3,) * n
        assert signature_syndrome(x, n) == (n * (n - 1) // 2) % n


_ENTRIES = st.sampled_from([st.integers(0, 3), st.tuples(st.integers(0, 1), st.integers(0, 1))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ENTRIES.flatmap(lambda e: st.lists(e, max_size=40)), st.integers(1, 45))
def test_signature_syndrome_matches_the_generator_definition(x, n):
    # over int tuples and row tuples, which the decoders compare as rir
    x = tuple(x)
    if not x:
        with pytest.raises(InvalidParameterError):
            signature_syndrome(x, n)
        return
    want = sum(i for i, bit in enumerate(signature(x), start=1) if bit) % n
    assert signature_syndrome(x, n) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 12).flatmap(lambda m: st.tuples(
        _ENTRIES.flatmap(lambda e: st.tuples(
            st.lists(e, min_size=m, max_size=m), st.lists(e, min_size=m, max_size=m), e,
        )),
        st.integers(1, m + 1),
    ))
)
def test_inserted_syndrome_is_the_syndrome_of_the_insertion(case):
    (before, after, v), p = case
    n = len(before) + 1
    want = signature_syndrome((*before[:p - 1], v, *after[p - 1:]), n)
    assert inserted_syndrome(before, after, n)(p, v) == want


def test_vt_syndromes_pair():
    assert vt_syndromes((0, 2, 1), 3, 3) == (1, 0)
    with pytest.raises(InvalidParameterError):
        vt_syndromes((0, 1), 2, 1)


def test_inversions_known_values():
    assert inversions(()) == 0
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 2, 1)) == 3
    assert inversions((2, 0, 1)) == 2


@given(st.lists(st.integers(0, 5), min_size=2, max_size=12), st.data())
def test_adjacent_swap_of_unequal_symbols_flips_inversion_parity(vals, data):
    # the position-disambiguation trick rests on exactly this fact
    i = data.draw(st.integers(0, len(vals) - 2))
    if vals[i] == vals[i + 1]:
        vals[i + 1] = (vals[i + 1] + 1) % 6
    swapped = list(vals)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert (inversions(tuple(vals)) + inversions(tuple(swapped))) % 2 == 1


def _reference_inversions(x):
    """The pairwise count that inversions replaced."""
    return sum(1 for i, a in enumerate(x) for b in x[i + 1:] if a > b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.lists(st.integers(-3, 3), max_size=40),
        st.integers(1, 3).flatmap(
            lambda w: st.lists(st.tuples(*[st.integers(0, 2)] * w), max_size=40)
        ),
    )
)
def test_inversions_match_the_pairwise_count(x):
    # small ranges make ties common; equal-length tuples order like base-q ints
    assert inversions(tuple(x)) == _reference_inversions(tuple(x))


def test_runs_count():
    assert runs_count((0, 0, 1, 1, 1, 0)) == 3
    assert runs_count((7,)) == 1
    with pytest.raises(InvalidParameterError):
        runs_count(())


def test_composition_counts_symbols():
    assert composition((0, 2, 2, 1), 3) == (1, 1, 2)
    assert composition((), 2) == (0, 0)
    with pytest.raises(InvalidParameterError):
        composition((0, 3), 3)


def _reference_composition(x, q):
    """The per-symbol count, as a reference for composition."""
    if q < 2:
        raise InvalidParameterError("alphabet size must be at least 2")
    counts = [0] * q
    for v in x:
        if not 0 <= v < q:
            raise InvalidParameterError(f"symbol {v} outside [0, {q})")
        counts[v] += 1
    return tuple(counts)


def _result(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the class and message must match too
        return type(exc), str(exc)


_ODD_SYMBOLS = st.one_of(
    st.booleans(), st.sampled_from([0.0, 1.0, 2.5, -1, -300, 255, 256, 257, 1000])
)


@st.composite
def _symbol_sequences(draw):
    """Sequences of 0 to 13 + 4q symbols, with up to two entries swapped for
    bools, floats, negatives or symbols >= q."""
    q = draw(st.sampled_from([2, 3, 255, 256, 257]))
    cut = 12 + 4 * q
    n = draw(st.sampled_from([0, 1, 11, cut - 1, cut, cut + 1]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = [rng.randrange(q) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        x[draw(st.integers(0, n - 1))] = draw(st.one_of(_ODD_SYMBOLS, st.integers(q - 2, q + 2)))
    return draw(st.sampled_from([tuple, list]))(x), q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_symbol_sequences())
def test_composition_matches_the_per_symbol_loop(case):
    x, q = case
    assert _result(composition, x, q) == _result(_reference_composition, x, q)


def test_comp_rank_is_a_lex_order_isomorphism():
    # exhaustive over all frequency vectors with bounded total and length
    for q in (2, 3, 4):
        for total in range(0, 7):
            comps = sorted(
                c
                for c in itertools.product(range(total + 1), repeat=q)
                if sum(c) == total
            )
            ranks = [comp_rank(c) for c in comps]
            assert ranks == sorted(ranks)
            assert len(set(ranks)) == len(ranks)
            # bijective onto an initial segment
            assert set(ranks) == set(range(math.comb(total + q - 1, q - 1)))


def test_one_deletion_ball_size_equals_runs_for_single_deletion():
    for q in (2, 3):
        for m in range(1, 7):
            for x in itertools.product(range(q), repeat=m):
                assert len(one_deletion_ball(x, 1)) == runs_count(x)
    with pytest.raises(InvalidParameterError):
        one_deletion_ball((0, 1), 3)


def test_vt_decode_full_exhaustive_small():
    n, q = 5, 3
    for x in itertools.product(range(q), repeat=n):
        a, b = vt_syndromes(x, n, q)
        for p in range(n):
            y = x[:p] + x[p + 1:]
            got, (lo, hi) = vt_decode_full(y, a, b, n, q)
            assert got == x
            assert lo <= p + 1 <= hi


def test_vt_decode_known_symbol_exhaustive_small():
    n, q = 5, 3
    for x in itertools.product(range(q), repeat=n):
        a = signature_syndrome(x, n)
        for p in range(n):
            y = x[:p] + x[p + 1:]
            got, (lo, hi) = vt_decode_known_symbol(y, x[p], a, n)
            assert got == x
            assert lo <= p + 1 <= hi


def _check_insertions_by_syndrome(y, v):
    """Insert v into y at each of the n = len(y) + 1 positions and group the
    positions by the signature syndrome mod n of the result: each group is
    one run with one reconstruction, and vt_decode_known_symbol returns it.
    Returns the number of groups."""
    n = len(y) + 1
    groups = {}
    for p in range(1, n + 1):
        z = y[:p - 1] + (v,) + y[p - 1:]
        groups.setdefault(signature_syndrome(z, n), {}).setdefault(z, []).append(p)
    for a in range(n):
        if a not in groups:
            with pytest.raises(NotACodewordError):
                vt_decode_known_symbol(y, v, a, n)
            continue
        ((z, positions),) = groups[a].items()
        assert positions == list(range(positions[0], positions[-1] + 1))
        assert vt_decode_known_symbol(y, v, a, n) == (z, (positions[0], positions[-1]))
    return len(groups)


def test_insertions_sharing_a_syndrome_form_one_run_exhaustive():
    groups = 0
    for q, max_n in ((2, 10), (3, 7), (4, 6), (5, 5), (6, 5)):
        for n in range(1, max_n + 1):
            for y in itertools.product(range(q), repeat=n - 1):
                for v in range(q):
                    groups += _check_insertions_by_syndrome(y, v)
    assert groups == 104_630  # (y, v, syndrome) groups checked


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(2, 24).flatmap(
        lambda n: st.integers(2, n).flatmap(
            lambda q: st.tuples(
                st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1).map(tuple),
                st.integers(0, q - 1),
            )
        )
    )
)
def test_insertions_sharing_a_syndrome_form_one_run(case):
    _check_insertions_by_syndrome(*case)


def test_vt_decode_rejects_impossible_syndrome():
    # inserting 0 anywhere into (0, 0) gives syndrome 0, never 1
    with pytest.raises(NotACodewordError):
        vt_decode_known_symbol((0, 0), 0, 1, 3)
    with pytest.raises(InvalidParameterError):
        vt_decode_known_symbol((0, 0), 0, 0, 4)
    with pytest.raises(InvalidParameterError):
        vt_decode_full((0, 2), 0, 0, 3, 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.integers(2, 40), st.randoms(use_true_random=False))
def test_vt_round_trip_randomized(q, n, rng):
    x = tuple(rng.randrange(q) for _ in range(n))
    a, b = vt_syndromes(x, n, q)
    p = rng.randrange(n)
    got, (lo, hi) = vt_decode_full(x[:p] + x[p + 1:], a, b, n, q)
    assert got == x and lo <= p + 1 <= hi


def test_vt_ambiguity_run_is_a_full_equal_run():
    # deleting inside the run of 1s: every in-run position reinserts identically
    x = (0, 1, 1, 1, 2)
    a = signature_syndrome(x, 5)
    got, (lo, hi) = vt_decode_known_symbol((0, 1, 1, 2), 1, a, 5)
    assert got == x
    assert (lo, hi) == (2, 4)
