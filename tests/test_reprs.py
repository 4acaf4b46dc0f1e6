"""Column compositions, base-q integer readings, structural predicates."""

import itertools
import random

import pytest

from crisscross.bounds import count_valid
from crisscross.code_c2 import C2Params, c2_syndromes
from crisscross.code_c3 import C3Params, c3_syndromes
from crisscross.core_array import Array2D, enumerate_arrays, transpose
from crisscross.errors import InvalidParameterError
from crisscross.reprs import (
    ccr,
    cir,
    is_good,
    is_l_valid,
    is_l_weakly_valid,
    no_triple_runs,
    rcr,
    rir,
    rows_are_distinct,
)
from crisscross.sample import sample_valid, sample_weakly_valid

X = Array2D([[0, 1, 2], [2, 0, 1], [1, 1, 0]], 3)


def test_ccr_counts_each_column():
    assert ccr(X) == ((1, 1, 1), (1, 2, 0), (1, 1, 1))


def test_rir_reads_rows_most_significant_first():
    assert rir(X) == (0 * 9 + 1 * 3 + 2, 2 * 9 + 0 * 3 + 1, 1 * 9 + 1 * 3 + 0)
    assert cir(X) == rir(transpose(X))


def test_rir_is_injective_on_rows():
    for x in itertools.islice(enumerate_arrays(2, 3, 3), 0, 729, 31):
        vals = rir(x)
        assert len(set(vals)) == len(set(x.cells))


def test_is_good_examples():
    # only adjacent columns matter: X's outer columns share a composition
    assert is_good(X)
    assert not is_good(Array2D([[0, 1], [1, 0]], 2))  # both columns have comp (1,1)


def test_good_count_2x2_binary():
    # frozen from exhaustive enumeration: 10 of the 16 binary 2x2 arrays
    # have distinct adjacent column compositions
    good = [x for x in enumerate_arrays(2, 2, 2) if is_good(x)]
    assert len(good) == 10


def test_weak_validity_band_structure():
    # rows 1..3 form the three height-1 bands; the fourth row is unconstrained
    x = Array2D([[0, 1], [1, 0], [0, 1], [1, 1]], 2)
    assert is_l_weakly_valid(x, 1)
    y = Array2D([[0, 0], [1, 0], [0, 1], [1, 1]], 2)
    assert not is_l_weakly_valid(y, 1)
    with pytest.raises(InvalidParameterError):
        is_l_weakly_valid(x, 2)
    with pytest.raises(InvalidParameterError):
        is_l_weakly_valid(x, 0)


def test_validity_forbids_composition_runs_of_three():
    # cyclic shifts: band-valid, but every column has composition (1,1,1)
    x = Array2D([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 3)
    assert is_l_weakly_valid(x, 1)
    assert ccr(x) == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert not is_l_valid(x, 1)


def test_validity_checks_the_band_height_before_any_composition():
    # every column is all zeros, a composition run of three that would
    # settle the answer before the band test is reached
    x = Array2D([[0] * 3] * 3, 2)
    assert not no_triple_runs(ccr(x))
    for l in (0, 2):
        with pytest.raises(InvalidParameterError):
            is_l_valid(x, l)


def test_row_compositions_and_runs_of_three():
    assert rcr(X) == ccr(transpose(X)) == ((1, 1, 1), (1, 1, 1), (1, 2, 0))
    assert no_triple_runs((1, 1, 2, 2, 1, 1))
    assert not no_triple_runs((2, 1, 1, 1))
    assert no_triple_runs(()) and no_triple_runs((5, 5))


def test_valid_count_3x3_binary():
    # frozen from exhaustive enumeration over all 512 binary 3x3 arrays
    valid = [x for x in enumerate_arrays(3, 3, 2) if is_l_valid(x, 1)]
    assert len(valid) == 6
    # independent recount with inline predicates
    recount = 0
    for x in enumerate_arrays(3, 3, 2):
        rows_alternate = all(
            x.cells[k][j] != x.cells[k][j + 1] for k in range(3) for j in range(2)
        )
        col_comps = [tuple(sorted(col)) for col in zip(*x.cells)]
        row_comps = [tuple(sorted(row)) for row in x.cells]
        no_triple = col_comps[0] != col_comps[1] or col_comps[1] != col_comps[2]
        no_row_triple = row_comps[0] != row_comps[1] or row_comps[1] != row_comps[2]
        recount += rows_alternate and no_triple and no_row_triple
    assert recount == 6


def test_rows_are_distinct():
    assert rows_are_distinct(X)
    assert not rows_are_distinct(Array2D([[0, 1], [0, 1], [1, 0]], 2))


def test_validity_is_invariant_under_symbol_relabeling():
    # compositions and band structure only see equality patterns up to the
    # relabeling being a bijection
    for x in itertools.islice(enumerate_arrays(3, 3, 2), 0, 512, 17):
        flipped = Array2D([[1 - v for v in row] for row in x.cells], 2)
        assert is_l_valid(x, 1) == is_l_valid(flipped, 1)
        assert is_good(x) == is_good(flipped)


def _zeros(rows, cols):
    return Array2D([[0] * cols] * rows, 2)


# Every entry that bounds the band height, called with an array or class of
# `rows` rows (c3: subarrays of `rows` rows) and band height l.
BAND_HEIGHT_ENTRIES = {
    "C2Params": lambda rows, l: C2Params(
        rows=rows, cols=4, q=2, l=l, a=(0,) * 4, b=(0,) * (rows - 1), c=(0, 0), d=(0,) * 4
    ),
    "c2_syndromes": lambda rows, l: c2_syndromes(_zeros(rows, 4), l),
    "is_l_valid": lambda rows, l: is_l_valid(_zeros(rows, 4), l),
    "is_l_weakly_valid": lambda rows, l: is_l_weakly_valid(_zeros(rows, 4), l),
    "C3Params": lambda rows, l: C3Params(
        n=2 * rows, q=2, t_r=2, t_c=1, l=l, anchor=None, a=(), b=(), d=()
    ),
    "c3_syndromes": lambda rows, l: c3_syndromes(_zeros(2 * rows, 2 * rows), 2, 2, l),
    "count_valid": lambda rows, l: count_valid(rows, 2, l, trials=0, seed=0),
    "sample_valid": lambda rows, l: sample_valid(rows, 4, 2, l, random.Random(0)),
    "sample_weakly_valid": lambda rows, l: sample_weakly_valid(rows, 4, 2, l, random.Random(0)),
}


@pytest.mark.parametrize("entry", sorted(BAND_HEIGHT_ENTRIES))
@pytest.mark.parametrize("rows, l, message", [
    (4, 0, "band height must be positive"),
    (4, -1, "band height must be positive"),
    (5, 2, "3 bands"),
])
def test_every_entry_bounds_the_band_height_by_one_rule(entry, rows, l, message):
    with pytest.raises(InvalidParameterError, match=message):
        BAND_HEIGHT_ENTRIES[entry](rows, l)
