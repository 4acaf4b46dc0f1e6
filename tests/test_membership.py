"""Class membership: each check accepts x for exactly one class, its own.

A member's parameters are pinned field by field (any single change is
refused), and on tiny shapes the check agrees with "x has the structure and
p is x's class" for every array and every class at once.
"""

import dataclasses
import random

import pytest

from crisscross.code_c1 import c1_check, c1_syndromes
from crisscross.code_c2 import c2_check, c2_syndromes
from crisscross.code_c3 import c3_check, c3_syndromes
from crisscross.core_array import (
    Array2D,
    enumerate_arrays,
    extract_residue_subarray,
    interleave_residue_subarrays,
)
from crisscross.errors import InvalidParameterError
from crisscross.params_io import CONSTRUCTIONS
from crisscross.reprs import is_good, is_l_valid, is_l_weakly_valid, rows_are_distinct
from crisscross.sample import sample_good, sample_valid


def _others(value, size):
    return [v for v in range(size) if v != value]


def _replaced_entry(vec, k, v):
    return vec[:k] + (v,) + vec[k + 1:]


def _variants(p, name, vec, size):
    """p with one entry of the vector field `name` changed, for every entry and
    every other value in [0, size); changes the constructor refuses are skipped."""
    for k, value in enumerate(vec):
        for v in _others(value, size):
            try:
                yield dataclasses.replace(p, **{name: _replaced_entry(vec, k, v)})
            except InvalidParameterError:
                pass


def _assert_only_own_class(check, x, p, variants):
    assert check(x, p)
    variants = list(variants)
    assert variants
    for other in variants:
        assert other != p
        assert not check(x, other), other


def test_c1_check_refuses_every_single_field_change():
    x = sample_good(5, 3, random.Random(61))
    p = c1_syndromes(x)
    variants = [
        *_variants(p, "a", p.a, p.q),
        *_variants(p, "b", p.b, p.q),
        *(dataclasses.replace(p, c=v) for v in _others(p.c, p.n)),
        *(dataclasses.replace(p, d=v) for v in _others(p.d, p.n)),
    ]
    _assert_only_own_class(c1_check, x, p, variants)


@pytest.mark.parametrize("rows_distinct", [False, True])
def test_c2_check_refuses_every_single_field_change(rows_distinct):
    x = sample_valid(6, 7, 3, 2, random.Random(62), rows_distinct=rows_distinct)
    p = c2_syndromes(x, 2, rows_distinct)
    variants = [
        *_variants(p, "a", p.a, p.q),
        *_variants(p, "b", p.b, p.q),
        *(dataclasses.replace(p, c=(v, p.c[1])) for v in _others(p.c[0], p.cols)),
        *(dataclasses.replace(p, c=(p.c[0], v)) for v in _others(p.c[1], p.rows)),
        *(dataclasses.replace(p, d=_replaced_entry(p.d, k, 1 - bit)) for k, bit in enumerate(p.d)),
    ]
    _assert_only_own_class(c2_check, x, p, variants)


def _c3_slot_variants(p):
    """p with one entry of one non-anchor a, b or d slot changed."""
    for name, size in (("a", p.q), ("b", p.q), ("d", 2)):
        grid = getattr(p, name)
        for s, row in enumerate(grid):
            for u, slot in enumerate(row):
                if (s, u) == (0, 0):
                    continue
                for k, value in enumerate(slot):
                    for v in _others(value, size):
                        new_row = _replaced_entry(row, u, _replaced_entry(slot, k, v))
                        new_grid = _replaced_entry(grid, s, new_row)
                        yield dataclasses.replace(p, **{name: new_grid})


def test_c3_check_refuses_every_single_slot_change_outside_the_anchor():
    x, p = CONSTRUCTIONS["c3"].sample(8, 3, random.Random(63), t_r=2, t_c=2, l=1)
    _assert_only_own_class(c3_check, x, p, _c3_slot_variants(p))
    # A non-anchor subarray without band adjacency is refused even by its own class.
    parts = [[extract_residue_subarray(x, s, u, 2, 2) for u in (1, 2)] for s in (1, 2)]
    parts[1][0] = Array2D(((0,) * 4,) + parts[1][0].cells[1:], 3)
    broken = interleave_residue_subarrays(parts, 2, 2)
    assert not c3_check(broken, c3_syndromes(broken, 2, 2, 1))


def test_c1_check_accepts_exactly_the_own_class_on_3x3_binary():
    arrays = list(enumerate_arrays(3, 3, 2))
    own = {x: c1_syndromes(x) for x in arrays if is_good(x)}
    classes = set(own.values())
    assert (len(own), len(classes)) == (248, 166)
    for x in arrays:
        assert c1_check(x, c1_syndromes(x)) == is_good(x)
        for p in classes:
            assert c1_check(x, p) == (own.get(x) == p)


@pytest.mark.parametrize("rows, cols", [(3, 3), (4, 3)])
def test_c2_check_accepts_exactly_the_own_class_on_binary_l1(rows, cols):
    arrays = list(enumerate_arrays(rows, cols, 2))
    # Every array against its own class: membership is exactly the structure.
    for x in arrays:
        for rows_distinct in (False, True):
            structured = is_l_valid(x, 1) and (rows_are_distinct(x) or not rows_distinct)
            assert c2_check(x, c2_syndromes(x, 1, rows_distinct)) == structured
    # Every array that passes band adjacency, against the class of every
    # band-valid one, with and without distinct consecutive rows.
    arrays = [x for x in arrays if is_l_weakly_valid(x, 1)]
    valid = [x for x in arrays if is_l_valid(x, 1)]
    assert len(valid) < len(arrays) and any(not rows_are_distinct(x) for x in valid)
    own = {
        (x, rows_distinct): c2_syndromes(x, 1, rows_distinct)
        for x in valid
        for rows_distinct in (False, True)
        if rows_are_distinct(x) or not rows_distinct
    }
    classes = {c2_syndromes(x, 1, rows_distinct) for x in valid for rows_distinct in (False, True)}
    for x in arrays:
        for p in classes:
            assert c2_check(x, p) == (own.get((x, p.rows_distinct)) == p)
