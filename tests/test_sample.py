"""Samplers: exact uniformity over each predicate's arrays, the sum-class
arithmetic, the chain rules, and refusals before drawing."""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from crisscross import sample
from crisscross.core_array import Array2D, enumerate_arrays
from crisscross.errors import InvalidParameterError, SamplingError
from crisscross.reprs import is_good, is_l_valid, is_l_weakly_valid, rows_are_distinct
from crisscross.sample import _BandRule, _forced_column, _good_rule, _sum_class, _sum_class_count
from crisscross.sample import sample_good, sample_valid, sample_weakly_valid


def test_uniform_sum_cells_have_constant_sums():
    rng = random.Random(11)
    for draw, q in [
        (lambda: sample_good(3, 2, rng, uniform_sums=True), 2),
        (lambda: sample_weakly_valid(4, 6, 3, 1, rng, uniform_sums=True), 3),
        (lambda: sample_valid(5, 4, 4, 1, rng, uniform_sums=True), 4),
    ]:
        for _ in range(20):
            x = draw()
            assert len(set(x.row_sums())) == 1 and len(set(x.col_sums())) == 1


def _sum_classes(rows, cols, q):
    """Every sum class (r, c) of the shape, ordered by r then c: the pairs with
    rows*r == cols*c (mod q). The reference list for the samplers' arithmetic."""
    return [
        (r, c)
        for r in range(q)
        for c in range(q)
        if (rows * r - cols * c) % q == 0
    ]


def test_sum_class_arithmetic_matches_the_list():
    for q in range(2, 40):
        for rows, cols in itertools.product(range(2, 13), repeat=2):
            classes = _sum_classes(rows, cols, q)
            assert _sum_class_count(rows, cols, q) == len(classes)
            assert [_sum_class(rows, cols, q, k) for k in range(len(classes))] == classes


def test_uniform_sum_draws_match_a_choice_from_the_class_list():
    # band samplers pick their class uniformly: randrange(n) and choice(seq)
    # both consume one _randbelow(n)
    for rows, cols, q in [(3, 3, 2), (4, 6, 3), (6, 4, 6), (5, 2, 4)]:
        rule = _BandRule(rows, cols, q, 1, uniform_sums=True)
        rng, ref = random.Random(5), random.Random(5)
        for _ in range(30):
            assert rule.pick_class(rng) == ref.choice(_sum_classes(rows, cols, q))


def test_uniform_sum_draw_with_a_huge_alphabet_is_quick():
    q = 10**6
    for draw in [
        lambda: sample_weakly_valid(4, 4, q, 1, random.Random(4), uniform_sums=True),
        lambda: sample_good(4, q, random.Random(4), uniform_sums=True),
    ]:
        start = time.perf_counter()
        x = draw()
        assert time.perf_counter() - start < 0.5
        assert len(set(x.row_sums())) == 1 and len(set(x.col_sums())) == 1


def test_good_draw_past_the_table_cap_is_quick():
    # 30 rows over 30 symbols have too many compositions for the chain
    # tables, so the columns are drawn unweighted
    start = time.perf_counter()
    x = sample_good(30, 30, random.Random(7), uniform_sums=True)
    assert time.perf_counter() - start < 0.5
    assert is_good(x) and len(set(x.row_sums())) == 1 and len(set(x.col_sums())) == 1


def _uniform_sum_members(rows, cols, q, r, c):
    return sorted(
        x.cells
        for x in enumerate_arrays(rows, cols, q)
        if set(x.row_sums()) == {r} and set(x.col_sums()) == {c}
    )


@pytest.mark.parametrize("rows, cols, q", [(3, 3, 2), (2, 3, 3), (3, 2, 4)])
def test_sum_class_map_is_a_bijection_onto_each_class(rows, cols, q):
    # the chains draw cols - 1 columns with sum c and force the last from the
    # row sums; that map hits every member of the class once
    for r, c in _sum_classes(rows, cols, q):
        column_sum_c = [
            col for col in itertools.product(range(q), repeat=rows) if sum(col) % q == c
        ]
        images = []
        for head in itertools.product(column_sum_c, repeat=cols - 1):
            columns = [*head, _forced_column(head, r, q)]
            images.append(tuple(zip(*columns)))
        assert sorted(images) == _uniform_sum_members(rows, cols, q, r, c)


def _chi_square(counts, support, draws):
    expected = draws / len(support)
    assert set(counts) <= set(support)
    return sum((counts[k] - expected) ** 2 / expected for k in support)


def _chi_square_bound(support):
    """A generous bound: about df + 6 * sqrt(2 * df), df = len(support) - 1."""
    df = len(support) - 1
    return df + 6 * math.sqrt(2 * df)


def _uniform_sum_support(rows, cols, q, keep):
    """The arrays with constant row sums and constant column sums that pass
    keep, stacked from rows of each row sum."""
    support = []
    for r in range(q):
        rows_r = [row for row in itertools.product(range(q), repeat=cols) if sum(row) % q == r]
        for cells in itertools.product(rows_r, repeat=rows):
            x = Array2D(cells, q)
            if len(set(x.col_sums())) == 1 and keep(x):
                support.append(cells)
    return support


def test_uniform_sum_good_draws_are_uniform():
    # 3x3 binary: classes (0, 0) and (1, 1), 16 arrays each; 6 of the 32 are good
    good = _uniform_sum_support(3, 3, 2, is_good)
    assert len(good) == 6
    rng = random.Random(2027)
    kept = Counter(sample_good(3, 2, rng, uniform_sums=True).cells for _ in range(1200))
    assert _chi_square(kept, good, 1200) < 25


# 2x2 q=6: classes are picked by c mod gcd(n, q) = 2, then among 6 each
@pytest.mark.parametrize(
    "n, q, size, seed", [(3, 3, 282, 41), (4, 2, 250, 42), (2, 6, 30, 47)]
)
def test_uniform_sum_good_chain_is_exact(n, q, size, seed):
    support = _uniform_sum_support(n, n, q, is_good)
    assert len(support) == size
    rng = random.Random(seed)
    draws = 20 * size
    kept = Counter(sample_good(n, q, rng, uniform_sums=True).cells for _ in range(draws))
    assert _chi_square(kept, support, draws) < _chi_square_bound(support)


def test_uniform_sum_weakly_valid_chain_is_exact():
    # three rows, unit bands: every row must change at each step
    support = _uniform_sum_support(3, 4, 3, lambda x: is_l_weakly_valid(x, 1))
    assert len(support) == 24
    rng = random.Random(43)
    draws = 40 * len(support)
    kept = Counter(
        sample_weakly_valid(3, 4, 3, 1, rng, uniform_sums=True).cells for _ in range(draws)
    )
    assert _chi_square(kept, support, draws) < _chi_square_bound(support)


def test_plain_good_chain_is_exact():
    support = [x.cells for x in enumerate_arrays(3, 3, 2) if is_good(x)]
    rng = random.Random(44)
    draws = 20 * len(support)
    kept = Counter(sample_good(3, 2, rng).cells for _ in range(draws))
    assert _chi_square(kept, support, draws) < _chi_square_bound(support)


@pytest.mark.parametrize("uniform_sums, seed", [(True, 45), (False, 46)])
def test_unweighted_good_chain_is_exact(monkeypatch, uniform_sums, seed):
    # with no room for weight tables the good rule draws unweighted columns
    monkeypatch.setattr(sample, "CHAIN_WEIGHT_BITS", 0)
    _good_rule.cache_clear()
    try:
        assert _good_rule(3, 3, uniform_sums).chains is None
        if uniform_sums:
            support = _uniform_sum_support(3, 3, 3, is_good)
        else:
            support = [x.cells for x in enumerate_arrays(3, 3, 2) if is_good(x)]
        q = 3 if uniform_sums else 2
        rng = random.Random(seed)
        draws = 20 * len(support)
        kept = Counter(
            sample_good(3, q, rng, uniform_sums=uniform_sums).cells for _ in range(draws)
        )
        assert _chi_square(kept, support, draws) < _chi_square_bound(support)
    finally:
        _good_rule.cache_clear()


def test_good_chains_are_quick():
    start = time.perf_counter()
    assert is_good(sample_good(64, 2, random.Random(5), uniform_sums=True))
    assert time.perf_counter() - start < 1.0


def test_cold_good_chain_tables_are_quick():
    # 67,525 compositions of 72 cells over 4 symbols, grouped by multinomial
    _good_rule.cache_clear()
    start = time.perf_counter()
    x = sample_good(72, 4, random.Random(6), uniform_sums=True)
    assert time.perf_counter() - start < 1.0
    assert is_good(x) and len(set(x.row_sums())) == 1 and len(set(x.col_sums())) == 1


def test_empty_chains_are_refused_before_sampling():
    # three binary rows and unit bands: flipping all three cells of a column
    # flips its sum, so no column with the same sum can follow it
    start = time.perf_counter()
    with pytest.raises(SamplingError, match="all three bands"):
        sample_weakly_valid(3, 4, 2, 1, random.Random(0), uniform_sums=True)
    with pytest.raises(SamplingError, match="all three bands"):
        sample_weakly_valid(3, 2, 2, 1, random.Random(0), uniform_sums=True)
    with pytest.raises(SamplingError, match="all three bands"):
        sample_valid(3, 5, 2, 1, random.Random(0), uniform_sums=True, budget=10**9)
    # binary unit bands alternate, so rows 1-3 share a composition at an even
    # width, and at an odd one too once the row sums are equal
    for rows, cols, uniform_sums in ((3, 2, False), (5, 4, False), (4, 4, True), (4, 5, True)):
        with pytest.raises(SamplingError, match="share one composition"):
            sample_valid(rows, cols, 2, 1, random.Random(0), budget=10**5,
                         uniform_sums=uniform_sums, rows_distinct=True)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("rows_distinct", [False, True])
def test_plain_band_valid_draws_are_uniform(rows_distinct):
    support = [
        x.cells
        for x in enumerate_arrays(4, 3, 2)
        if is_l_valid(x, 1) and (rows_are_distinct(x) or not rows_distinct)
    ]
    assert len(support) == (12 if rows_distinct else 36)
    rng = random.Random(31 + rows_distinct)
    draws = 40 * len(support)
    kept = Counter(
        sample_valid(4, 3, 2, 1, rng, rows_distinct=rows_distinct).cells for _ in range(draws)
    )
    # generous bound: about df + 6 * sqrt(2 * df) for df = 35 and df = 11
    assert _chi_square(kept, support, draws) < (86 if not rows_distinct else 40)


def test_plain_weakly_valid_draws_are_uniform():
    # 3x3 binary, l = 1: each row alternates, so 2 ** 3 arrays
    support = [x.cells for x in enumerate_arrays(3, 3, 2) if is_l_weakly_valid(x, 1)]
    assert len(support) == 8
    rng = random.Random(33)
    kept = Counter(sample_weakly_valid(3, 3, 2, 1, rng).cells for _ in range(800))
    assert _chi_square(kept, support, 800) < 32  # df = 7


def test_thin_band_draw_is_quick():
    start = time.perf_counter()
    x = sample_valid(4, 7, 2, 1, random.Random(3))
    assert is_l_valid(x, 1)
    assert time.perf_counter() - start < 1.0


def test_samplers_meet_their_postconditions():
    rng = random.Random(23)
    g = sample_good(5, 3, rng, uniform_sums=True)
    assert is_good(g)
    assert len({sum(row) % 3 for row in g.cells}) == 1
    v = sample_valid(6, 6, 2, 2, rng, rows_distinct=True)
    assert is_l_valid(v, 2)
    assert rows_are_distinct(v)


def test_sampling_error_reports_rejection_diagnostics():
    # about 4% of the chain's proposals are kept at this shape, and none of
    # the first four with this seed
    rng = random.Random(0)
    with pytest.raises(SamplingError) as exc:
        sample_valid(7, 7, 2, 2, rng, budget=4, uniform_sums=True)
    msg = str(exc.value)
    assert "budget 4 exhausted" in msg
    assert "rejections by first failing predicate" in msg
    assert sample_valid(7, 7, 2, 2, rng, uniform_sums=True).rows == 7


def test_sampler_shape_guard():
    with pytest.raises(InvalidParameterError):
        sample_good(1, 2, random.Random(0), uniform_sums=True)
