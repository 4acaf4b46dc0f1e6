"""Redundancy bound evaluators, counting routines, witness construction."""

import itertools
import math
from decimal import Decimal

import pytest

from crisscross import bounds
from crisscross.bounds import (
    GoodChains,
    caro_wei_witness,
    count_good_exact,
    count_valid,
    good_chains,
    gv_upper_bound,
    levenshtein_insertion_count,
    max_constant_composition_class,
    run_ball_lb,
    sp_lower_bound,
)
from crisscross.core_array import enumerate_arrays
from crisscross.errors import CapacityError, InvalidParameterError
from crisscross.reprs import is_good, is_l_valid
from crisscross.verify import verify_codebook

from oracles import one_deletion_ball


def test_sp_headline_matches_closed_form():
    det = sp_lower_bound(100, 2, 1, 1)
    want = 2 * (100 * math.log2(2) + math.log2(100))
    assert det.redundancy_bits == pytest.approx(want, rel=1e-12)
    assert det.redundancy_bits == pytest.approx(213.2877, abs=5e-5)


def test_sp_epsilon_window_flag():
    # at n=100, q=2 the epsilon window condition fails; values still reported
    det = sp_lower_bound(100, 2, 1, 1)
    assert not det.hypothesis_ok
    assert det.c1_bound > 0 and det.c2_bound > 0
    # larger n brings the window back inside (q-1)/2q
    assert sp_lower_bound(1024, 2, 1, 1).hypothesis_ok


def test_sp_chain_identity():
    # the run threshold and the class-count denominator satisfy
    # t/2 - 2 t_r + 2 == K1 (q-1) n / (2q) by construction; probe via the
    # reported pieces at several parameter points
    for (n, q, tr, tc) in [(64, 2, 1, 1), (128, 3, 2, 1), (512, 4, 2, 2)]:
        det = sp_lower_bound(n, q, tr, tc)
        eps = det.epsilon
        t = det.run_threshold
        k1 = 1 - (q / (q - 1)) * (eps - (1 / q + eps - 4 * tr + 4) / n)
        assert t / 2 - 2 * tr + 2 == pytest.approx(k1 * (q - 1) * n / (2 * q), rel=1e-9)


def test_gv_pinned_value():
    # 16 * 29 * 61 = 28304 candidate neighbors at n=4, q=2, t=1
    degree = (
        math.comb(4, 1) * math.comb(4, 1)
        * sum(math.comb(4, i) * (2**3 - 1) ** i for i in range(2))
        * sum(math.comb(4, j) * (2**4 - 1) ** j for j in range(2))
    )
    assert degree == 28304
    assert gv_upper_bound(4, 2, 1, 1) == pytest.approx(math.log2(28304), rel=1e-9)


def test_gv_dominates_sp_on_sampled_grid():
    for n in (16, 64, 256):
        for q in (2, 3, 4):
            for t in (1, 2):
                assert gv_upper_bound(n, q, t, t) >= sp_lower_bound(n, q, t, t).redundancy_bits


def test_levenshtein_insertion_count_matches_brute_force():
    # the number of supersequences depends only on the length, so compare
    # against a direct enumeration for one representative sequence
    for (m, t, a) in [(3, 1, 2), (2, 2, 2), (3, 1, 3), (2, 1, 4)]:
        x = tuple(i % a for i in range(m))
        supers = {
            s
            for s in itertools.product(range(a), repeat=m + t)
            if x in set(one_deletion_ball(s, t))
        }
        assert levenshtein_insertion_count(m, t, a) == len(supers)


def test_run_ball_lower_bound():
    assert run_ball_lb(3, 1) == 3
    assert run_ball_lb(5, 2) == 6
    assert run_ball_lb(1, 2) == 0
    assert run_ball_lb(4, 0) == 1
    # the bound really is a lower bound on single-sequence deletion balls
    for q in (2, 3):
        for m in range(2, 7):
            for x in itertools.product(range(q), repeat=m):
                runs = 1 + sum(1 for u, v in zip(x, x[1:]) if u != v)
                for s in (1, 2):
                    if s <= m:
                        assert len(one_deletion_ball(x, s)) >= run_ball_lb(runs, s)


def test_count_good_exact_matches_enumeration():
    for (n, q) in [(2, 2), (2, 3), (3, 2), (4, 2)]:
        direct = sum(1 for x in enumerate_arrays(n, n, q) if is_good(x))
        rep = count_good_exact(n, q)
        assert rep.exact == direct
        assert rep.method == "transfer_matrix"
    assert count_good_exact(2, 2).exact == 10


def test_count_good_large_instance_bound():
    rep = count_good_exact(9, 3)
    assert rep.exact >= 3**80
    assert rep.lower_bound == Decimal(3) ** 80


def test_count_good_state_cap():
    with pytest.raises(CapacityError):
        count_good_exact(30, 30, state_cap=10)
    with pytest.raises(InvalidParameterError, match="state_cap >= 1"):
        count_good_exact(4, 2, state_cap=-1)
    with pytest.raises(CapacityError):
        good_chains(30, 30, 30, by_sum=True)


def test_good_chain_total_is_the_good_count():
    for n in range(1, 7):
        for q in (2, 3):
            (chains,) = good_chains(n, q, n)
            assert chains.totals[-1] == count_good_exact(n, q).exact


def _good_sequences(columns, length):
    return [
        seq
        for seq in itertools.product(columns, repeat=length)
        if all(sorted(a) != sorted(b) for a, b in zip(seq, seq[1:]))
    ]


@pytest.mark.parametrize("rows, q, length", [(3, 3, 3), (4, 2, 4), (2, 4, 3), (3, 2, 4)])
def test_good_chains_count_sequences_by_column_sum(rows, q, length):
    columns = list(itertools.product(range(q), repeat=rows))
    plain = good_chains(rows, q, length)
    by_sum = good_chains(rows, q, length, by_sum=True)
    assert len(plain) == 1 and len(by_sum) == math.gcd(rows, q)
    for c in [None, *range(q)]:
        chains = plain[0] if c is None else by_sum[c % len(by_sum)]
        pool = [col for col in columns if c is None or sum(col) % q == c]
        for j in range(length + 1):
            sequences = _good_sequences(pool, j)
            assert chains.totals[j] == len(sequences)
            # phi_j counts the good sequences that start with a given column
            for col in pool[:4]:
                starting = sum(1 for seq in sequences if seq[:1] == (col,))
                assert chains.weights(tuple(sorted(col)))[j] == starting


def test_count_valid_exact_small():
    rep = count_valid(3, 2, 1, trials=0, seed=0)
    assert rep.method == "enumeration"
    assert rep.exact == 6
    direct = sum(1 for x in enumerate_arrays(3, 3, 2) if is_l_valid(x, 1))
    assert rep.exact == direct


def test_count_valid_monte_carlo_is_deterministic():
    a = count_valid(6, 3, 2, trials=4000, seed=42)
    b = count_valid(6, 3, 2, trials=4000, seed=42)
    assert a == b
    assert a.method == "monte_carlo"
    assert a.interval[0] <= a.estimate <= a.interval[1]
    assert 0 < a.estimate < 1
    with pytest.raises(InvalidParameterError):
        count_valid(4, 2, 2, trials=10, seed=0)  # rows < 3l


def test_bounds_run_past_the_default_decimal_exponent_range():
    # q ** (n * n) passes the default decimal Emax of 999999 from n = 1822 at
    # q = 2; the values keep their 60 significant digits all the same
    det = sp_lower_bound(1900, 2, 1, 1)
    assert det.c2_bound.adjusted() > 999999 and len(det.c2_bound.as_tuple().digits) == 60
    assert math.isfinite(det.chain_bits)
    assert sp_lower_bound(600, 1000, 1, 1).c2_bound.adjusted() > 999999
    rep = count_valid(2000, 2, 1, trials=0, seed=1)
    assert rep.method == "formula"
    assert rep.lower_bound.adjusted() == 1204123 and len(rep.lower_bound.as_tuple().digits) == 60


def test_count_good_reference_bound_past_the_default_decimal_exponent_range(monkeypatch):
    # the exact count at n = 1900 is out of reach, its reference value is not
    monkeypatch.setattr(bounds, "good_chains", lambda *args, **kwargs: (GoodChains((1,)),))
    rep = count_good_exact(1900, 2)
    assert rep.lower_bound.adjusted() == 1086717 and len(rep.lower_bound.as_tuple().digits) == 28


def test_max_constant_composition_class():
    assert max_constant_composition_class(2, 2) == 2
    assert max_constant_composition_class(4, 2) == 6
    assert max_constant_composition_class(9, 3) == 1680
    # brute-force cross-check: largest set of length-n words sharing a composition
    from collections import Counter
    for (n, q) in [(2, 2), (3, 2), (4, 3)]:
        freq = Counter(
            tuple(sorted(Counter(w).items())) for w in itertools.product(range(q), repeat=n)
        )
        assert max_constant_composition_class(n, q) == max(freq.values())


def test_caro_wei_witness_small():
    codebook, size = caro_wei_witness(2, 2, 1, 1)
    assert size == len(codebook) == 2
    report = verify_codebook(codebook, 1, 1)
    assert report.verdict
    # pigeonhole floor: 16 arrays, max conflict degree computed directly
    from crisscross.core_array import deletion_ball_raw
    arrays = list(enumerate_arrays(2, 2, 2))
    degs = []
    for x in arrays:
        bx = deletion_ball_raw(x, 1, 1)
        degs.append(sum(1 for y in arrays if y != x and bx & deletion_ball_raw(y, 1, 1)))
    assert size >= math.ceil(16 / (max(degs) + 1))
