"""Release acceptance suite: one printed verdict line per criterion.

Three criteria are stated over regimes where the promised guarantee provably
cannot hold: distinct members of a class can share a minor once the sum
parameters vary by position, and binary band-valid arrays with unit band
height do not exist at the shapes those criteria name. The literal statements
run anyway and are expected to fail (strict xfail); each is paired with a
passing variant on the regime the constructions do cover, so both facts are
visible in every run. conftest.py prints the verdict lines in the terminal
summary, after output capture has ended.
"""

import functools
import itertools
import math
import random
from collections import defaultdict

import pytest

from crisscross.bounds import (
    caro_wei_witness,
    count_good_exact,
    gv_upper_bound,
    run_ball_lb,
    sp_lower_bound,
)
from crisscross.code_c1 import c1_decode, c1_syndromes
from crisscross.code_c2 import c2_decode, c2_syndromes
from crisscross.code_c3 import c3_decode, c3_syndromes
from crisscross.core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    delete_rows_cols,
    deletion_ball_raw,
    enumerate_arrays,
    insertion_ball_raw,
)
from crisscross.errors import InvalidParameterError, SamplingError
from crisscross.onedim import (
    signature_syndrome,
    vt_decode_full,
    vt_decode_known_symbol,
    vt_syndromes,
)
from crisscross.params_io import CONSTRUCTIONS
from crisscross.reprs import is_good
from crisscross.verify import (
    TrialConfig,
    decode_by_codebook,
    duality_check,
    simulate_trials,
    verify_codebook,
)
from crisscross.sample import sample_valid

from oracles import one_deletion_ball, runs_count

LINES: list[str] = []


def _record(label: str, ok: bool, expected_to_fail: bool = False) -> None:
    verdict = "PASS" if ok else ("FAIL (expected)" if expected_to_fail else "FAIL")
    LINES.append(f"{label}: {verdict}")
    assert ok, label


def _brackets(out, i: int, j: int) -> bool:
    return (
        out.row_interval[0] <= i <= out.row_interval[1]
        and out.col_interval[0] <= j <= out.col_interval[1]
    )


def test_ac01_full_recovery_from_one_deletion():
    ok = True
    for n, q in ((7, 2), (6, 3), (5, 4)):
        for x in itertools.product(range(q), repeat=n):
            a, b = vt_syndromes(x, n, q)
            for pos in range(n):
                got, span = vt_decode_full(x[:pos] + x[pos + 1:], a, b, n, q)
                ok = ok and got == x and span[0] <= pos + 1 <= span[1]
    _record("AC01 every sequence recovered from any single deletion", ok)


def test_ac02_known_symbol_recovery():
    n, q = 6, 4
    ok = True
    for x in itertools.product(range(q), repeat=n):
        a = signature_syndrome(x, n)
        for pos in range(n):
            got, span = vt_decode_known_symbol(x[:pos] + x[pos + 1:], x[pos], a, n)
            ok = ok and got == x and span[0] <= pos + 1 <= span[1]
    _record("AC02 recovery when the deleted symbol is known", ok)


@functools.cache
def _c1_buckets():
    buckets = defaultdict(list)
    for c in itertools.product(range(3), repeat=9):
        x = Array2D((c[:3], c[3:6], c[6:]), 3)
        if is_good(x):
            buckets[c1_syndromes(x)].append(x)
    return dict(buckets)


def _c1_class_round_trips(classes) -> bool:
    ok = True
    for p, members in classes.items():
        for x in members:
            for i in range(1, 4):
                for j in range(1, 4):
                    y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
                    out = c1_decode(y, p)
                    ok = ok and out.array == x and _brackets(out, i, j)
    return ok


@pytest.mark.xfail(
    strict=True,
    reason="distinct members of a class can share a minor when the sum "
    "parameters vary by position, so not every class is a code",
)
def test_ac03_all_classes_correct_one_deletion_literal():
    classes = _c1_buckets()
    ok = all(verify_codebook(m, 1, 1).verdict for m in classes.values())
    ok = ok and _c1_class_round_trips(classes)
    _record(
        "AC03 every 3x3 ternary sum class is single-deletion correcting",
        ok,
        expected_to_fail=True,
    )


def test_ac03_uniform_sum_classes_variant():
    classes = {p: m for p, m in _c1_buckets().items() if p.uniform}
    ok = bool(classes)
    ok = ok and all(verify_codebook(m, 1, 1).verdict for m in classes.values())
    ok = ok and _c1_class_round_trips(classes)
    _record("AC03 constant-sum classes are single-deletion correcting", ok)


@pytest.mark.xfail(
    strict=True,
    reason="with position-dependent sums a fraction of trials hits ambiguous "
    "or misattributed minors, so a perfect score is unreachable",
)
def test_ac04_band_code_trials_literal():
    cfg = TrialConfig("c2", n=12, q=2, l=4, trials=1000, seed=20260814)
    stats = simulate_trials(cfg)
    _record(
        "AC04 1000/1000 corrupt/decode trials, arbitrary sums",
        stats.successes == stats.trials,
        expected_to_fail=True,
    )


def test_ac04_uniform_sums_variant():
    cfg = TrialConfig(
        "c2", n=12, q=2, l=4, trials=1000, seed=20260814, uniform_sums=True
    )
    stats = simulate_trials(cfg)
    _record(
        "AC04 1000/1000 corrupt/decode trials, constant sums",
        stats.successes == stats.trials,
    )


def test_ac04_distinct_rows_exact_positions_variant():
    rng = random.Random(33)
    ok = True
    for _ in range(6):
        x = sample_valid(8, 8, 3, 2, rng, uniform_sums=True, rows_distinct=True)
        p = c2_syndromes(x, 2, rows_distinct=True)
        for i in range(1, 9):
            for j in range(1, 9):
                y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
                out = c2_decode(y, p)
                ok = (
                    ok
                    and out.array == x
                    and out.row_interval == (i, i)
                    and out.col_interval == (j, j)
                )
    _record("AC04 distinct-rows classes pinpoint the deletion", ok)


@pytest.mark.xfail(
    strict=True,
    reason="binary band-valid arrays with unit bands do not exist at this "
    "shape (rows after the first must alternate, forcing a composition run)",
)
def test_ac05_binary_burst_code_literal():
    rng = random.Random(7)
    with pytest.raises(SamplingError):
        for _ in range(50):
            CONSTRUCTIONS["c3"].sample(8, 2, rng, t_r=2, t_c=2, l=1, uniform_sums=True,
                                       budget=50_000)
    _record(
        "AC05 fifty binary codewords, 2x2 bursts, unit bands at n=8",
        False,
        expected_to_fail=True,
    )


@pytest.mark.xfail(
    strict=True,
    reason="each residue class keeps two rows at this shape, one short of "
    "the three bands validity needs",
)
def test_ac05_small_shape_literal():
    with pytest.raises(InvalidParameterError, match="3 bands"):
        c3_syndromes(Array2D(((0, 1, 0, 1),) * 4, 2), 2, 2, 1)
    _record(
        "AC05 exhaustive burst check at n=4, window 2x2",
        False,
        expected_to_fail=True,
    )


def test_ac05_burst_round_trip_variants():
    ok = True
    for n, q, l in ((12, 2, 2), (8, 3, 1)):
        rng = random.Random(5)
        for _ in range(3):
            x, p = CONSTRUCTIONS["c3"].sample(n, q, rng, t_r=2, t_c=2, l=l, uniform_sums=True)
            for r0 in range(1, n):
                for c0 in range(1, n):
                    y = delete_rows_cols(x, BurstPattern(r0, c0, 2, 2))
                    out = c3_decode(y, p)
                    ok = ok and out.array == x and _brackets(out, r0, c0)
    _record("AC05 2x2 burst round trips at workable shapes", ok)


def test_ac06_transfer_matrix_counts():
    ok = count_good_exact(2, 2).exact == 10
    for n, q in ((2, 2), (2, 3), (3, 2), (4, 2)):
        direct = sum(1 for x in enumerate_arrays(n, n, q) if is_good(x))
        ok = ok and count_good_exact(n, q).exact == direct
    _record("AC06 adjacent-composition counts match enumeration", ok)


def test_ac07_good_arrays_are_plentiful():
    rep = count_good_exact(9, 3)
    _record("AC07 ternary 9x9 count meets its closed-form floor", rep.exact >= 3**80)


def test_ac08_run_count_lower_bounds_deletion_balls():
    ok = True
    for q in (2, 3):
        for m in range(1, 9):
            for x in itertools.product(range(q), repeat=m):
                r = runs_count(x)
                for s in (1, 2):
                    if s <= m:
                        ok = ok and len(one_deletion_ball(x, s)) >= run_ball_lb(r, s)
    _record("AC08 run-count floor holds for every short sequence", ok)


def test_ac09_insertion_deletion_duality():
    ok = True
    two_by_two = [
        Array2D(((c[0], c[1]), (c[2], c[3])), 2)
        for c in itertools.product(range(2), repeat=4)
    ]
    for x, z in itertools.combinations_with_replacement(two_by_two, 2):
        ok = ok and duality_check(x, z, 1)
        ok = ok and duality_check(x, z, (1, 1), burst=True)

    three = [
        Array2D((c[:3], c[3:6], c[6:]), 2)
        for c in itertools.product(range(2), repeat=9)
    ]
    dels = {x.cells: deletion_ball_raw(x, 1, 1) for x in three}
    inss = {x.cells: insertion_ball_raw(x, 1, 1, False) for x in three}
    rng = random.Random(99)
    for _ in range(10_000):
        x, z = rng.choice(three), rng.choice(three)
        ok = ok and (not (dels[x.cells] & dels[z.cells])) == (
            not (inss[x.cells] & inss[z.cells])
        )
    _record("AC09 deletion balls disjoint iff insertion balls disjoint", ok)


def test_ac10_bound_chain():
    want = math.log2(28304)
    ok = abs(gv_upper_bound(4, 2, 1, 1) - want) <= 1e-9 * want
    for n in (16, 32, 64, 128, 256, 512, 1024):
        for q in (2, 3, 4):
            for t in (1, 2):
                ok = ok and (
                    sp_lower_bound(n, q, t, t).redundancy_bits
                    <= gv_upper_bound(n, q, t, t)
                )
    _record("AC10 existence bound stays above the packing bound", ok)


def test_ac11_greedy_witness_meets_the_pigeonhole_floor():
    book, size = caro_wei_witness(2, 2, 1, 1)
    ok = size == len(book) and verify_codebook(book, 1, 1).verdict
    arrays = list(enumerate_arrays(2, 2, 2))
    balls = [deletion_ball_raw(x, 1, 1) for x in arrays]
    degrees = [
        sum(1 for j in range(len(arrays)) if j != i and balls[i] & balls[j])
        for i in range(len(arrays))
    ]
    ok = ok and size >= math.ceil(len(arrays) / (max(degrees) + 1))
    _record("AC11 greedy independent set is a verified code of floor size", ok)


def test_ac12_decoder_paths_agree():
    ok = True
    classes = {p: m for p, m in _c1_buckets().items() if p.uniform}
    p, members = max(classes.items(), key=lambda kv: len(kv[1]))
    for x in members:
        for i in range(1, 4):
            for j in range(1, 4):
                y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
                outs = (
                    c1_decode(y, p, path="fast"),
                    c1_decode(y, p, path="scan"),
                    decode_by_codebook(y, members, 1, 1),
                )
                ok = ok and all(
                    (o.array, o.row_interval, o.col_interval)
                    == (outs[0].array, outs[0].row_interval, outs[0].col_interval)
                    for o in outs
                )

    for seed in range(5):
        rng = random.Random(seed)
        x = sample_valid(6, 6, 2, 2, rng, uniform_sums=True)
        p2 = c2_syndromes(x, 2, False)
        for i in range(1, 7):
            for j in range(1, 7):
                y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
                a = c2_decode(y, p2, path="fast")
                b = c2_decode(y, p2, path="scan")
                ok = ok and (a.array, a.row_interval, a.col_interval) == (
                    b.array,
                    b.row_interval,
                    b.col_interval,
                )
    _record("AC12 fast, scanning, and oracle decoders agree", ok)


def test_ac13_reports_are_byte_identical_across_runs():
    ok = True
    for cfg in (
        TrialConfig("c1", n=6, q=2, trials=25, seed=13, uniform_sums=True),
        TrialConfig(
            "c3", n=8, q=3, t_r=2, t_c=2, l=1, trials=5, seed=9,
            burst=True, uniform_sums=True,
        ),
    ):
        first = simulate_trials(cfg)
        second = simulate_trials(cfg)
        ok = ok and first == second
        ok = ok and "\n".join(first.to_lines()) == "\n".join(second.to_lines())
    book, _ = caro_wei_witness(2, 2, 1, 1)
    ok = ok and (
        "\n".join(verify_codebook(book, 1, 1).to_lines())
        == "\n".join(verify_codebook(book, 1, 1).to_lines())
    )
    _record("AC13 simulation and verification reports are reproducible", ok)
