"""Ground-truth machinery: disjointness certification, duality, oracle
decoding, and the reproducible trial harness."""

import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.core_array import (
    DEFAULT_ENUMERATION_CAP,
    Array2D,
    BurstPattern,
    DeletionPattern,
    delete_rows_cols,
    deletion_ball_raw,
)
from crisscross.errors import AmbiguityError, CapacityError, InvalidParameterError, NotACodewordError
from crisscross.params_io import CONSTRUCTIONS, params_to_text
from crisscross.verify import (
    TrialConfig,
    TrialStats,
    VerificationReport,
    _subseed,
    decode_by_codebook,
    duality_check,
    simulate_trials,
    verify_codebook,
)


def _arr(cells, q=2):
    return Array2D(tuple(tuple(row) for row in cells), q)


ZEROS3 = _arr([[0, 0, 0]] * 3)
ONES3 = _arr([[1, 1, 1]] * 3)
# plain (2,1)-deletion balls of these two intersect, burst balls do not
BURST_ONLY_PAIR = (ZEROS3, _arr([[0, 1, 1], [0, 0, 0], [1, 1, 1]]))


def test_verify_codebook_matches_direct_ball_intersections():
    arrs = [
        _arr((c[:3], c[3:6], c[6:]))
        for c in itertools.product(range(2), repeat=9)
    ][::97]
    report = verify_codebook(arrs, 1, 1)
    assert report.checked_pairs == len(arrs) * (len(arrs) - 1) // 2
    direct = [
        (i, j)
        for i, j in itertools.combinations(range(len(arrs)), 2)
        if deletion_ball_raw(arrs[i], 1, 1) & deletion_ball_raw(arrs[j], 1, 1)
    ]
    assert [pair for pair, _ in report.violations] == direct
    assert report.verdict == (not direct)
    # every reported witness really lies in both balls
    for (i, j), minor in report.violations:
        assert minor.cells in deletion_ball_raw(arrs[i], 1, 1)
        assert minor.cells in deletion_ball_raw(arrs[j], 1, 1)


def test_verify_codebook_duplicate_is_a_violation():
    report = verify_codebook([ZEROS3, ZEROS3], 1, 1)
    assert not report.verdict
    assert report.violations[0][0] == (0, 1)
    lines = report.to_lines()
    assert "verdict: fail" in lines
    assert any("share minor" in line for line in lines)


def test_verify_codebook_verdict_is_order_independent():
    book = [ZEROS3, ONES3, BURST_ONLY_PAIR[1]]
    forward = verify_codebook(book, 2, 1)
    backward = verify_codebook(book[::-1], 2, 1)
    assert forward.verdict == backward.verdict
    assert len(forward.violations) == len(backward.violations)


def test_verify_codebook_burst_mode_is_weaker():
    report_plain = verify_codebook(BURST_ONLY_PAIR, 2, 1, mode="plain")
    report_burst = verify_codebook(BURST_ONLY_PAIR, 2, 1, mode="burst")
    assert not report_plain.verdict
    assert report_burst.verdict
    assert report_burst.to_lines() == [
        "pairs checked: 1",
        "violations: 0",
        "verdict: pass",
    ]


def test_verify_codebook_edge_inputs():
    empty = verify_codebook([], 1, 1)
    assert empty.checked_pairs == 0 and empty.verdict
    with pytest.raises(InvalidParameterError):
        verify_codebook([ZEROS3, _arr([[0, 0], [0, 0]])], 1, 1)
    with pytest.raises(InvalidParameterError):
        verify_codebook([ZEROS3], 1, 1, mode="windowed")


def test_verification_report_rejects_inconsistent_verdict():
    with pytest.raises(InvalidParameterError):
        VerificationReport(checked_pairs=1, violations=(), verdict=False)


def test_duality_exhaustive_two_by_two():
    arrs = [
        _arr(((c[0], c[1]), (c[2], c[3])))
        for c in itertools.product(range(2), repeat=4)
    ]
    for x, z in itertools.combinations_with_replacement(arrs, 2):
        assert duality_check(x, z, 1)
        assert duality_check(x, z, (1, 1), burst=True)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
def test_duality_sampled_two_by_three(bits_x, bits_z):
    def unpack(bits):
        flat = [(bits >> k) & 1 for k in range(6)]
        return _arr((flat[:3], flat[3:]))

    assert duality_check(unpack(bits_x), unpack(bits_z), (1, 1))


def test_duality_shape_mismatch():
    with pytest.raises(InvalidParameterError):
        duality_check(ZEROS3, _arr([[0, 0], [0, 0]]), 1)


def test_decode_by_codebook_round_trip():
    book = [ZEROS3, ONES3]
    y = delete_rows_cols(ONES3, DeletionPattern((2,), (3,)))
    out = decode_by_codebook(y, book, 1, 1)
    assert out.array == ONES3
    # every deletion pattern maps an all-ones array to the same minor
    assert out.row_interval == (1, 3)
    assert out.col_interval == (1, 3)
    assert out.path == "codebook"


def test_decode_by_codebook_burst_intervals_bracket_truth():
    x = BURST_ONLY_PAIR[1]
    book = [ZEROS3, x]
    y = delete_rows_cols(x, BurstPattern(1, 2, 2, 1))
    out = decode_by_codebook(y, book, 2, 1, mode="burst")
    assert out.array == x
    assert out.row_interval[0] <= 1 <= out.row_interval[1]
    assert out.col_interval[0] <= 2 <= out.col_interval[1]


def test_decode_by_codebook_failure_modes():
    zeros2 = _arr([[0, 0], [0, 0]])
    mixed2 = _arr([[0, 0], [0, 1]])
    with pytest.raises(NotACodewordError):
        decode_by_codebook(_arr([[1]]), [zeros2], 1, 1)
    with pytest.raises(AmbiguityError):
        decode_by_codebook(_arr([[0]]), [zeros2, mixed2], 1, 1)
    with pytest.raises(InvalidParameterError):
        decode_by_codebook(_arr([[0, 0], [0, 0]]), [zeros2], 1, 1)
    with pytest.raises(InvalidParameterError):
        decode_by_codebook(_arr([[0]]), [], 1, 1)


def test_burst_oracle_refuses_a_minor_reachable_only_by_plain_deletion():
    # Row 2 of x is all zeros, and only a plain (2, 1) deletion keeps it alone:
    # the burst windows keep row 1 or row 3. So [[0, 0]] is in x's plain ball
    # and in no burst ball of x (ZEROS3's burst ball holds it, so the book is
    # x alone); a plain subsequence test on every row set would accept it.
    x = BURST_ONLY_PAIR[1]
    y = _arr([[0, 0]])
    assert decode_by_codebook(y, [x], 2, 1).array == x
    with pytest.raises(NotACodewordError):
        decode_by_codebook(y, [x], 2, 1, mode="burst")


def test_oracle_size_guards_answer_before_any_work():
    x = _arr([[0] * 40] * 40)
    y = _arr([[0] * 20] * 20)
    assert math.comb(40, 20) ** 2 > DEFAULT_ENUMERATION_CAP
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError):  # no row left: y would need zero rows
        decode_by_codebook(_arr([[0]]), [x], 40, 39)
    with pytest.raises(InvalidParameterError):  # a negative width passes the shape test
        decode_by_codebook(_arr([[0] * 39] * 41), [x], -1, 1)
    with pytest.raises(InvalidParameterError):  # a zero width leaves nothing to bracket
        decode_by_codebook(_arr([[0, 0, 0]] * 2), [ZEROS3], 1, 0, mode="burst")
    with pytest.raises(CapacityError):
        decode_by_codebook(y, [x], 20, 20)
    with pytest.raises(CapacityError):
        deletion_ball_raw(x, 20, 20)
    assert time.perf_counter() - start < 1.0


def test_subseed_derivation_is_frozen():
    # sha256("master:index"), first eight bytes, big endian
    assert _subseed(0, 0) == 12426054289685354689
    assert _subseed(42, 7) == 8457105028182875694
    digest = hashlib.sha256(b"42:7").digest()
    assert _subseed(42, 7) == int.from_bytes(digest[:8], "big")


def test_trial_config_validation():
    with pytest.raises(InvalidParameterError):
        TrialConfig("c4", n=4, q=2)
    with pytest.raises(InvalidParameterError):
        TrialConfig("c1", n=4, q=2, t_r=2)
    with pytest.raises(InvalidParameterError):
        TrialConfig("c3", n=4, q=2, t_r=2, t_c=2)  # burst required
    with pytest.raises(InvalidParameterError):
        TrialConfig("c3", n=5, q=2, t_r=2, t_c=1, burst=True)  # 2 does not divide 5
    # each family refuses the settings it does not read
    for construction, setting in [
        ("c1", dict(l=3)), ("c1", dict(rows_distinct=True)), ("c1", dict(t_c=2)),
        ("c3", dict(rows_distinct=True)),
    ]:
        with pytest.raises(InvalidParameterError, match="construction does not take"):
            TrialConfig(construction, n=8, q=3, burst=True, **setting)
    assert TrialConfig("c2", n=12, q=2).band_height == 4
    assert TrialConfig("c3", n=8, q=3, t_r=2, t_c=2, burst=True).band_height == 1


def test_simulate_trials_deterministic_and_clean_on_uniform_sums():
    for cfg, expected in [
        (TrialConfig("c1", n=6, q=2, trials=5, seed=3, uniform_sums=True), 5),
        (TrialConfig("c2", n=6, q=2, l=2, trials=3, seed=5, uniform_sums=True), 3),
        (
            TrialConfig(
                "c3", n=8, q=3, t_r=2, t_c=2, l=1, trials=3, seed=9,
                burst=True, uniform_sums=True,
            ),
            3,
        ),
    ]:
        stats = simulate_trials(cfg)
        assert stats.successes == expected
        assert stats.failures == ()
        assert stats == simulate_trials(cfg)


PLAIN_C3 = TrialConfig("c3", n=12, q=3, t_r=2, t_c=2, trials=50, seed=5, burst=True)


@pytest.mark.parametrize("cfg, digest", [
    (TrialConfig("c1", n=8, q=2, trials=20, seed=9, uniform_sums=True), "96caf0d5ba301616"),
    (TrialConfig("c2", n=12, q=2, l=4, trials=20, seed=9, uniform_sums=True), "a730e12a186c78f5"),
    (TrialConfig("c3", n=12, q=3, t_r=2, t_c=2, trials=20, seed=9, burst=True, uniform_sums=True),
     "96a1e8ac62f83112"),
    (PLAIN_C3, "ea00b7de02c8464f"),
])
def test_seeded_draws_are_frozen(cfg, digest):
    # trial i draws its codeword and class from Random(_subseed(seed, i))
    # through the construction table, as simulate_trials does
    h = hashlib.sha256()
    for index in range(cfg.trials):
        x, p = CONSTRUCTIONS[cfg.construction].sample(
            cfg.n, cfg.q, random.Random(_subseed(cfg.seed, index)), t_r=cfg.t_r, t_c=cfg.t_c,
            l=cfg.band_height, uniform_sums=cfg.uniform_sums, rows_distinct=cfg.rows_distinct,
            budget=cfg.budget,
        )
        h.update(repr(x.cells).encode())
        h.update(params_to_text(p).encode())
    assert h.hexdigest()[:16] == digest


def test_seeded_report_is_frozen():
    lines = simulate_trials(PLAIN_C3).to_lines()
    assert lines[:3] == ["trials: 50", "successes: 41", "failures: 9"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "08115ce08dc13a4b"


def test_simulate_trials_zero_trials():
    stats = simulate_trials(TrialConfig("c1", n=4, q=2, trials=0))
    assert stats == TrialStats(trials=0, successes=0, failures=())


def test_trial_stats_equality_ignores_timing():
    a = TrialStats(trials=2, successes=2, failures=(), mean_decode_time=0.5)
    b = TrialStats(trials=2, successes=2, failures=(), mean_decode_time=9.0)
    assert a == b
    assert all("time" not in line for line in a.to_lines())
    with pytest.raises(InvalidParameterError):
        TrialStats(trials=3, successes=1, failures=())


def test_trial_stats_lines_name_replay_seeds():
    cfg = TrialConfig("c1", n=6, q=2, trials=4, seed=3, uniform_sums=True)
    lines = simulate_trials(cfg).to_lines()
    assert lines[0] == "trials: 4"
    assert lines[1] == "successes: 4"
    assert lines[2] == "failures: 0"
