"""Ground-truth machinery: disjointness certification, duality, oracle
decoding, samplers, and the reproducible trial harness."""

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    delete_rows_cols,
    deletion_ball_raw,
    enumerate_arrays,
)
from crisscross.errors import (
    AmbiguityError,
    InvalidParameterError,
    NotACodewordError,
    SamplingError,
)
from crisscross.reprs import is_good, is_l_valid, rows_are_distinct
from crisscross.verify import (
    TrialConfig,
    TrialStats,
    VerificationReport,
    _subseed,
    _sum_class_cells,
    _sum_classes,
    _uniform_sum_cells,
    decode_by_codebook,
    duality_check,
    sample_good,
    sample_valid,
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


def test_subseed_derivation_is_frozen():
    # sha256("master:index"), first eight bytes, big endian
    assert _subseed(0, 0) == 12426054289685354689
    assert _subseed(42, 7) == 8457105028182875694
    digest = hashlib.sha256(b"42:7").digest()
    assert _subseed(42, 7) == int.from_bytes(digest[:8], "big")


def test_uniform_sum_cells_have_constant_sums():
    rng = random.Random(11)
    for rows, cols, q in [(3, 3, 2), (4, 6, 3), (5, 2, 4)]:
        for _ in range(20):
            cells = _uniform_sum_cells(rng, rows, cols, q)
            row_sums = {sum(row) % q for row in cells}
            col_sums = {sum(col) % q for col in zip(*cells)}
            assert len(row_sums) == 1 and len(col_sums) == 1


def _uniform_sum_members(rows, cols, q, r, c):
    return sorted(
        x.cells
        for x in enumerate_arrays(rows, cols, q)
        if set(x.row_sums()) == {r} and set(x.col_sums()) == {c}
    )


@pytest.mark.parametrize("rows, cols, q", [(3, 3, 2), (2, 3, 3), (3, 2, 4)])
def test_sum_class_map_is_a_bijection_onto_each_class(rows, cols, q):
    free = q ** ((rows - 1) * (cols - 1))
    for r, c in _sum_classes(rows, cols, q):
        images = [_sum_class_cells(rows, cols, q, r, c, v) for v in range(free)]
        assert sorted(images) == _uniform_sum_members(rows, cols, q, r, c)


def _chi_square(counts, support, draws):
    expected = draws / len(support)
    assert set(counts) <= set(support)
    return sum((counts[k] - expected) ** 2 / expected for k in support)


def test_uniform_sum_draws_are_uniform_before_and_after_rejection():
    # 3x3 binary: classes (0, 0) and (1, 1), 16 arrays each; 6 of the 32 are good
    support = [
        cells for r, c in _sum_classes(3, 3, 2) for cells in _uniform_sum_members(3, 3, 2, r, c)
    ]
    good = [cells for cells in support if is_good(Array2D(cells, 2))]
    assert (len(support), len(good)) == (32, 6)
    # generous bounds: about df + 6 * sqrt(2 * df) for df = 31 and df = 5
    rng = random.Random(2026)
    draws = Counter(_uniform_sum_cells(rng, 3, 3, 2) for _ in range(3200))
    assert _chi_square(draws, support, 3200) < 80
    rng = random.Random(2027)
    kept = Counter(sample_good(3, 2, rng, uniform_sums=True).cells for _ in range(1200))
    assert _chi_square(kept, good, 1200) < 25


def test_samplers_meet_their_postconditions():
    rng = random.Random(23)
    g = sample_good(5, 3, rng, uniform_sums=True)
    assert is_good(g)
    assert len({sum(row) % 3 for row in g.cells}) == 1
    v = sample_valid(6, 6, 2, 2, rng, rows_distinct=True)
    assert is_l_valid(v, 2)
    assert rows_are_distinct(v)


def test_sampling_error_reports_rejection_diagnostics():
    # binary arrays with band height 1 cannot be band-valid at n=4, so the
    # budget always runs out
    rng = random.Random(0)
    with pytest.raises(SamplingError) as exc:
        sample_valid(4, 4, 2, 1, rng, budget=64)
    msg = str(exc.value)
    assert "budget 64 exhausted" in msg
    assert "rejections by first failing predicate" in msg


def test_sampler_shape_guard():
    with pytest.raises(InvalidParameterError):
        sample_good(1, 2, random.Random(0), uniform_sums=True)


def test_trial_config_validation():
    with pytest.raises(InvalidParameterError):
        TrialConfig("c4", n=4, q=2)
    with pytest.raises(InvalidParameterError):
        TrialConfig("c1", n=4, q=2, t_r=2)
    with pytest.raises(InvalidParameterError):
        TrialConfig("c3", n=4, q=2, t_r=2, t_c=2)  # burst required
    with pytest.raises(InvalidParameterError):
        TrialConfig("c3", n=5, q=2, t_r=2, t_c=1, burst=True)  # 2 does not divide 5
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
