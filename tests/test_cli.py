"""End-to-end command line checks, driven through main(argv)."""

import io
import random
import sys

import pytest

from crisscross.cli import main
from crisscross.code_c1 import C1Params, c1_syndromes
from crisscross.code_c3 import c3_syndromes
from crisscross.core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    array_from_text,
    array_to_text,
    delete_rows_cols,
    interleave_residue_subarrays,
)
from crisscross.params_io import codebook_to_text, params_to_text
from crisscross.verify import sample_good, sample_valid, sample_weakly_valid

GOLDEN_BOUNDS_ROW = "100,2,2,3,533.2193,553.1523,0.373565,13.517091,false"

# a class whose single-deletion balls overlap on this minor (found by
# exhaustive search over 3x3 ternary arrays, frozen here)
AMBIGUOUS_PARAMS = """\
construction=c1
n=3
q=3
a=0,1,0
b=0,0
c=2
d=0
relaxed=true
"""
AMBIGUOUS_MINOR = "2 2 3\n0 0\n0 1\n"


@pytest.fixture
def c1_files(tmp_path):
    x = sample_good(5, 3, random.Random(1), uniform_sums=True)
    params = tmp_path / "c1.params"
    arr = tmp_path / "x.array"
    params.write_text(params_to_text(c1_syndromes(x)))
    arr.write_text(array_to_text(x))
    return x, params, arr


def test_bounds_golden_row(capsys):
    assert main(["bounds", "--n", "100", "--q", "2", "--tr", "2", "--tc", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,q,tr,tc,sp_bits,gv_bits,epsilon,run_threshold,hypothesis_ok"
    assert out[1] == GOLDEN_BOUNDS_ROW


def test_bounds_grid_and_empty_range(capsys):
    assert main(["bounds", "--n", "4:8:2", "--q", "2,3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 2
    assert main(["bounds", "--n", "8:4", "--q", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_bounds_bad_range_spec(capsys):
    assert main(["bounds", "--n", "4:x", "--q", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_refuses_huge_ranges_before_expanding(capsys):
    assert main(["bounds", "--n", "1:10000000000", "--q", "2"]) == 2
    assert "more than" in capsys.readouterr().err
    assert main(["bounds", "--n", f"1:{10**30}", "--q", "2"]) == 2
    assert main(["bounds", "--n", "4", "--q", ",".join(["2"] * 10_001)]) == 2
    capsys.readouterr()


def test_bounds_refuses_huge_grid_before_writing(capsys):
    assert main(["bounds", "--n", "2:10001", "--q", "2:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than" in captured.err


def test_check_member_and_tampered(capsys, tmp_path, c1_files):
    x, params, arr = c1_files
    assert main(["check", "--params", str(params), "--array", str(arr)]) == 0
    assert capsys.readouterr().out == "member\n"

    cells = [list(r) for r in x.cells]
    cells[0][0] = (cells[0][0] + 1) % 3
    tampered = tmp_path / "tampered.array"
    tampered.write_text(array_to_text(Array2D(tuple(map(tuple, cells)), 3)))
    assert main(["check", "--params", str(params), "--array", str(tampered)]) == 1
    assert capsys.readouterr().out == "non-member\n"


def test_corrupt_decode_round_trip(capsys, tmp_path, c1_files):
    x, params, arr = c1_files
    minor = tmp_path / "y.array"
    assert main([
        "corrupt", "--array", str(arr), "--seed", "5", "--output", str(minor),
    ]) == 0
    assert capsys.readouterr().err.startswith("pattern=plain rows=")

    decoded = tmp_path / "xhat.array"
    assert main([
        "decode", "--params", str(params), "--received", str(minor),
        "--output", str(decoded),
    ]) == 0
    err = capsys.readouterr().err
    assert decoded.read_text() == array_to_text(x)
    assert err.startswith("rows=") and "path=fast" in err and "time_ms=" in err

    # the exhaustive path agrees
    assert main([
        "decode", "--params", str(params), "--received", str(minor),
        "--path", "scan", "--output", str(decoded),
    ]) == 0
    assert decoded.read_text() == array_to_text(x)
    assert "path=scan" in capsys.readouterr().err


def test_corrupt_explicit_patterns(capsys, tmp_path, c1_files):
    x, _, arr = c1_files
    out = tmp_path / "y.array"
    assert main([
        "corrupt", "--array", str(arr), "--rows", "2", "--cols", "3",
        "--output", str(out),
    ]) == 0
    assert capsys.readouterr().err == "pattern=plain rows=2 cols=3\n"
    want = delete_rows_cols(x, DeletionPattern((2,), (3,)))
    assert array_from_text(out.read_text()) == want

    assert main([
        "corrupt", "--array", str(arr), "--burst", "--row-start", "1",
        "--col-start", "2", "--tr", "2", "--tc", "1", "--output", str(out),
    ]) == 0
    capsys.readouterr()
    assert array_from_text(out.read_text()) == delete_rows_cols(
        x, BurstPattern(1, 2, 2, 1)
    )


def test_corrupt_argument_errors(capsys, tmp_path, c1_files):
    _, _, arr = c1_files
    assert main(["corrupt", "--array", str(arr), "--rows", "2"]) == 2
    assert main(["corrupt", "--array", str(arr)]) == 2  # no pattern, no seed
    assert main(["corrupt", "--array", str(arr), "--burst"]) == 2
    capsys.readouterr()


def test_decode_wrong_shape_is_a_decode_failure(capsys, tmp_path, c1_files):
    _, params, arr = c1_files
    once = tmp_path / "once.array"
    twice = tmp_path / "twice.array"
    assert main(["corrupt", "--array", str(arr), "--seed", "1", "--output", str(once)]) == 0
    assert main(["corrupt", "--array", str(once), "--seed", "2", "--output", str(twice)]) == 0
    capsys.readouterr()
    assert main(["decode", "--params", str(params), "--received", str(twice)]) == 3
    assert "error:" in capsys.readouterr().err


def test_decode_ambiguous_instance_exits_4(capsys, tmp_path):
    params = tmp_path / "amb.params"
    minor = tmp_path / "amb.array"
    params.write_text(AMBIGUOUS_PARAMS)
    minor.write_text(AMBIGUOUS_MINOR)
    assert main([
        "decode", "--params", str(params), "--received", str(minor),
        "--path", "scan",
    ]) == 4
    assert "error:" in capsys.readouterr().err


def test_decode_impossible_input_exits_3(capsys, tmp_path):
    p = C1Params(n=4, q=3, a=(1,) * 4, b=(1,) * 4, c=0, d=0, relaxed=False)
    params = tmp_path / "strict.params"
    minor = tmp_path / "zeros.array"
    params.write_text(params_to_text(p))
    minor.write_text(array_to_text(Array2D(((0,) * 3,) * 3, 3)))
    assert main(["decode", "--params", str(params), "--received", str(minor)]) == 3
    capsys.readouterr()


def test_decode_burst_params_have_one_path(capsys, tmp_path):
    rng = random.Random(4)
    parts = []
    for s_r in range(2):
        row = []
        for s_c in range(2):
            if (s_r, s_c) == (0, 0):
                row.append(
                    sample_valid(4, 4, 3, 1, rng, uniform_sums=True, rows_distinct=True)
                )
            else:
                row.append(sample_weakly_valid(4, 4, 3, 1, rng, uniform_sums=True))
        parts.append(row)
    x = interleave_residue_subarrays(parts, 2, 2)
    p = c3_syndromes(x, 2, 2, 1)
    params = tmp_path / "c3.params"
    params.write_text(params_to_text(p))
    y = tmp_path / "y.array"
    y.write_text(array_to_text(delete_rows_cols(x, BurstPattern(3, 1, 2, 2))))
    assert main([
        "decode", "--params", str(params), "--received", str(y), "--path", "fast",
    ]) == 2
    assert "single path" in capsys.readouterr().err
    out = tmp_path / "xhat.array"
    assert main([
        "decode", "--params", str(params), "--received", str(y), "--output", str(out),
    ]) == 0
    assert array_from_text(out.read_text()) == x


def test_verify_verdicts(capsys, tmp_path):
    zeros = Array2D(((0,) * 3,) * 3, 2)
    ones = Array2D(((1,) * 3,) * 3, 2)
    good = tmp_path / "good.book"
    bad = tmp_path / "bad.book"
    good.write_text(codebook_to_text([zeros, ones]))
    bad.write_text(codebook_to_text([zeros, zeros]))
    assert main(["verify", "--codebook", str(good)]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert main(["verify", "--codebook", str(bad)]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_simulate_clean_run_and_seed_requirement(capsys):
    assert main([
        "simulate", "--construction", "c1", "--n", "6", "--q", "2",
        "--trials", "3", "--seed", "3", "--uniform-sums",
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["trials: 3", "successes: 3", "failures: 0"]
    assert captured.err.startswith("mean_decode_time_ms=")

    assert main(["simulate", "--construction", "c1", "--n", "6", "--q", "2"]) == 2
    assert "needs --seed" in capsys.readouterr().err


def test_count_modes_and_errors(capsys):
    assert main(["count", "--mode", "good", "--n", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "method=transfer_matrix" in out and "exact=10" in out

    assert main(["count", "--mode", "valid", "--n", "3", "--q", "2",
                 "--l", "1", "--trials", "0", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "method=enumeration" in out and "exact=6" in out

    assert main(["count", "--mode", "valid", "--n", "3", "--q", "2", "--seed", "1"]) == 2
    assert main(["count", "--mode", "valid", "--n", "3", "--q", "2", "--l", "1"]) == 2
    capsys.readouterr()
    assert main(["count", "--mode", "good", "--n", "30", "--q", "30",
                 "--state-cap", "10"]) == 5
    assert "error:" in capsys.readouterr().err


def test_stdin_dash_input(capsys, monkeypatch, c1_files):
    x, params, _ = c1_files
    monkeypatch.setattr(sys, "stdin", io.StringIO(array_to_text(x)))
    assert main(["check", "--params", str(params), "--array", "-"]) == 0
    assert capsys.readouterr().out == "member\n"


def test_missing_file_is_an_input_error(capsys, tmp_path):
    assert main(["check", "--params", str(tmp_path / "nope"), "--array", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_uses_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
