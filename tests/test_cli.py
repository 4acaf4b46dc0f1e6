"""End-to-end command line checks, driven through main(argv)."""

import argparse
import io
import random
import sys

import pytest

from crisscross.cli import build_parser, main
from crisscross.code_c1 import C1Params, c1_syndromes
from crisscross.code_c2 import c2_syndromes
from crisscross.core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    array_from_text,
    array_to_text,
    delete_rows_cols,
    read_int,
)
from crisscross.params_io import CONSTRUCTIONS, codebook_to_text, params_to_text
from crisscross.sample import sample_good, sample_valid

from oracles import NON_CANONICAL

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


def test_corrupt_random_burst_is_seeded(capsys, tmp_path, c1_files):
    x, _, arr = c1_files
    out = tmp_path / "y.array"
    for _ in range(2):
        assert main([
            "corrupt", "--array", str(arr), "--burst", "--tr", "2", "--tc", "1",
            "--seed", "11", "--output", str(out),
        ]) == 0
        # frozen: the window starts random.Random(11) draws for a 5x5 array
        assert capsys.readouterr().err == "pattern=burst row_start=4 col_start=5 tr=2 tc=1\n"
        assert array_from_text(out.read_text()) == delete_rows_cols(x, BurstPattern(4, 5, 2, 1))


def test_corrupt_argument_errors(capsys, tmp_path, c1_files):
    _, _, arr = c1_files
    assert main(["corrupt", "--array", str(arr), "--rows", "2"]) == 2
    assert main(["corrupt", "--array", str(arr)]) == 2  # no pattern, no seed
    assert main(["corrupt", "--array", str(arr), "--burst"]) == 2
    # random patterns too wide for the 5x5 array are refused before drawing
    assert main(["corrupt", "--array", str(arr), "--tr", "9", "--seed", "1"]) == 2
    assert main(["corrupt", "--array", str(arr), "--burst", "--tr", "7", "--seed", "1"]) == 2
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


@pytest.mark.parametrize("family", ["c1", "c2"])
def test_decode_route_errors_exit_2_and_wrong_shapes_exit_3(capsys, tmp_path, family):
    rng = random.Random(6)
    params = tmp_path / "p.params"
    minor = tmp_path / "y.array"
    for uniform in (False, True):
        if family == "c1":
            x = sample_good(5, 3, rng, uniform_sums=uniform)
            p = c1_syndromes(x)
        else:
            x = sample_valid(6, 6, 3, 1, rng, uniform_sums=uniform)
            p = c2_syndromes(x, 1)
        assert p.uniform == uniform
        params.write_text(params_to_text(p))
        for rows, exit_code in (((2,), 0), ((2, 3), 3)):
            minor.write_text(array_to_text(delete_rows_cols(x, DeletionPattern(rows, (3,)))))
            args = ["decode", "--params", str(params), "--received", str(minor), "--path", "fast"]
            if uniform:  # a wrong-shaped minor is a decode failure
                assert main(args) == exit_code
            else:  # the fast path needs uniform sums, whatever the minor's shape
                assert main(args) == 2
                assert "fast path requires uniform" in capsys.readouterr().err
            capsys.readouterr()


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


def test_decode_minor_whose_completions_repeat_a_column_exits_3(capsys, tmp_path):
    # Every completion of the zero minor in this uniform class has equal
    # adjacent columns: no codeword explains it (3), which is no ambiguity (4).
    p = C1Params(n=3, q=3, a=(0,) * 3, b=(0,) * 2, c=0, d=0)
    params = tmp_path / "zero.params"
    minor = tmp_path / "zeros.array"
    params.write_text(params_to_text(p))
    minor.write_text(array_to_text(Array2D(((0,) * 2,) * 2, 3)))
    assert main(["decode", "--params", str(params), "--received", str(minor)]) == 3
    assert "error:" in capsys.readouterr().err


def test_decode_burst_params_have_one_path(capsys, tmp_path):
    x, p = CONSTRUCTIONS["c3"].sample(8, 3, random.Random(4), t_r=2, t_c=2, l=1,
                                      uniform_sums=True)
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


# Six 4x4 ternary codewords: 4 is 0 with row 3 and column 2 redrawn, 5 repeats 2.
VIOLATING_BOOK = """4 3 6

4 4 3\n1 1 0 0\n1 2 2 1\n2 1 1 2\n2 0 0 2

4 4 3\n0 1 0 0\n2 1 0 1\n2 2 2 2\n0 0 2 0

4 4 3\n1 1 2 0\n0 2 1 2\n1 0 2 2\n0 0 0 0

4 4 3\n2 0 0 1\n1 0 2 0\n2 2 0 1\n0 1 1 0

4 4 3\n1 0 0 0\n1 2 2 1\n0 2 0 1\n2 1 0 2

4 4 3\n1 1 2 0\n0 2 1 2\n1 0 2 2\n0 0 0 0
"""


@pytest.mark.parametrize("widths, stdout", [
    ([], "pairs checked: 15\nviolations: 2\nverdict: fail\n"
         "  codewords 0 and 4 share minor ((1, 0, 0), (1, 2, 1), (2, 0, 2))\n"
         "  codewords 2 and 5 share minor ((0, 1, 2), (1, 2, 2), (0, 0, 0))\n"),
    (["--tr", "2", "--burst"], "pairs checked: 15\nviolations: 2\nverdict: fail\n"
     "  codewords 0 and 4 share minor ((1, 0, 0), (1, 2, 1))\n"
     "  codewords 2 and 5 share minor ((0, 2, 2), (0, 0, 0))\n"),
])
def test_verify_report_text_is_pinned(capsys, tmp_path, widths, stdout):
    book = tmp_path / "violating.book"
    book.write_text(VIOLATING_BOOK)
    assert main(["verify", "--codebook", str(book), *widths]) == 1
    assert capsys.readouterr().out == stdout


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


@pytest.mark.parametrize("widths", [["--tr", "0"], ["--tc", "0"], ["--tr", "-1"]])
def test_simulate_nonpositive_burst_width_exits_2(capsys, widths):
    # widths are checked before they divide n, so no ZeroDivisionError escapes
    assert main([
        "simulate", "--construction", "c3", "--n", "8", "--q", "2", *widths,
        "--burst", "--seed", "1",
    ]) == 2
    assert "t_r, t_c, budget >= 1" in capsys.readouterr().err


def test_simulate_refuses_settings_the_family_does_not_take(capsys):
    argv = ["simulate", "--construction", "c1", "--n", "6", "--q", "3", "--seed", "4"]
    assert main([*argv, "--l", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the c1 construction does not take l=3\n"


def _integer_options():
    """(subcommand, option) for every option build_parser converts to an int."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = [(name, a) for name, p in sub.choices.items() for a in p._actions if a.type]
    assert all(a.type is read_int for _, a in options)
    return [(name, a.option_strings[0]) for name, a in options]


@pytest.mark.parametrize("token", NON_CANONICAL)
def test_every_integer_argument_refuses_non_canonical_spellings(capsys, c1_files, token):
    _, _, arr = c1_files
    options = _integer_options()
    assert len(options) == 23
    for name, option in options:
        with pytest.raises(SystemExit) as excinfo:
            main([name, option, token])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: invalid" in captured.err
    for argv in (
        ["bounds", "--n", token, "--q", "2"],
        ["bounds", "--n", "4", "--q", f"2,{token}"],
        ["bounds", "--n", f"2:{token}", "--q", "2"],
        ["corrupt", "--array", str(arr), "--rows", token, "--cols", "1"],
        ["corrupt", "--array", str(arr), "--rows", "1", "--cols", f"2,{token}"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad ")


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
    assert main(["count", "--mode", "good", "--n", "4", "--q", "2", "--state-cap", "-1"]) == 2
    assert "state_cap >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, start", [
    (["bounds", "--n", "1900", "--q", "2"], "1900,2,1,1,3821.7836,"),
    (["bounds", "--n", "600", "--q", "1000"], "600,1000,1,1,11977.3988,"),
    (["count", "--mode", "valid", "--n", "2000", "--q", "2", "--l", "1", "--trials", "0",
      "--seed", "1"], "lower_bound=-2.88245641119048572823557795423729853873845000336157677562754E+1204123"),
])
def test_bounds_and_counts_past_the_default_decimal_exponent_range(capsys, argv, start):
    # q ** (n * n) passes the default decimal Emax of 999999 from n = 1822 at q = 2
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert any(line.startswith(start) for line in captured.out.splitlines())
    assert captured.err == ""


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
