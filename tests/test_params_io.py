"""Text round trips for class parameters and codebook files."""

import dataclasses
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross.code_c1 import c1_syndromes
from crisscross.code_c2 import C2Params, c2_syndromes
from crisscross.code_c3 import c3_syndromes
from crisscross.core_array import Array2D, array_from_text, interleave_residue_subarrays
from crisscross.errors import InvalidParameterError
from crisscross.params_io import (
    CONSTRUCTIONS,
    codebook_from_text,
    codebook_to_text,
    construction_of,
    params_from_text,
    params_to_text,
)
from crisscross.verify import sample_good, sample_valid, sample_weakly_valid


def _c1_fixture(relaxed=False):
    x = sample_good(5, 3, random.Random(1), uniform_sums=True)
    return c1_syndromes(x, relaxed=relaxed)


def _c3_fixture():
    rng = random.Random(4)
    parts = []
    for s_r in range(2):
        row = []
        for s_c in range(2):
            if (s_r, s_c) == (0, 0):
                row.append(sample_valid(4, 4, 3, 1, rng, rows_distinct=True))
            else:
                row.append(sample_weakly_valid(4, 4, 3, 1, rng))
        parts.append(row)
    x = interleave_residue_subarrays(parts, 2, 2)
    return c3_syndromes(x, 2, 2, 1)


def _round_trip(p):
    text = params_to_text(p)
    back = params_from_text(text)
    assert back == p
    # a second pass through the serializer is byte-stable
    assert params_to_text(back) == text
    return text


def test_c1_round_trip_both_modes():
    strict = _round_trip(_c1_fixture(relaxed=False))
    relaxed = _round_trip(_c1_fixture(relaxed=True))
    assert "relaxed=false" in strict
    assert "relaxed=true" in relaxed


def test_c2_square_round_trip_uses_n():
    x = sample_valid(6, 6, 2, 2, random.Random(2))
    text = _round_trip(c2_syndromes(x, 2, False))
    assert "n=6" in text
    assert "rows=" not in text


def test_c2_rectangular_round_trip_uses_rows_cols():
    x = sample_valid(4, 7, 2, 1, random.Random(3))
    text = _round_trip(c2_syndromes(x, 1, True))
    assert "rows=4" in text and "cols=7" in text
    assert "rows_distinct=true" in text


def test_c3_round_trip_with_anchor_and_residues():
    text = _round_trip(_c3_fixture())
    assert "construction=c3" in text
    assert "anchor.construction=c2" in text
    for key in ("(1,1).a", "(1,2).b", "(2,2).d"):
        assert key in text


def test_comments_and_blank_lines_are_ignored():
    text = params_to_text(_c1_fixture())
    noisy = "# header comment\n\n" + text.replace("\n", "\n\n", 1)
    assert params_from_text(noisy) == _c1_fixture()


def test_unknown_key_is_rejected():
    text = params_to_text(_c1_fixture()) + "zz=1\n"
    with pytest.raises(InvalidParameterError, match="unknown keys"):
        params_from_text(text)


def test_duplicate_key_is_rejected():
    text = params_to_text(_c1_fixture()) + "c=0\n"
    with pytest.raises(InvalidParameterError, match="duplicate key"):
        params_from_text(text)


def test_missing_key_is_rejected():
    lines = [ln for ln in params_to_text(_c1_fixture()).splitlines() if not ln.startswith("c=")]
    with pytest.raises(InvalidParameterError, match="missing 'c'"):
        params_from_text("\n".join(lines))


def test_malformed_values_are_rejected():
    base = params_to_text(_c1_fixture())
    with pytest.raises(InvalidParameterError, match="not an integer"):
        params_from_text(base.replace("c=", "c=x", 1))
    with pytest.raises(InvalidParameterError, match="not true/false"):
        params_from_text(base.replace("relaxed=false", "relaxed=no"))
    with pytest.raises(InvalidParameterError, match="not a comma list"):
        params_from_text(base.replace("a=", "a=1;2;", 1))
    with pytest.raises(InvalidParameterError, match="key=value"):
        params_from_text("construction=c1\nnonsense\n")
    with pytest.raises(InvalidParameterError, match="unknown construction"):
        params_from_text("construction=c9\n")


def test_c3_missing_residue_record_is_rejected():
    text = params_to_text(_c3_fixture())
    pruned = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("(2,2).")
    )
    with pytest.raises(InvalidParameterError, match=r"c3 record is missing '\(2,2\)\.a'$"):
        params_from_text(pruned)


@pytest.mark.parametrize("extra", ["(3,1).a=0,0,0,0", "anchor.zz=1", "(1,1).e=0", "(01,1).a=2,1,0,1"])
def test_c3_out_of_grid_slot_and_unknown_anchor_key_are_rejected(extra):
    text = params_to_text(_c3_fixture()) + extra + "\n"
    key = extra.partition("=")[0]
    with pytest.raises(InvalidParameterError, match=f"unknown keys \\[{re.escape(repr(key))}\\]"):
        params_from_text(text)


def test_c3_missing_anchor_key_is_named_with_its_prefix():
    text = params_to_text(_c3_fixture())
    pruned = "\n".join(ln for ln in text.splitlines() if not ln.startswith("anchor.l="))
    with pytest.raises(InvalidParameterError, match="c3 record is missing 'anchor.l'$"):
        params_from_text(pruned)
    with pytest.raises(InvalidParameterError, match="c3: anchor.q='x' is not an integer$"):
        params_from_text(text.replace("anchor.q=3", "anchor.q=x"))


def test_c3_burst_lengths_are_checked_before_the_slot_grid():
    text = params_to_text(_c3_fixture())
    assert text.startswith("construction=c3\nn=8\n")
    for n in (8, 10**12):  # 10**6 does not divide 8; it does divide 10**12
        huge = (
            text.replace("\nn=8\n", f"\nn={n}\n", 1)
            .replace("\ntr=2\n", f"\ntr={10**6}\n", 1)
            .replace("\ntc=2\n", f"\ntc={10**6}\n", 1)
        )
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError):
            params_from_text(huge)
        assert time.perf_counter() - start < 1.0


def test_construction_table_matches_the_records():
    c2 = c2_syndromes(sample_valid(6, 6, 2, 2, random.Random(2)), 2, False)
    for p in (_c1_fixture(), c2, _c3_fixture()):
        construction = construction_of(p)
        assert CONSTRUCTIONS[construction.name] is construction
        assert params_to_text(p).startswith(f"construction={construction.name}\n")
        assert type(params_from_text(params_to_text(p))) is construction.params
    assert [c.burst for c in CONSTRUCTIONS.values()] == [False, False, True]
    with pytest.raises(InvalidParameterError):
        construction_of(object())


def test_c3_anchor_must_be_the_band_construction():
    text = params_to_text(_c3_fixture())
    broken = text.replace("anchor.construction=c2", "anchor.construction=c1")
    with pytest.raises(InvalidParameterError, match="anchor"):
        params_from_text(broken)


def _book(count=3):
    rng = random.Random(8)
    return tuple(sample_good(3, 2, rng) for _ in range(count))


def test_codebook_round_trip():
    book = _book()
    text = codebook_to_text(book)
    assert text.splitlines()[0] == "3 2 3"
    assert codebook_from_text(text) == book
    assert codebook_to_text(codebook_from_text(text)) == text


def test_codebook_empty_needs_explicit_shape():
    with pytest.raises(InvalidParameterError):
        codebook_to_text([])
    text = codebook_to_text([], n=4, q=3)
    assert text == "4 3 0\n"
    assert codebook_from_text(text) == ()


def test_codebook_header_errors():
    with pytest.raises(InvalidParameterError, match="want 'n q count'"):
        codebook_from_text("3 2\n")
    with pytest.raises(InvalidParameterError, match="non-integer"):
        codebook_from_text("3 two 1\n\n0 0 0\n0 0 0\n0 0 0\n")
    with pytest.raises(InvalidParameterError, match="promises"):
        codebook_from_text("3 2 2\n\n0 0 0\n0 0 0\n0 0 0\n")
    with pytest.raises(InvalidParameterError, match="empty codebook"):
        codebook_from_text("   \n")


def test_codebook_homogeneity_enforced():
    book = _book(2)
    odd = Array2D(((0, 1), (1, 0)), 2)
    with pytest.raises(InvalidParameterError):
        codebook_to_text(list(book) + [odd])
    # header shape mismatch on parse
    text = codebook_to_text([odd])
    tampered = text.replace("2 2 1", "3 2 1")
    with pytest.raises(InvalidParameterError, match="header says"):
        codebook_from_text(tampered)


def _c2_fixtures():
    square = c2_syndromes(sample_valid(6, 6, 2, 2, random.Random(2)), 2, False)
    rectangular = c2_syndromes(sample_valid(4, 7, 2, 1, random.Random(3)), 1, True)
    return square, rectangular


def _edit_line(text, key, value):
    lines = text.splitlines()
    (k,) = [k for k, ln in enumerate(lines) if ln.partition("=")[0] == key]
    lines[k] = f"{key}={value}"
    return "\n".join(lines) + "\n"


def _edit_slot(grid, value):
    """grid with slot (1,2) replaced by value."""
    return ((grid[0][0], value, *grid[0][2:]), *grid[1:])


def _fvec(vs):
    return ",".join(map(str, vs))


def _class_field_faults():
    """(build the faulted params, its text, message), with an id, for every
    class type: q = 1, a sum vector one short, a residue equal to
    q and (c2, c3) a parity bit of 2; c3's faults sit in slot (1,2)."""
    c1 = _c1_fixture(relaxed=True)
    c2 = _c2_fixtures()[0]
    c3 = _c3_fixture()
    cases = []
    for p in (c1, c2):
        text = params_to_text(p)
        faults = {
            "q": (dict(q=1), ("q", 1), "alphabet size must be at least 2"),
            "a": (dict(a=p.a[:-1]), ("a", _fvec(p.a[:-1])),
                  f"need {len(p.a)} column sums, got {len(p.a) - 1}"),
            "b": (dict(b=p.b[:-1]), ("b", _fvec(p.b[:-1])),
                  f"need {len(p.b)} row sums, got {len(p.b) - 1}"),
            "residue": (dict(a=(p.q, *p.a[1:])), ("a", _fvec((p.q, *p.a[1:]))),
                        f"sum residue {p.q} outside [0, {p.q})"),
        }
        if p is c2:
            faults["parity"] = (dict(d=(2, *p.d[1:])), ("d1", 2),
                                "inversion parities must be four bits")
        for fault, (fields, (key, value), message) in faults.items():
            cases.append(pytest.param(
                lambda p=p, f=fields: dataclasses.replace(p, **f), _edit_line(text, key, value),
                message, id=f"{type(p).__name__}-{fault}",
            ))
    text = params_to_text(c3)
    a, b, d = c3.a[0][1], c3.b[0][1], c3.d[0][1]
    faults = {
        "q": (dict(q=1), ("q", 1), "alphabet size must be at least 2"),
        "a": (dict(a=_edit_slot(c3.a, a[:-1])), ("(1,2).a", _fvec(a[:-1])),
              f"need {len(a)} column sums, got {len(a) - 1}"),
        "b": (dict(b=_edit_slot(c3.b, b[:-1])), ("(1,2).b", _fvec(b[:-1])),
              f"need {len(b)} row sums, got {len(b) - 1}"),
        "residue": (dict(a=_edit_slot(c3.a, (c3.q, *a[1:]))), ("(1,2).a", _fvec((c3.q, *a[1:]))),
                    f"sum residue {c3.q} outside [0, {c3.q})"),
        "parity": (dict(d=_edit_slot(c3.d, (2, *d[1:]))), ("(1,2).d", _fvec((2, *d[1:]))),
                   "inversion parities must be four bits"),
    }
    for fault, (fields, (key, value), message) in faults.items():
        cases.append(pytest.param(
            lambda f=fields: dataclasses.replace(c3, **f), _edit_line(text, key, value),
            message, id=f"C3Params-{fault}",
        ))
    return cases


@pytest.mark.parametrize("build, text, message", _class_field_faults())
def test_every_class_checks_its_sums_and_parities_by_one_rule(build, text, message):
    for entry in (build, lambda: params_from_text(text)):
        with pytest.raises(InvalidParameterError) as excinfo:
            entry()
        assert str(excinfo.value) == message


def _records():
    return [_c1_fixture(relaxed=False), _c1_fixture(relaxed=True), *_c2_fixtures(), _c3_fixture()]


_RECORD_TEXTS = [params_to_text(p) for p in _records()]
_KEYS = sorted(
    {ln.partition("=")[0] for text in _RECORD_TEXTS for ln in text.splitlines()}
    | {"zz", "(3,1).a", "(1,1).e", "(01,1).a", "anchor.zz", "anchor.anchor.n"}
)
_VALUES = st.one_of(
    st.integers(-2, 10).map(str),
    st.lists(st.integers(-1, 4), max_size=9).map(_fvec),
    st.sampled_from(["", "true", "false", "c1", "c2", "c3", "x", "1.5", " 1 "]),
    st.text(max_size=8),
)


@st.composite
def _mutated_records(draw):
    """A valid c1, c2 or c3 record with one to three lines dropped, doubled,
    swapped, inserted, or given another key or value."""
    lines = draw(st.sampled_from(_RECORD_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        key, _, value = lines[k].partition("=")
        op = draw(st.sampled_from(["drop", "double", "swap", "insert", "key", "value"]))
        if op == "drop":
            del lines[k]
        elif op == "double":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "insert":
            lines.insert(k, draw(st.one_of(st.text(max_size=12), st.builds(
                "{}={}".format, st.sampled_from(_KEYS), _VALUES))))
        elif op == "key":
            lines[k] = f"{draw(st.sampled_from(_KEYS))}={value}"
        else:
            lines[k] = f"{key}={draw(_VALUES)}"
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_records())
def test_mutated_records_are_refused_or_round_trip_byte_stably(text):
    try:
        p = params_from_text(text)
    except InvalidParameterError:
        return
    again = params_to_text(p)
    assert params_from_text(again) == p
    assert params_to_text(params_from_text(again)) == again


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(),
    st.text(alphabet="0123456789 ,=.()#-\nabcdlnqrtx_"),
    _mutated_records(),
))
def test_readers_raise_only_invalid_parameter_on_arbitrary_text(text):
    for read in (params_from_text, array_from_text, codebook_from_text):
        try:
            read(text)
        except InvalidParameterError:
            pass
