"""Hypothesis-scan screens: equivalence with per-hypothesis brute force, and
scan decoders that agree with an unscreened scan over every hypothesis."""

import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisscross import scan
from crisscross.code_c1 import c1_check, c1_decode, c1_syndromes
from crisscross.code_c2 import c2_check, c2_decode, c2_syndromes
from crisscross.core_array import Array2D, DeletionPattern, delete_rows_cols
from crisscross.errors import (
    AmbiguityError,
    CrissCrossError,
    InvalidParameterError,
    NotACodewordError,
)
from crisscross.onedim import comp_rank, composition, inversions, signature_syndrome
from crisscross.reprs import ccr, parity_bits, rcr, rir
from crisscross.scan import (
    ScanContext,
    column_rank_screen,
    move_last,
    resolve_deletion,
    scan_verdict,
)
from crisscross.sample import sample_good, sample_valid


def _plus_one(comp, v):
    return comp[:v] + (comp[v] + 1,) + comp[v + 1:]


def _reference_col_syndrome(ctx, j_hyp, new_row, new_col):
    """Column-rank signature syndrome of one candidate, in O(n q)."""
    q = ctx.q
    comps = [composition(col, q) for col in zip(*ctx.cells)]
    ranks = []
    for k in range(1, ctx.cols + 1):
        if k == j_hyp:
            ranks.append(comp_rank(composition(new_col, q)))
        else:
            ranks.append(comp_rank(_plus_one(comps[k - 1 if k < j_hyp else k - 2], new_row[k - 1])))
    return signature_syndrome(tuple(ranks), ctx.cols)


def _reference_row_syndrome(ctx, i_hyp, new_row, new_col):
    """Row-rank signature syndrome of one candidate, in O(n q)."""
    q = ctx.q
    comps = [composition(row, q) for row in ctx.cells]
    ranks = []
    for k in range(1, ctx.rows + 1):
        if k == i_hyp:
            ranks.append(comp_rank(composition(new_row, q)))
        else:
            ranks.append(comp_rank(_plus_one(comps[k - 1 if k < i_hyp else k - 2], new_col[k - 1])))
    return signature_syndrome(tuple(ranks), ctx.rows)


def _assemble(ctx, i, j):
    """The candidate array of hypothesis (i, j)."""
    return Array2D(ctx.candidate_rows(i, j), ctx.q)


def _hypotheses(ctx):
    for i, j in itertools.product(range(1, ctx.rows + 1), range(1, ctx.cols + 1)):
        yield i, j, ctx.forced_insertions(i, j)


@st.composite
def _scan_cases(draw):
    """A class from a random array, and a minor of it or an arbitrary one."""
    family = draw(st.sampled_from(["c1", "c2"]))
    q = draw(st.sampled_from([2, 3, 5]))
    if family == "c1":
        rows = cols = draw(st.integers(2, 7))
    else:
        l = draw(st.integers(1, 2))
        rows = draw(st.integers(3 * l, 3 * l + 4))
        cols = draw(st.integers(2, 9).filter(lambda c: c != rows))
    symbols = st.integers(0, q - 1)
    x = Array2D(draw(st.lists(st.lists(symbols, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows)), q)
    if family == "c1":
        p = c1_syndromes(x, relaxed=draw(st.booleans()))
    else:
        p = c2_syndromes(x, l)
    if draw(st.booleans()):
        i, j = draw(st.integers(1, rows)), draw(st.integers(1, cols))
        y = delete_rows_cols(x, DeletionPattern((i,), (j,)))
    else:
        y = Array2D(draw(st.lists(st.lists(symbols, min_size=cols - 1, max_size=cols - 1),
                                  min_size=rows - 1, max_size=rows - 1)), q)
    return family, p, y


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_scan_cases())
def test_rank_screens_match_per_hypothesis_brute_force(case):
    family, p, y = case
    ctx = ScanContext(y.cells, p.a, p.full_b, y.q)
    col_target = p.c if family == "c1" else p.c[0]
    cols, rows = ctx.col_ranks, ctx.row_ranks
    want = []
    for i, j, (new_row, new_col) in _hypotheses(ctx):
        x = _assemble(ctx, i, j)
        comps = ccr(x)
        assert ctx.corner(i, j) == new_row[j - 1] == new_col[i - 1]
        col_rank = cols.inserted_rank(i, ctx.corner(i, j))
        assert col_rank == comp_rank(composition(new_col, x.q))
        assert cols.ranks(j, col_rank) == tuple(map(comp_rank, comps))
        if _reference_col_syndrome(ctx, j, new_row, new_col) == col_target:
            want.append((i, j, all(u != v for u, v in zip(comps, comps[1:])), col_rank))
        row_rank = rows.inserted_rank(j, ctx.corner(i, j))
        assert rows.ranks(i, row_rank) == tuple(map(comp_rank, rcr(x)))
        assert rows.syndrome(i, row_rank) == _reference_row_syndrome(ctx, i, new_row, new_col)
    assert column_rank_screen(ctx, col_target) == want


def _column_int(rows, j, q):
    """Base-q integer read down column j (0-based) of the given rows."""
    value = 0
    for row in rows:
        value = value * q + row[j]
    return value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 4), st.integers(1, 3), st.integers(0, 2), st.integers(1, 9),
    st.randoms(use_true_random=False),
)
def test_parity_bits_match_the_base_q_integer_formula(q, l, extra, cols, rng):
    rows = 3 * l + extra
    x = Array2D([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], q)
    bands = [
        inversions(tuple(_column_int(x.cells[k * l:(k + 1) * l], j, q) for j in range(cols))) % 2
        for k in range(3)
    ]
    assert parity_bits(x.cells, l) == (*bands, inversions(rir(x)) % 2)


@st.composite
def _sums_cases(draw, uniform=st.booleans()):
    """An arbitrary minor with column and row sums that agree mod q: uniform
    sums (a uniform full_b needs rows * b == cols * a mod q) or any."""
    q = draw(st.sampled_from([2, 3, 5]))
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    symbols = st.integers(0, q - 1)
    y = Array2D(draw(st.lists(st.lists(symbols, min_size=cols - 1, max_size=cols - 1),
                              min_size=rows - 1, max_size=rows - 1)), q)
    if draw(uniform):
        av, bv = draw(st.sampled_from([
            (av, bv) for av in range(q) for bv in range(q) if (rows * bv - cols * av) % q == 0
        ]))
        a, b = cols * (av,), (rows - 1) * (bv,)
    else:
        a = tuple(draw(st.lists(symbols, min_size=cols, max_size=cols)))
        b = tuple(draw(st.lists(symbols, min_size=rows - 1, max_size=rows - 1)))
    return y, a, b + ((sum(a) - sum(b)) % q,)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sums_cases())
def test_every_candidate_has_the_class_sums(case):
    # the fast paths' final tests skip the sums on this ground
    y, a, full_b = case
    ctx = ScanContext(y.cells, a, full_b, y.q)
    for i, j in itertools.product(range(1, len(full_b) + 1), range(1, len(a) + 1)):
        x = _assemble(ctx, i, j)
        assert x.col_sums() == a and x.row_sums() == full_b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sums_cases(uniform=st.just(True)))
def test_uniform_candidates_permute_the_completion_compositions(case):
    # under uniform sums the fast paths read a candidate's compositions off
    # the completion's, the last one moved to the deleted position
    y, a, full_b = case
    assert len(set(a)) == len(set(full_b)) == 1
    ctx = ScanContext(y.cells, a, full_b, y.q)
    rows, cols = len(full_b), len(a)
    completion = _assemble(ctx, rows, cols)
    for i, j in itertools.product(range(1, rows + 1), range(1, cols + 1)):
        x = _assemble(ctx, i, j)
        assert ccr(x) == move_last(ccr(completion), j)
        assert rcr(x) == move_last(rcr(completion), i)


def test_last_hypothesis_completes_the_minor_under_uniform_sums():
    rng = random.Random(17)
    classes = [c1_syndromes(sample_good(n, q, rng, uniform_sums=True)) for n, q in ((5, 2), (6, 3))]
    classes += [
        c2_syndromes(sample_valid(rows, cols, q, l, rng, uniform_sums=True), l)
        for rows, cols, q, l in ((6, 8, 3, 2), (7, 5, 2, 2))
    ]
    for p in classes:
        rows, cols, q = len(p.full_b), len(p.a), p.q
        for _ in range(20):
            y = Array2D([[rng.randrange(q) for _ in range(cols - 1)] for _ in range(rows - 1)], q)
            x = _assemble(ScanContext(y.cells, p.a, p.full_b, y.q), rows, cols)
            assert tuple(row[:-1] for row in x.cells[:-1]) == y.cells
            assert set(x.row_sums()) == {p.full_b[0]}
            assert set(x.col_sums()) == {p.a[0]}


def test_resolver_matches_parities_over_every_bracketed_candidate():
    # 4x4 ternary candidates, unit bands, the deletion bracketed to rows 2-3
    # (band 1 avoids them) and columns 2-3, under arbitrary sums and parities
    rng = random.Random(23)
    seen = Counter()
    for _ in range(600):
        y = Array2D([[rng.randrange(3) for _ in range(3)] for _ in range(3)], 3)
        a, full_b = (tuple(rng.randrange(3) for _ in range(4)) for _ in range(2))
        d = tuple(rng.randrange(2) for _ in range(4))
        ctx = ScanContext(y.cells, a, full_b, y.q)
        band = {j: _assemble(ctx, 2, j).cells[0] for j in (2, 3)}
        col_tie = band[2] == band[3]
        j = 2 if col_tie else next(j for j in (2, 3) if inversions(band[j]) % 2 == d[0])
        cands = {i: _assemble(ctx, i, j) for i in (2, 3)}
        matches = [(i, x) for i, x in cands.items() if inversions(x.cells) % 2 == d[3]]
        try:
            got = resolve_deletion(ctx, 1, d, (2, 3), (2, 3))
        except NotACodewordError:
            seen["none"] += 1
            assert not matches
            continue
        except AmbiguityError:
            seen["ambiguous"] += 1
            assert len({x for _, x in matches}) == 2
            continue
        row_tie = len(matches) == 2
        seen["row tie" if row_tie else "col tie" if col_tie else "exact"] += 1
        # band 1 settled the column bracket, matching or tying
        assert got == (
            matches[0][1].cells, None if row_tie else matches[0][0], None if col_tie else j, 1
        )
    assert min(seen.values()) >= 5 and len(seen) == 5, seen


@st.composite
def _rank_tables(draw):
    """A table over q of 1-300 rows, both sides of the 255/256-row limit of
    the byte-per-column counts, with a symbol at or above q planted or not."""
    q = draw(st.sampled_from([2, 3, 4, 7, 256, 257]))
    rows = draw(st.one_of(st.integers(1, 300), st.sampled_from([254, 255, 256, 257])))
    cols = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    bad = draw(st.one_of(st.none(), st.integers(q, q + 300)))
    if bad is not None:
        table[rng.randrange(rows)][rng.randrange(cols)] = bad
    return draw(st.sampled_from([tuple, list]))(map(tuple, table)), q, bad


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_rank_tables())
def test_rank_kernel_ranks_each_column_like_composition(case):
    table, q, bad = case
    if bad is not None:
        with pytest.raises(InvalidParameterError, match=f"symbol {bad} outside"):
            scan.comp_ranks(table, q)
        return
    want = tuple(comp_rank(composition(col, q)) for col in zip(*table))
    assert scan.comp_ranks(table, q) == want


@st.composite
def _resolver_cases(draw):
    """An arbitrary minor with uniform or arbitrary sums that agree mod q,
    parities for three bands of height l, and a bracket of one or two rows
    and columns."""
    q, l = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2))
    rows, cols = draw(st.integers(3 * l, 3 * l + 3)), draw(st.integers(2, 7))
    symbols = st.integers(0, q - 1)
    y = Array2D(draw(st.lists(st.lists(symbols, min_size=cols - 1, max_size=cols - 1),
                              min_size=rows - 1, max_size=rows - 1)), q)
    uniform = [(av, bv) for av in range(q) for bv in range(q) if (rows * bv - cols * av) % q == 0]
    if draw(st.booleans()):
        av, bv = draw(st.sampled_from(uniform))
        a, b = cols * (av,), (rows - 1) * (bv,)
    else:
        a = tuple(draw(st.lists(symbols, min_size=cols, max_size=cols)))
        b = tuple(draw(st.lists(symbols, min_size=rows - 1, max_size=rows - 1)))
    full_b = b + ((sum(a) - sum(b)) % q,)
    d = tuple(draw(st.integers(0, 1)) for _ in range(4))
    lo, j = draw(st.integers(1, rows - 1)), draw(st.integers(1, cols - 1))
    brackets = (lo, draw(st.sampled_from([lo, lo + 1]))), (j, draw(st.sampled_from([j, j + 1])))
    return ScanContext(y.cells, a, full_b, y.q), a, l, d, *brackets


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_resolver_cases())
def test_resolver_candidate_has_the_class_sums_and_row_parity(case):
    # the fast paths test only weak validity and the open band parities on it
    ctx, a, l, d, row_interval, col_interval = case
    try:
        rows, i, j, band = resolve_deletion(ctx, l, d, row_interval, col_interval)
    except (NotACodewordError, AmbiguityError):
        return
    x = Array2D(rows, ctx.q)
    assert x.col_sums() == a and x.row_sums() == ctx.full_b
    assert inversions(rows) % 2 == d[3]
    assert rows == ctx.candidate_rows(row_interval[0] if i is None else i, j or col_interval[0])
    assert (band is None) == (col_interval[0] == col_interval[1])
    if band is not None:
        cols = tuple(zip(*rows[(band - 1) * l:band * l]))
        tie = j is None and cols[col_interval[0] - 1] == cols[col_interval[0]]
        assert tie or inversions(cols) % 2 == d[band - 1]


def test_decode_route_takes_fast_exactly_for_uniform_sums():
    routes = {
        (path, u): scan.decode_route(path, u) for path in ("auto", "scan") for u in (True, False)
    }
    assert routes == {
        ("auto", True): "fast", ("auto", False): "scan",
        ("scan", True): "scan", ("scan", False): "scan",
    }
    assert scan.decode_route("fast", True) == "fast"
    with pytest.raises(InvalidParameterError, match="requires uniform"):
        scan.decode_route("fast", False)
    with pytest.raises(InvalidParameterError, match="unknown decode path"):
        scan.decode_route("residue", True)


def _band_by_loop(l, lo, hi):
    """The band resolve_deletion once took for a two-column bracket: the
    first of the three bands whose rows avoid [lo, hi], if any."""
    for k in range(1, 4):
        if k * l < lo or (k - 1) * l + 1 > hi:
            return k
    return None


def test_resolver_reads_the_first_band_that_avoids_the_row_bracket(monkeypatch):
    # Every bracket of one or two rows, l <= 8, in 3l and 3l + 1 rows. Cells
    # over a large alphabet keep the bands' two columns distinct, so the
    # resolver always reads the parity of the band it chose, first.
    rng = random.Random(31)
    read = []

    def spy(seq):
        read.append(seq)
        return inversions(seq)

    monkeypatch.setattr(scan, "inversions", spy)
    cases = 0
    for l in range(1, 9):
        for rows in (3 * l, 3 * l + 1):
            y = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(rows - 1)]
            ctx = ScanContext(y, (5, 6, 7), tuple(range(rows)), 1000)
            for lo, hi in ((lo, hi) for lo in range(1, rows + 1) for hi in (lo, lo + 1)):
                if hi > rows:
                    continue
                read.clear()
                try:
                    resolve_deletion(ctx, l, (0, 0, 0, 0), (lo, hi), (1, 2))
                except (NotACodewordError, AmbiguityError):
                    pass
                cand = ctx.candidate_rows(lo, 1)
                bands = [tuple(zip(*cand[(k - 1) * l:k * l])) for k in (1, 2, 3)]
                assert bands.index(read[0]) + 1 == _band_by_loop(l, lo, hi)
                cases += 1
    assert cases == 432


def _reference_scan(y, p, check):
    """Every hypothesis through the full membership check, no screen."""
    ctx = ScanContext(y.cells, p.a, p.full_b, y.q)
    survivors = {}
    for i, j, _ in _hypotheses(ctx):
        cand = _assemble(ctx, i, j)
        if check(cand, p):
            survivors.setdefault(cand, []).append((i, j))
    return scan_verdict(survivors, "scan")


def _outcome(decode, *args):
    try:
        out = decode(*args)
    except CrissCrossError as exc:
        return type(exc), str(exc)
    return out.array, out.row_interval, out.col_interval, out.path


def _minors(rng, x, count):
    """True minors of x, then arbitrary ones and minors of a near twin of x."""
    rows, cols, q = x.rows, x.cols, x.q
    for _ in range(count):
        i, j = rng.randint(1, rows), rng.randint(1, cols)
        yield delete_rows_cols(x, DeletionPattern((i,), (j,)))
    for _ in range(count // 2):
        yield Array2D([[rng.randrange(q) for _ in range(cols - 1)] for _ in range(rows - 1)], q)
    for _ in range(count // 2):
        cells = [list(row) for row in x.cells]
        cells[rng.randrange(rows)][rng.randrange(cols)] ^= 1
        i, j = rng.randint(1, rows), rng.randint(1, cols)
        yield delete_rows_cols(Array2D(cells, q), DeletionPattern((i,), (j,)))


def _non_uniform(draw_codeword, syndromes, seed):
    rng = random.Random(seed)
    while True:
        x = draw_codeword(rng)
        p = syndromes(x)
        if not p.uniform:
            return rng, x, p


_C1_CASES = [(n, 100 + n) for n in range(8, 13)]
_C2_CASES = [(12, 12, 3, 212), (9, 12, 3, 912)]


@pytest.mark.parametrize("n, seed", _C1_CASES)
def test_c1_scan_matches_unscreened_scan(n, seed):
    rng, x, p = _non_uniform(lambda r: sample_good(n, 2, r), c1_syndromes, seed)
    for y in _minors(rng, x, 8):
        assert _outcome(c1_decode, y, p, "scan") == _outcome(_reference_scan, y, p, c1_check)


@pytest.mark.parametrize("rows, cols, l, seed", _C2_CASES)
def test_c2_scan_matches_unscreened_scan(rows, cols, l, seed):
    rng, x, p = _non_uniform(
        lambda r: sample_valid(rows, cols, 2, l, r), lambda x: c2_syndromes(x, l), seed
    )
    for y in _minors(rng, x, 8):
        assert _outcome(c2_decode, y, p, "scan") == _outcome(_reference_scan, y, p, c2_check)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scan_cases())
def test_scan_decoders_match_unscreened_scan_on_small_classes(case):
    family, p, y = case
    decode, check = (c1_decode, c1_check) if family == "c1" else (c2_decode, c2_check)
    assert _outcome(decode, y, p, "scan") == _outcome(_reference_scan, y, p, check)


def _count_calls(monkeypatch, names):
    """Count calls to each named package function through every module's binding of it."""
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module in list(sys.modules.values()):
        if module.__name__.startswith("crisscross"):
            for name in names & vars(module).keys():
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    return calls


@pytest.mark.parametrize("family", ["c1", "c2"])
def test_scan_decode_builds_one_context_and_arrays_only_past_both_syndromes(
    monkeypatch, array_builds, family
):
    # one column screen per decode; the row syndrome comes off the same
    # context, and the final test takes the screens' ranks, not c*_check
    if family == "c1":
        rng, x, p = _non_uniform(lambda r: sample_good(10, 2, r), c1_syndromes, 31)
        decode, targets = c1_decode, (p.c, p.d)

        def syndromes(cand):
            ranks = tuple(map(comp_rank, ccr(cand)))
            return signature_syndrome(ranks, p.n), signature_syndrome(cand.cells, p.n)
    else:
        rng, x, p = _non_uniform(
            lambda r: sample_valid(12, 9, 2, 3, r), lambda x: c2_syndromes(x, 3), 31
        )
        decode, targets = c2_decode, p.c

        def syndromes(cand):
            return (signature_syndrome(tuple(map(comp_rank, ccr(cand))), p.cols),
                    signature_syndrome(tuple(map(comp_rank, rcr(cand))), p.rows))
    minors = list(_minors(rng, x, 6))
    passing = []
    for y in minors:
        ctx = ScanContext(y.cells, p.a, p.full_b, y.q)
        cands = (_assemble(ctx, i, j) for i, j, _ in _hypotheses(ctx))
        passing.append(sum(syndromes(cand) == targets for cand in cands))
    assert min(passing[:6]) >= 1  # the true minors
    calls = _count_calls(monkeypatch, {"c1_check", "c2_check", "comp_ranks", "transpose"})
    contexts = []
    init = scan.ScanContext.__init__
    monkeypatch.setattr(
        scan.ScanContext, "__init__", lambda self, *args: contexts.append(init(self, *args))
    )
    derived, validated = array_builds
    for y, most in zip(minors, passing):
        contexts.clear()
        derived.clear()
        validated.clear()
        _outcome(decode, y, p, "scan")
        assert len(contexts) == 1
        assert len(derived) <= most and not validated
    assert not calls


def test_c2_scan_builds_arrays_only_for_distinct_survivors(array_builds):
    # band validity and parities are tested on the candidates' row tuples,
    # so the decode builds one array per distinct member it found and no other
    rng, x, p = _non_uniform(lambda r: sample_valid(12, 9, 2, 3, r), lambda x: c2_syndromes(x, 3), 31)
    minors = list(_minors(rng, x, 8))
    survivors = []
    for y in minors:
        ctx = ScanContext(y.cells, p.a, p.full_b, y.q)
        cands = {_assemble(ctx, i, j) for i, j, _ in _hypotheses(ctx)}
        survivors.append({cand for cand in cands if c2_check(cand, p)})
    assert sum(map(len, survivors)) >= 8  # the true minors at least
    built, validated = array_builds
    for y, want in zip(minors, survivors):
        built.clear()
        validated.clear()
        _outcome(c2_decode, y, p, "scan")
        assert set(built) == want and len(built) == len(want) and not validated
