"""Single criss-cross deletion correcting code with exact position recovery.

Codewords are band-valid arrays: sum constraints pin the missing symbols,
composition syndromes narrow the deleted column and row to intervals of
length at most two, and inversion parities of band-column integers and of
row integers resolve the exact positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import eq

from .core_array import Array2D, derived_array, require_shape
from .errors import (
    InvalidParameterError,
    NotACodewordError,
)
from .onedim import inversions, signature_syndrome, vt_decode_known_symbol
from .outcome import DecodeOutcome
from .reprs import bands_fit, check_band_height, check_parity_bits, no_triple_runs, parity_bits
from .scan import (
    ScanContext,
    check_class_sums,
    column_rank_screen,
    comp_ranks,
    decode_route,
    full_row_sums,
    move_last,
    resolve_deletion,
    scan_verdict,
)


@dataclass(frozen=True)
class C2Params:
    """Class parameters for a rows x cols array with band height l.

    b stores the first rows-1 row sums; the last is derived from the column
    sums. c holds the column- and row-composition signature syndromes,
    d the three band inversion parities plus the row-integer parity.
    """

    rows: int
    cols: int
    q: int
    l: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, int]
    d: tuple[int, int, int, int]
    rows_distinct: bool = False

    def __post_init__(self):
        check_band_height(self.rows, self.l)
        if self.cols < 2:
            raise InvalidParameterError("need at least two columns to delete one")
        check_class_sums(self.q, self.a, self.cols, self.b, self.rows - 1)
        if len(self.c) != 2 or not (0 <= self.c[0] < self.cols and 0 <= self.c[1] < self.rows):
            raise InvalidParameterError("composition syndromes must lie in [0, cols) x [0, rows)")
        check_parity_bits(self.d)

    @property
    def full_b(self) -> tuple[int, ...]:
        return full_row_sums(self.a, self.b, self.q)

    @property
    def uniform(self) -> bool:
        return len(set(self.a)) == 1 and len(set(self.full_b)) == 1


def default_band_height(n: int, q: int) -> int:
    """Band height giving high-probability validity, clipped so three bands fit."""
    base = math.ceil(math.log2(n)) + (6 if q == 2 else 2)
    return max(1, min(base, n // 3))


def _ranks(x: Array2D) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ranks of the column compositions of x, then of its row compositions."""
    return comp_ranks(x.cells, x.q), comp_ranks(tuple(zip(*x.cells)), x.q)


def _class_of(x: Array2D, col_ranks, row_ranks, l: int, rows_distinct: bool) -> C2Params:
    """Parameters of the class of x, whose column and row composition
    ranks are col_ranks and row_ranks."""
    return C2Params(
        rows=x.rows,
        cols=x.cols,
        q=x.q,
        l=l,
        a=x.col_sums(),
        b=x.row_sums()[: x.rows - 1],
        c=(signature_syndrome(col_ranks, x.cols), signature_syndrome(row_ranks, x.rows)),
        d=parity_bits(x.cells, l),
        rows_distinct=rows_distinct,
    )


def _fits(rows, col_ranks, row_ranks, l: int, rows_distinct: bool, d=None, matched=None) -> bool:
    """Band validity of the row tuples rows, whose composition ranks are given,
    with distinct consecutive rows if asked and, if d is given, parities d
    but for band matched's and the row parity (as scan.resolve_deletion leaves them)."""
    return (
        no_triple_runs(col_ranks) and no_triple_runs(row_ranks)
        and not (rows_distinct and any(map(eq, rows, rows[1:])))
        and bands_fit(rows, l, d, matched)
    )


def c2_syndromes(x: Array2D, l: int, rows_distinct: bool = False) -> C2Params:
    """Parameters of the class containing x (band height l)."""
    check_band_height(x.rows, l)
    return _class_of(x, *_ranks(x), l, rows_distinct)


def c2_member_class(x: Array2D, l: int, rows_distinct: bool = False) -> C2Params | None:
    """The class of x (band height l) if x is a member of it, else None."""
    check_band_height(x.rows, l)
    ranks = _ranks(x)
    member = _fits(x.cells, *ranks, l, rows_distinct)
    return _class_of(x, *ranks, l, rows_distinct) if member else None


def c2_check(x: Array2D, p: C2Params) -> bool:
    """Membership test: x is band-valid (with distinct consecutive rows if the
    class asks for them) and its own class is p."""
    require_shape(x, p.rows, p.cols, p.q, "the class parameters")
    # Sums first: the exhaustive membership tests try every array on every class.
    return x.col_sums() == p.a and c2_member_class(x, p.l, p.rows_distinct) == p


@dataclass(frozen=True)
class IntervalLocation:
    """Output of the interval stage: candidate deletion ranges."""

    row_interval: tuple[int, int]
    col_interval: tuple[int, int]


def c2_locate_intervals(y: Array2D, p: C2Params) -> IntervalLocation:
    """Bracket the deleted column and row into runs of length at most two.

    Requires uniform sums, under which the candidate of hypothesis (rows,
    cols) completes the minor whatever the deleted positions. A run above two
    leaves three equal compositions in a row in every candidate: no member.
    """
    if not p.uniform:
        raise InvalidParameterError("interval location requires uniform sums")
    require_shape(y, p.rows - 1, p.cols - 1, p.q, "a single deletion")
    return _locate(y, p)[1]


def _locate(y: Array2D, p: C2Params):
    """c2_locate_intervals on a class with uniform sums, plus its ScanContext
    and the completion's composition ranks."""
    ctx = ScanContext(y.cells, p.a, p.full_b, p.q)
    rows = ctx.candidate_rows(p.rows, p.cols)
    col_obs = comp_ranks(rows, p.q)
    _, col_run = vt_decode_known_symbol(col_obs[:-1], col_obs[-1], p.c[0], p.cols)
    row_obs = comp_ranks(tuple(zip(*rows)), p.q)
    _, row_run = vt_decode_known_symbol(row_obs[:-1], row_obs[-1], p.c[1], p.rows)
    for run in (col_run, row_run):
        if run[1] - run[0] > 1:
            raise NotACodewordError(
                "composition run longer than two contradicts the class structure"
            )
    return ctx, IntervalLocation(row_interval=row_run, col_interval=col_run), col_obs, row_obs


def c2_decode(y: Array2D, p: C2Params, path: str = "auto") -> DecodeOutcome:
    """Recover the codeword and deletion positions from a single criss-cross deletion.

    Fast path (uniform sums): locate intervals, then resolve the column using a
    band disjoint from the row interval and the matching band parity, then the
    row using the row-integer parity. General path: the column-rank screen, the
    row-rank syndrome of each hit off the same tables. Both then test what the
    sums and syndromes leave: band validity and the parities.
    """
    path = decode_route(path, p.uniform)
    require_shape(y, p.rows - 1, p.cols - 1, p.q, "a single deletion")
    return _decode_fast(y, p) if path == "fast" else _decode_scan(y, p)


def _decode_fast(y: Array2D, p: C2Params) -> DecodeOutcome:
    ctx, loc, col_obs, row_obs = _locate(y, p)
    x, i, j, band = resolve_deletion(ctx, p.l, p.d, loc.row_interval, loc.col_interval)
    rows = loc.row_interval if i is None else (i, i)
    cols = loc.col_interval if j is None else (j, j)
    # x, laid out at (rows[0], cols[0]) inside the runs, has p's sums, syndromes
    # and row parity; its compositions are the completion's, last ones moved there.
    col_ranks, row_ranks = move_last(col_obs, cols[0]), move_last(row_obs, rows[0])
    if not _fits(x, col_ranks, row_ranks, p.l, p.rows_distinct, p.d, band):
        raise NotACodewordError("completed array fails the class constraints")
    return DecodeOutcome(derived_array(x, p.q), rows, cols, "fast")


def _decode_scan(y: Array2D, p: C2Params) -> DecodeOutcome:
    ctx = ScanContext(y.cells, p.a, p.full_b, p.q)
    cols, rows = ctx.col_ranks, ctx.row_ranks
    survivors: dict[tuple, list[tuple[int, int]]] = {}
    for i_hyp, j_hyp, _, col_rank in column_rank_screen(ctx, p.c[0]):
        row_rank = rows.inserted_rank(j_hyp, ctx.corner(i_hyp, j_hyp))
        if rows.syndrome(i_hyp, row_rank) != p.c[1]:
            continue
        cand = ctx.candidate_rows(i_hyp, j_hyp)
        # cand has p's sums by construction and p's syndromes by the screens;
        # only a member becomes an array.
        col_ranks, row_ranks = cols.ranks(j_hyp, col_rank), rows.ranks(i_hyp, row_rank)
        if _fits(cand, col_ranks, row_ranks, p.l, p.rows_distinct, p.d) and (
            inversions(cand) % 2 == p.d[3]
        ):
            survivors.setdefault(cand, []).append((i_hyp, j_hyp))
    return scan_verdict({derived_array(x, p.q): hyps for x, hyps in survivors.items()}, "scan")
