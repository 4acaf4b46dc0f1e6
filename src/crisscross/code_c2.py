"""Single criss-cross deletion correcting code with exact position recovery.

Codewords are band-valid arrays: sum constraints pin the missing symbols,
composition syndromes narrow the deleted column and row to intervals of
length at most two, and inversion parities of band-column integers and of
row integers resolve the exact positions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core_array import Array2D, move_last_col_to, move_last_row_to, require_shape, transpose
from .errors import (
    CodePropertyError,
    InvalidParameterError,
    NotACodewordError,
)
from .onedim import comp_rank, signature_syndrome, vt_decode_known_symbol
from .outcome import DecodeOutcome
from .reprs import ccr, is_l_valid, rir, rows_are_distinct
from .scan import (
    ScanContext,
    band_rows,
    column_int,
    complete_array,
    disjoint_band,
    parity_bits,
    resolve_by_parity,
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
        if self.l < 1:
            raise InvalidParameterError("band height must be positive")
        if self.rows < 3 * self.l:
            raise InvalidParameterError(
                f"rows {self.rows} cannot hold three bands of height {self.l}"
            )
        if self.cols < 2:
            raise InvalidParameterError("need at least two columns to delete one")
        if self.q < 2:
            raise InvalidParameterError("alphabet size must be at least 2")
        if len(self.a) != self.cols:
            raise InvalidParameterError(f"need {self.cols} column sums, got {len(self.a)}")
        if len(self.b) != self.rows - 1:
            raise InvalidParameterError(f"need {self.rows - 1} row sums, got {len(self.b)}")
        for v in self.a + self.b:
            if not 0 <= v < self.q:
                raise InvalidParameterError(f"sum residue {v} outside [0, {self.q})")
        if len(self.c) != 2 or not (0 <= self.c[0] < self.cols and 0 <= self.c[1] < self.rows):
            raise InvalidParameterError("composition syndromes must lie in [0, cols) x [0, rows)")
        if len(self.d) != 4 or any(bit not in (0, 1) for bit in self.d):
            raise InvalidParameterError("inversion parities must be four bits")

    @property
    def n(self) -> int:
        if self.rows != self.cols:
            raise InvalidParameterError("n is only defined for square parameters")
        return self.rows

    @property
    def full_b(self) -> tuple[int, ...]:
        return self.b + ((sum(self.a) - sum(self.b)) % self.q,)

    @property
    def uniform(self) -> bool:
        return len(set(self.a)) == 1 and len(set(self.full_b)) == 1


def default_band_height(n: int, q: int) -> int:
    """Band height giving high-probability validity, clipped so three bands fit."""
    base = math.ceil(math.log2(n)) + (6 if q == 2 else 2)
    return max(1, min(base, n // 3))


def c2_syndromes(x: Array2D, l: int, rows_distinct: bool = False) -> C2Params:
    """Parameters of the class containing x (band height l)."""
    if x.rows < 3 * l:
        raise InvalidParameterError(f"rows {x.rows} cannot hold three bands of height {l}")
    col_syn = signature_syndrome(tuple(comp_rank(c) for c in ccr(x)), x.cols)
    row_syn = signature_syndrome(tuple(comp_rank(c) for c in ccr(transpose(x))), x.rows)
    return C2Params(
        rows=x.rows,
        cols=x.cols,
        q=x.q,
        l=l,
        a=x.col_sums(),
        b=x.row_sums()[: x.rows - 1],
        c=(col_syn, row_syn),
        d=parity_bits(x, l),
        rows_distinct=rows_distinct,
    )


def c2_check(x: Array2D, p: C2Params) -> bool:
    """Membership test against every class constraint."""
    require_shape(x, p.rows, p.cols, p.q, "the class parameters")
    if x.col_sums() != p.a:
        return False
    if x.row_sums()[: p.rows - 1] != p.b:
        return False
    if p.rows_distinct and not rows_are_distinct(x):
        return False
    if not is_l_valid(x, p.l):
        return False
    if signature_syndrome(tuple(comp_rank(c) for c in ccr(x)), p.cols) != p.c[0]:
        return False
    if signature_syndrome(tuple(comp_rank(c) for c in ccr(transpose(x))), p.rows) != p.c[1]:
        return False
    return parity_bits(x, p.l) == p.d


@dataclass(frozen=True)
class IntervalLocation:
    """Output of the interval stage: candidate deletion ranges plus the
    completed array whose last row/column hold the deleted ones."""

    row_interval: tuple[int, int]
    col_interval: tuple[int, int]
    completed: Array2D


def c2_locate_intervals(y: Array2D, p: C2Params) -> IntervalLocation:
    """Bracket the deleted column and row into runs of length at most two.

    Requires uniform sums (the direct completion is only well defined then).
    Run lengths above two contradict the no-triple-composition conditions.
    """
    if not p.uniform:
        raise InvalidParameterError("interval location requires uniform sums")
    require_shape(y, p.rows - 1, p.cols - 1, p.q, "a single deletion")
    x2 = complete_array(y, p.a[0], p.full_b[0])
    col_obs = tuple(comp_rank(c) for c in ccr(x2))
    _, col_run = vt_decode_known_symbol(col_obs[:-1], col_obs[-1], p.c[0], p.cols)
    row_obs = tuple(comp_rank(c) for c in ccr(transpose(x2)))
    _, row_run = vt_decode_known_symbol(row_obs[:-1], row_obs[-1], p.c[1], p.rows)
    for run in (col_run, row_run):
        if run[1] - run[0] > 1:
            raise CodePropertyError(
                "composition run longer than two contradicts the class structure"
            )
    return IntervalLocation(
        row_interval=row_run,
        col_interval=col_run,
        completed=x2,
    )


def c2_decode(y: Array2D, p: C2Params, path: str = "auto") -> DecodeOutcome:
    """Recover the codeword and deletion positions from a single criss-cross deletion.

    Fast path (uniform sums): locate intervals, then resolve the column using a
    band disjoint from the row interval and the matching band parity, then the
    row using the row-integer parity. General path: hypothesis scan filtered by
    full membership.
    """
    if path not in ("auto", "fast", "scan"):
        raise InvalidParameterError(f"unknown decode path {path!r}")
    require_shape(y, p.rows - 1, p.cols - 1, p.q, "a single deletion")
    if path == "auto":
        path = "fast" if p.uniform else "scan"
    if path == "fast":
        return _decode_fast(y, p)
    return _decode_scan(y, p)


def _decode_fast(y: Array2D, p: C2Params) -> DecodeOutcome:
    loc = c2_locate_intervals(y, p)
    x2 = loc.completed
    q, l = p.q, p.l

    col_cands = list(range(loc.col_interval[0], loc.col_interval[1] + 1))
    if len(col_cands) == 1:
        j, col_exact = col_cands[0], True
    else:
        k = disjoint_band(l, loc.row_interval)
        band = band_rows(x2, k, l, loc.row_interval)
        y_cir = tuple(column_int(band, t, q) for t in range(p.cols - 1))
        missing = column_int(band, p.cols - 1, q)
        j, col_exact = resolve_by_parity(y_cir, missing, col_cands, p.d[k - 1], "column")
    x1 = move_last_col_to(x2, j)

    row_cands = list(range(loc.row_interval[0], loc.row_interval[1] + 1))
    ints = rir(x1)
    i, row_exact = resolve_by_parity(ints[:-1], ints[-1], row_cands, p.d[3], "row")
    x = move_last_row_to(x1, i)

    if not c2_check(x, p):
        raise NotACodewordError("completed array fails the class constraints")
    return DecodeOutcome(
        array=x,
        row_interval=(i, i) if row_exact else tuple(loc.row_interval),
        col_interval=(j, j) if col_exact else tuple(loc.col_interval),
        path="fast",
    )


def _decode_scan(y: Array2D, p: C2Params) -> DecodeOutcome:
    ctx = ScanContext(y, p.a, p.full_b)
    survivors: dict[Array2D, list[tuple[int, int]]] = {}
    for i_hyp, j_hyp in itertools.product(
        range(1, p.rows + 1), range(1, p.cols + 1)
    ):
        new_row, new_col = ctx.forced_insertions(i_hyp, j_hyp)
        if ctx.col_rank_syndrome(j_hyp, new_row, new_col) != p.c[0]:
            continue
        if ctx.row_rank_syndrome(i_hyp, new_row, new_col) != p.c[1]:
            continue
        cand = ctx.assemble(i_hyp, j_hyp, new_row, new_col)
        if c2_check(cand, p):
            survivors.setdefault(cand, []).append((i_hyp, j_hyp))
    return scan_verdict(survivors, "scan")
