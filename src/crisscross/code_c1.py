"""Single criss-cross deletion correcting code over good arrays.

A codeword is an n x n q-ary array with adjacent-distinct column
compositions whose column sums, row sums, column-composition signature
syndrome, and row-integer signature syndrome match the class parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import eq, ne
from typing import Iterator

from .core_array import (
    Array2D,
    DEFAULT_ENUMERATION_CAP,
    derived_array,
    enumerate_arrays,
    require_shape,
)
from .errors import (
    CapacityError,
    InvalidParameterError,
    NotACodewordError,
)
from .onedim import inserted_syndrome, signature_syndrome, vt_decode_known_symbol
from .outcome import DecodeOutcome
from .scan import (
    ScanContext,
    check_class_sums,
    column_rank_screen,
    comp_ranks,
    decode_route,
    full_row_sums,
    move_last,
    scan_verdict,
)


@dataclass(frozen=True)
class C1Params:
    """Class parameters; relaxed mode stores n-1 row sums and derives the last."""

    n: int
    q: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: int
    d: int
    relaxed: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError("need n >= 2 to delete a row and a column")
        check_class_sums(self.q, self.a, self.n, self.b, self.n - 1 if self.relaxed else self.n)
        if not 0 <= self.c < self.n or not 0 <= self.d < self.n:
            raise InvalidParameterError("signature syndromes must lie in [0, n)")
        if not self.relaxed and (sum(self.a) - sum(self.b)) % self.q:
            raise InvalidParameterError(
                "inconsistent sums: column totals and row totals must agree mod q"
            )

    @property
    def full_b(self) -> tuple[int, ...]:
        """Row sums for every row, deriving the last one in relaxed mode."""
        return full_row_sums(self.a, self.b, self.q) if self.relaxed else self.b

    @property
    def uniform(self) -> bool:
        """True iff all column sums agree and all (derived) row sums agree."""
        return len(set(self.a)) == 1 and len(set(self.full_b)) == 1


def c1_syndromes(x: Array2D, relaxed: bool = True) -> C1Params:
    """Parameters of the class containing x."""
    if x.rows != x.cols:
        raise InvalidParameterError("this construction is defined on square arrays")
    return _class_of(x, comp_ranks(x.cells, x.q), relaxed)


def _class_of(x: Array2D, col_ranks: tuple[int, ...], relaxed: bool) -> C1Params:
    """Parameters of the class of the square x, given its column composition ranks."""
    n = x.rows
    b = x.row_sums()
    return C1Params(
        n=n,
        q=x.q,
        a=x.col_sums(),
        b=b[: n - 1] if relaxed else b,
        c=signature_syndrome(col_ranks, n),
        d=signature_syndrome(x.cells, n),
        relaxed=relaxed,
    )


def c1_check(x: Array2D, p: C1Params) -> bool:
    """Membership test: x is good and its own class is p."""
    require_shape(x, p.n, p.n, p.q, "the class parameters")
    # Sums first: the exhaustive membership tests try every array on every class.
    if x.col_sums() != p.a:
        return False
    # Ranks order like the compositions, so x is good iff adjacent ranks differ.
    ranks = comp_ranks(x.cells, x.q)
    return all(map(ne, ranks, ranks[1:])) and _class_of(x, ranks, p.relaxed) == p


def c1_decode(y: Array2D, p: C1Params, path: str = "auto") -> DecodeOutcome:
    """Recover the codeword whose deletion ball contains the (n-1) x (n-1) minor y.

    With uniform sums the missing symbols are completed directly, the two
    VT-style syndromes localize the deleted column and row, and the result is
    a member iff its adjacent columns differ. Otherwise each hypothesis whose
    column-rank syndrome matches, with adjacent-distinct columns, and whose
    row-integer syndrome matches (O(1) each from tables) gives a member; ball
    disjointness of the class makes at most one survivor possible.
    """
    path = decode_route(path, p.uniform)
    require_shape(y, p.n - 1, p.n - 1, p.q, "a single deletion")
    return _decode_fast(y, p) if path == "fast" else _decode_scan(y, p)


def _decode_fast(y: Array2D, p: C1Params) -> DecodeOutcome:
    n = p.n
    ctx = ScanContext(y.cells, p.a, p.full_b, p.q)
    # With uniform sums the candidate of hypothesis (n, n) completes y, the
    # deleted row and column last, whatever the deleted positions.
    ranks = comp_ranks(ctx.candidate_rows(n, n), p.q)
    _, col_run = vt_decode_known_symbol(ranks[:-1], ranks[-1], p.c, n)
    # Candidates with p's column syndrome have j in col_run and one column
    # order, which for a run above one puts two equal compositions side by side.
    j = col_run[0]
    cols = move_last(ranks, j)
    if any(map(eq, cols, cols[1:])):
        raise NotACodewordError("no completion has adjacent-distinct column compositions")
    # Rows share one length and the alphabet, so tuple order is rir order;
    # the decode lays out the candidate at (row_run[0], j).
    rows = ctx.candidate_rows(n, j)
    x, row_run = vt_decode_known_symbol(rows[:-1], rows[-1], p.d, n)
    # x has p's sums by construction and p's syndromes by the two matches.
    return DecodeOutcome(derived_array(x, p.q), row_run, (j, j), "fast")


def _decode_scan(y: Array2D, p: C1Params) -> DecodeOutcome:
    ctx = ScanContext(y.cells, p.a, p.full_b, p.q)
    by_col = {}
    survivors: dict[Array2D, list[tuple[int, int]]] = {}
    for i_hyp, j_hyp, distinct, _ in column_rank_screen(ctx, p.c):
        if not distinct:
            continue
        if j_hyp not in by_col:
            # The minor's rows with their symbol above (below) the deleted row at
            # column j; rows share length and alphabet, so tuple order is rir order.
            above, below = (
                [row[:j_hyp - 1] + (v,) + row[j_hyp - 1:] for row, v in zip(ctx.cells, side)]
                for side in (ctx.up, ctx.down)
            )
            by_col[j_hyp] = above, below, inserted_syndrome(above, below, p.n)
        above, below, syndrome = by_col[j_hyp]
        new_row = ctx.forced_insertions(i_hyp, j_hyp)[0]
        if syndrome(i_hyp, new_row) == p.d:
            cand = derived_array((*above[:i_hyp - 1], new_row, *below[i_hyp - 1:]), p.q)
            survivors.setdefault(cand, []).append((i_hyp, j_hyp))
    return scan_verdict(survivors, "scan")


def c1_enumerate(p: C1Params, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Array2D]:
    """Yield every codeword of the class in lexicographic order (tiny n only)."""
    total = p.q ** (p.n * p.n)
    if total > cap:
        raise CapacityError(f"{total} arrays exceed the enumeration cap {cap}")
    for x in enumerate_arrays(p.n, p.n, p.q, cap):
        if c1_check(x, p):
            yield x
