"""Burst criss-cross correction via residue interleaving.

An n x n array splits into t_r * t_c residue subarrays: class (s_r, s_c)
keeps the rows congruent to s_r mod t_r and the columns congruent to s_c
mod t_c. Deleting t_r consecutive rows and t_c consecutive columns removes
exactly one row and one column from every subarray, so burst correction
reduces to one single-deletion problem per class.

The anchor class (1, 1) carries the full single-deletion machinery plus
distinct consecutive rows, which pins its deletion position exactly and
brackets every other class into at most two candidates per axis. The other
classes only store their sums and four inversion parities; that is enough
to finish each of them off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .code_c2 import C2Params, c2_decode, c2_member_class
from .core_array import Array2D, derived_array, interleave_cells, require_shape, residue_cells
from .errors import (
    CodePropertyError,
    InvalidParameterError,
    NotACodewordError,
    NotInstantiableError,
)
from .outcome import DecodeOutcome
from .reprs import bands_fit, check_band_height, check_parity_bits, parity_bits
from .scan import ScanContext, check_class_sums, full_row_sums, resolve_deletion

SumGrid = tuple[tuple[tuple[int, ...], ...], ...]
BitGrid = tuple[tuple[tuple[int, int, int, int], ...], ...]


@dataclass(frozen=True)
class C3Params:
    """Class description for the burst code.

    Grids are indexed [s_r - 1][s_c - 1]. Per subarray: a holds all column
    sums mod q, b all row sums but the last (it is implied by the column
    sums), d the three band parities plus the row-integer parity. The anchor
    subarray additionally carries full interval syndromes in `anchor`; its
    grid slots must agree with it.
    """

    n: int
    q: int
    t_r: int
    t_c: int
    l: int
    anchor: C2Params
    a: SumGrid
    b: SumGrid
    d: BitGrid

    def __post_init__(self) -> None:
        check_burst_lengths(self.n, self.t_r, self.t_c)
        m_r, m_c = self.n // self.t_r, self.n // self.t_c
        check_band_height(m_r, self.l)
        if m_c < 2:
            raise InvalidParameterError("subarrays need at least two columns")
        for name, grid in (("a", self.a), ("b", self.b), ("d", self.d)):
            if len(grid) != self.t_r or any(len(row) != self.t_c for row in grid):
                raise InvalidParameterError(f"{name} must be a {self.t_r}x{self.t_c} grid")
        for s, u in itertools.product(range(self.t_r), range(self.t_c)):
            check_class_sums(self.q, self.a[s][u], m_c, self.b[s][u], m_r - 1)
            check_parity_bits(self.d[s][u])
        an = self.anchor
        if (an.rows, an.cols, an.q, an.l) != (m_r, m_c, self.q, self.l):
            raise InvalidParameterError("anchor parameters do not match the subarray shape")
        if not an.rows_distinct:
            raise InvalidParameterError("the anchor class requires distinct consecutive rows")
        if (an.a, an.b, an.d) != (self.a[0][0], self.b[0][0], self.d[0][0]):
            raise InvalidParameterError("anchor grid slots disagree with the anchor class")

    def full_b(self, s_r: int, s_c: int) -> tuple[int, ...]:
        """All row sums of subarray (s_r, s_c), the last one implied."""
        return full_row_sums(self.a[s_r - 1][s_c - 1], self.b[s_r - 1][s_c - 1], self.q)


def check_burst_lengths(n: int, t_r: int, t_c: int) -> None:
    """Raise InvalidParameterError unless t_r and t_c are positive factors of n >= 1."""
    if t_r < 1 or t_c < 1 or n < 1 or n % t_r or n % t_c:
        raise InvalidParameterError(f"burst lengths {(t_r, t_c)} must be positive factors of n={n}")


def _slot(rows, q: int, l: int) -> tuple:
    """A subarray's column sums, all its row sums but the last, and its parity
    bits, from its row tuples."""
    sums = tuple(sum(col) % q for col in zip(*rows)), tuple(sum(row) % q for row in rows[:-1])
    return (*sums, parity_bits(rows, l))


def _grids(subs, q: int, l: int, anchor: C2Params) -> tuple[SumGrid, SumGrid, BitGrid]:
    """The (a, b, d) grids of the subarrays' row tuples. The anchor slot is
    read off anchor, the anchor subarray's c2 class."""
    slots = [
        [_slot(rows, q, l) if s or u else (anchor.a, anchor.b, anchor.d)
         for u, rows in enumerate(row)]
        for s, row in enumerate(subs)
    ]
    return tuple(tuple(tuple(slot[k] for slot in row) for row in slots) for k in range(3))


def c3_syndromes(x: Array2D, t_r: int, t_c: int, l: int) -> C3Params:
    """Class parameters of x for the burst code with window t_r x t_c.

    Raises NotInstantiableError when the anchor subarray cannot carry its
    role (not band-valid, or with equal consecutive rows); any array outside
    the code but with a workable anchor still gets well defined parameters.
    """
    if x.rows != x.cols:
        raise InvalidParameterError("the burst code is defined on square arrays")
    check_burst_lengths(x.rows, t_r, t_c)
    subs = residue_cells(x.cells, t_r, t_c)
    anchor = c2_member_class(derived_array(subs[0][0], x.q), l, rows_distinct=True)
    if anchor is None:
        raise NotInstantiableError(
            "anchor subarray is not band-valid with distinct consecutive rows"
        )
    a, b, d = _grids(subs, x.q, l, anchor)
    return C3Params(n=x.rows, q=x.q, t_r=t_r, t_c=t_c, l=l, anchor=anchor, a=a, b=b, d=d)


def c3_check(x: Array2D, p: C3Params) -> bool:
    """Membership test: the anchor subarray's member class is p's anchor, every
    other subarray is weakly band-valid, and the grids are p's, as c3_syndromes."""
    require_shape(x, p.n, p.n, p.q, "the class parameters")
    subs = residue_cells(x.cells, p.t_r, p.t_c)
    anchor = c2_member_class(derived_array(subs[0][0], p.q), p.l, rows_distinct=True)
    return (
        anchor == p.anchor
        and all(bands_fit(rows, p.l) for rows in [*itertools.chain(*subs)][1:])
        and _grids(subs, p.q, p.l, anchor) == (p.a, p.b, p.d)
    )


def _window_starts(
    positions: list[tuple[int, int]], t: int, n: int
) -> tuple[int, int]:
    """Feasible burst start range given resolved (residue, subindex) pairs.

    A start r covers full-array index s + (pos - 1) * t exactly when
    r <= s + (pos - 1) * t <= r + t - 1.
    """
    hits = [s + (pos - 1) * t for s, pos in positions]
    lo = max(1, max(hits) - t + 1)
    hi = min(min(hits), n - t + 1)
    if lo > hi:
        raise NotACodewordError("resolved deletion positions fit no single burst window")
    return lo, hi


def c3_decode(y: Array2D, p: C3Params, path: str = "auto") -> DecodeOutcome:
    """Recover the codeword from a burst deletion of t_r rows and t_c columns.

    Pipeline: decode the anchor subarray (its distinct-rows property makes
    the position exact), derive per-subarray candidate intervals from the
    anchor position, resolve each remaining subarray by parity, reinterleave,
    and verify membership. The reported intervals range over feasible burst
    start positions. The single path is "auto"; any other is refused.
    """
    if path != "auto":
        raise InvalidParameterError(f"the burst decoder has a single path, not {path!r}")
    require_shape(y, p.n - p.t_r, p.n - p.t_c, p.q, f"a {p.t_r}x{p.t_c} burst deletion")

    parts = residue_cells(y.cells, p.t_r, p.t_c)
    anchor_out = c2_decode(derived_array(parts[0][0], p.q), p.anchor)
    if not (anchor_out.row_exact and anchor_out.col_exact):
        raise CodePropertyError(
            "anchor decode left a position open despite the distinct-rows guarantee"
        )
    (i_star, _), (j_star, _) = anchor_out.row_interval, anchor_out.col_interval

    parts[0][0] = anchor_out.array.cells
    row_hits, col_hits, left_open = [(1, i_star)], [(1, j_star)], []
    for s, u in itertools.product(range(p.t_r), range(p.t_c)):
        if not (s or u):
            continue
        parts[s][u], i_res, j_res, band = resolve_deletion(
            ScanContext(parts[s][u], p.a[s][u], p.full_b(s + 1, u + 1), p.q), p.l, p.d[s][u],
            (max(i_star - 1, 1) if s else i_star, i_star),
            (max(j_star - 1, 1) if u else j_star, j_star),
        )
        left_open.append((parts[s][u], p.d[s][u], band))
        if i_res is not None:
            row_hits.append((s + 1, i_res))
        if j_res is not None:
            col_hits.append((u + 1, j_res))

    # c2_decode returned a member of the anchor class, and every other
    # subarray has its slot's sums and row parity: what c3_check asks beyond
    # is weak validity and the band parities that resolve_deletion left open.
    if not all(bands_fit(rows, p.l, d, band) for rows, d, band in left_open):
        raise NotACodewordError("reassembled array fails the class constraints")
    return DecodeOutcome(
        array=derived_array(interleave_cells(parts), p.q),
        row_interval=_window_starts(row_hits, p.t_r, p.n),
        col_interval=_window_starts(col_hits, p.t_c, p.n),
        path="residue",
    )
