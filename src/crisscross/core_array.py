"""Two-dimensional q-ary arrays and the criss-cross deletion/insertion channels.

All indices on the public surface are 1-based; internals are 0-based.
Ball functions return canonical results: deduplicated and sorted row-major
lexicographically, so equality between two balls is plain tuple equality.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, InvalidParameterError

DEFAULT_ENUMERATION_CAP = 1 << 24


class Array2D:
    """Immutable rows x cols array with entries in {0, ..., q-1}."""

    __slots__ = ("q", "cells", "rows", "cols", "_hash")

    def __init__(self, cells: Iterable[Iterable[int]], q: int):
        if q < 2:
            raise InvalidParameterError(f"alphabet size must be at least 2, got {q}")
        norm = tuple(tuple(int(v) for v in row) for row in cells)
        if not norm or not norm[0]:
            raise InvalidParameterError("arrays must have at least one row and one column")
        width = len(norm[0])
        for row in norm:
            if len(row) != width:
                raise InvalidParameterError("ragged rows: all rows must share one length")
            for v in row:
                if not 0 <= v < q:
                    raise InvalidParameterError(f"cell value {v} outside [0, {q})")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "cells", norm)
        object.__setattr__(self, "rows", len(norm))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_hash", hash((q, norm)))

    def __setattr__(self, name, value):
        raise AttributeError("Array2D is immutable")

    def __eq__(self, other):
        if not isinstance(other, Array2D):
            return NotImplemented
        return self.q == other.q and self.cells == other.cells

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Array2D({list(map(list, self.cells))}, q={self.q})"

    def at(self, i: int, j: int) -> int:
        """Entry at 1-based (row, column)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise InvalidParameterError(f"index ({i}, {j}) outside {self.rows}x{self.cols}")
        return self.cells[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.rows:
            raise InvalidParameterError(f"row index {i} outside [1, {self.rows}]")
        return self.cells[i - 1]

    def col(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.cols:
            raise InvalidParameterError(f"column index {j} outside [1, {self.cols}]")
        return tuple(row[j - 1] for row in self.cells)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) % self.q for row in self.cells)

    def col_sums(self) -> tuple[int, ...]:
        q = self.q
        return tuple(sum(col) % q for col in zip(*self.cells))


@dataclass(frozen=True)
class DeletionPattern:
    """Index sets for a plain criss-cross deletion (1-based, sorted, distinct)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(sorted(self.rows)))
        object.__setattr__(self, "cols", tuple(sorted(self.cols)))
        for name, idx in (("rows", self.rows), ("cols", self.cols)):
            if len(set(idx)) != len(idx):
                raise InvalidParameterError(f"duplicate {name} indices in {idx}")
            if any(i < 1 for i in idx):
                raise InvalidParameterError(f"{name} indices must be 1-based positive: {idx}")


@dataclass(frozen=True)
class BurstPattern:
    """A burst deletion: t_r consecutive rows and t_c consecutive columns."""

    row_start: int
    col_start: int
    t_r: int
    t_c: int

    def __post_init__(self):
        if self.row_start < 1 or self.col_start < 1:
            raise InvalidParameterError("burst starts are 1-based positive")
        if self.t_r < 0 or self.t_c < 0:
            raise InvalidParameterError("burst widths must be nonnegative")

    def rows(self) -> tuple[int, ...]:
        return tuple(range(self.row_start, self.row_start + self.t_r))

    def cols(self) -> tuple[int, ...]:
        return tuple(range(self.col_start, self.col_start + self.t_c))


def delete_rows_cols(x: Array2D, pattern: DeletionPattern | BurstPattern) -> Array2D:
    """Minor of x after removing the pattern's rows and columns."""
    rows = pattern.rows() if isinstance(pattern, BurstPattern) else pattern.rows
    cols = pattern.cols() if isinstance(pattern, BurstPattern) else pattern.cols
    if rows and rows[-1] > x.rows:
        raise InvalidParameterError(f"row index {rows[-1]} exceeds {x.rows}")
    if cols and cols[-1] > x.cols:
        raise InvalidParameterError(f"column index {cols[-1]} exceeds {x.cols}")
    if len(rows) >= x.rows or len(cols) >= x.cols:
        raise InvalidParameterError("deleting every row or column leaves an empty array")
    drop_r = frozenset(i - 1 for i in rows)
    drop_c = frozenset(j - 1 for j in cols)
    return Array2D(_minor_cells(x.cells, drop_r, drop_c), x.q)


def transpose(x: Array2D) -> Array2D:
    return Array2D(tuple(zip(*x.cells)), x.q)


def require_shape(x: Array2D, rows: int, cols: int, q: int, what: str) -> None:
    """Raise InvalidParameterError unless x is a rows x cols array over alphabet q."""
    if (x.rows, x.cols, x.q) != (rows, cols, q):
        raise InvalidParameterError(
            f"array {x.rows}x{x.cols} (q={x.q}) does not match {what}: "
            f"want {rows}x{cols} (q={q})"
        )


def move_last_row_to(x: Array2D, i: int) -> Array2D:
    """Reinsert the last row at position i, preserving the order of the rest."""
    if not 1 <= i <= x.rows:
        raise InvalidParameterError(f"row index {i} outside [1, {x.rows}]")
    cells = x.cells
    moved = cells[: i - 1] + (cells[-1],) + cells[i - 1:-1]
    return Array2D(moved, x.q)


def move_last_col_to(x: Array2D, j: int) -> Array2D:
    """Reinsert the last column at position j, preserving the order of the rest."""
    if not 1 <= j <= x.cols:
        raise InvalidParameterError(f"column index {j} outside [1, {x.cols}]")
    moved = tuple(row[: j - 1] + (row[-1],) + row[j - 1:-1] for row in x.cells)
    return Array2D(moved, x.q)


def _minor_cells(cells, drop_r: frozenset, drop_c: frozenset):
    return tuple(
        tuple(v for j, v in enumerate(row) if j not in drop_c)
        for i, row in enumerate(cells)
        if i not in drop_r
    )


def deletion_ball_raw(x: Array2D, t_r: int, t_c: int) -> frozenset:
    """Cell tuples of every (t_r, t_c) criss-cross deletion minor of x."""
    _check_ball_widths(x, t_r, t_c)
    row_sets = [frozenset(c) for c in itertools.combinations(range(x.rows), t_r)]
    col_sets = [frozenset(c) for c in itertools.combinations(range(x.cols), t_c)]
    if len(row_sets) * len(col_sets) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError("deletion pattern count exceeds the enumeration cap")
    return frozenset(
        _minor_cells(x.cells, dr, dc) for dr in row_sets for dc in col_sets
    )


def burst_deletion_ball_raw(x: Array2D, t_r: int, t_c: int) -> frozenset:
    """Cell tuples of every burst (consecutive-window) deletion minor of x."""
    _check_ball_widths(x, t_r, t_c)
    row_sets = [
        frozenset(range(s, s + t_r)) for s in range(x.rows - t_r + 1)
    ]
    col_sets = [
        frozenset(range(s, s + t_c)) for s in range(x.cols - t_c + 1)
    ]
    return frozenset(
        _minor_cells(x.cells, dr, dc) for dr in row_sets for dc in col_sets
    )


def _check_ball_widths(x: Array2D, t_r: int, t_c: int) -> None:
    if t_r < 0 or t_c < 0:
        raise InvalidParameterError("deletion widths must be nonnegative")
    if t_r >= x.rows or t_c >= x.cols:
        raise InvalidParameterError(
            f"widths ({t_r}, {t_c}) must leave at least one row and column of "
            f"{x.rows}x{x.cols}"
        )


def _canonical(ball: frozenset, q: int) -> tuple[Array2D, ...]:
    return tuple(Array2D(cells, q) for cells in sorted(ball))


def deletion_ball(x: Array2D, t_r: int, t_c: int) -> tuple[Array2D, ...]:
    """All distinct minors reachable by deleting t_r rows and t_c columns."""
    return _canonical(deletion_ball_raw(x, t_r, t_c), x.q)


def burst_deletion_ball(x: Array2D, t_r: int, t_c: int) -> tuple[Array2D, ...]:
    """All distinct minors reachable by a (t_r, t_c) burst deletion."""
    return _canonical(burst_deletion_ball_raw(x, t_r, t_c), x.q)


def insertion_ball_raw(
    x: Array2D, t_r: int, t_c: int, burst: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> frozenset:
    """Cell tuples of every array reachable by inserting t_c columns then t_r rows.

    Burst mode restricts the inserted rows (and columns) to one consecutive window.
    """
    if t_r < 0 or t_c < 0:
        raise InvalidParameterError("insertion widths must be nonnegative")
    n, m, q = x.rows, x.cols, x.q
    col_pos = (m + 1) if burst else math.comb(m + t_c, t_c)
    row_pos = (n + 1) if burst else math.comb(n + t_r, t_r)
    mass = col_pos * q ** (t_c * n) * row_pos * q ** (t_r * (m + t_c))
    if mass > cap:
        raise CapacityError(f"insertion candidate mass {mass} exceeds cap {cap}")

    if burst:
        col_slots = [tuple(range(s, s + t_c)) for s in range(m + 1)]
        row_slots = [tuple(range(s, s + t_r)) for s in range(n + 1)]
    else:
        col_slots = list(itertools.combinations(range(m + t_c), t_c))
        row_slots = list(itertools.combinations(range(n + t_r), t_r))

    widened = set()
    col_fills = list(itertools.product(range(q), repeat=t_c * n))
    for slots in col_slots:
        slot_set = set(slots)
        old_order = [j for j in range(m + t_c) if j not in slot_set]
        for fill in col_fills:
            rows_out = []
            for r, row in enumerate(x.cells):
                new_row = [0] * (m + t_c)
                for k, j in enumerate(old_order):
                    new_row[j] = row[k]
                for k, j in enumerate(slots):
                    new_row[j] = fill[k * n + r]
                rows_out.append(tuple(new_row))
            widened.add(tuple(rows_out))

    result = set()
    width = m + t_c
    row_fills = list(itertools.product(range(q), repeat=t_r * width))
    for cells in widened:
        for slots in row_slots:
            slot_set = set(slots)
            old_order = [i for i in range(n + t_r) if i not in slot_set]
            for fill in row_fills:
                out = [None] * (n + t_r)
                for k, i in enumerate(old_order):
                    out[i] = cells[k]
                for k, i in enumerate(slots):
                    out[i] = fill[k * width:(k + 1) * width]
                result.add(tuple(out))
    return frozenset(result)


def extract_residue_subarray(x: Array2D, s_r: int, s_c: int, t_r: int, t_c: int) -> Array2D:
    """Subarray of rows congruent to s_r mod t_r and columns to s_c mod t_c.

    Residues are 1-based: class s picks indices s, s + t, s + 2t, ...
    Requires t_r to divide the row count and t_c the column count.
    """
    _check_residue_args(x, s_r, s_c, t_r, t_c)
    rows = range(s_r - 1, x.rows, t_r)
    cols = range(s_c - 1, x.cols, t_c)
    return Array2D(
        tuple(tuple(x.cells[i][j] for j in cols) for i in rows), x.q
    )


def _check_residue_args(x: Array2D, s_r: int, s_c: int, t_r: int, t_c: int) -> None:
    if t_r < 1 or t_c < 1:
        raise InvalidParameterError("residue moduli must be positive")
    if x.rows % t_r or x.cols % t_c:
        raise InvalidParameterError(
            f"moduli ({t_r}, {t_c}) must divide the shape {x.rows}x{x.cols}"
        )
    if not (1 <= s_r <= t_r and 1 <= s_c <= t_c):
        raise InvalidParameterError(f"residue ({s_r}, {s_c}) outside [1,{t_r}]x[1,{t_c}]")


def interleave_residue_subarrays(
    parts: Sequence[Sequence[Array2D]], t_r: int, t_c: int
) -> Array2D:
    """Inverse of residue extraction: parts[s_r-1][s_c-1] is the (s_r, s_c) class."""
    if len(parts) != t_r or any(len(row) != t_c for row in parts):
        raise InvalidParameterError(f"need a {t_r}x{t_c} grid of subarrays")
    first = parts[0][0]
    for row in parts:
        for part in row:
            if (part.rows, part.cols, part.q) != (first.rows, first.cols, first.q):
                raise InvalidParameterError("subarrays must share shape and alphabet")
    rows = first.rows * t_r
    cols = first.cols * t_c
    cells = tuple(
        tuple(parts[i % t_r][j % t_c].cells[i // t_r][j // t_c] for j in range(cols))
        for i in range(rows)
    )
    return Array2D(cells, first.q)


def enumerate_arrays(
    rows: int, cols: int, q: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Array2D]:
    """Yield every rows x cols array over {0..q-1} in row-major lexicographic order."""
    if rows < 1 or cols < 1:
        raise InvalidParameterError("shape must be at least 1x1")
    total = q ** (rows * cols)
    if total > cap:
        raise CapacityError(f"{total} arrays exceed the enumeration cap {cap}")
    for flat in itertools.product(range(q), repeat=rows * cols):
        cells = tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))
        yield Array2D(cells, q)


def array_to_text(x: Array2D) -> str:
    """Serialize as a header line "rows cols q" plus one line per row."""
    lines = [f"{x.rows} {x.cols} {x.q}"]
    lines.extend(" ".join(str(v) for v in row) for row in x.cells)
    return "\n".join(lines) + "\n"


def array_from_text(text: str) -> Array2D:
    """Parse the array text format; the exact inverse of array_to_text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameterError("empty array text")
    header = lines[0].split()
    if len(header) != 3:
        raise InvalidParameterError(f"bad header {lines[0]!r}: want 'rows cols q'")
    try:
        rows, cols, q = (int(v) for v in header)
    except ValueError as exc:
        raise InvalidParameterError(f"non-integer header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != rows:
        raise InvalidParameterError(f"expected {rows} rows, found {len(body)}")
    cells = []
    for ln in body:
        try:
            row = tuple(int(v) for v in ln.split())
        except ValueError as exc:
            raise InvalidParameterError(f"non-integer cell in row {ln!r}") from exc
        if len(row) != cols:
            raise InvalidParameterError(f"expected {cols} columns, found {len(row)}")
        cells.append(row)
    return Array2D(tuple(cells), q)
