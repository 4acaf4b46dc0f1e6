"""Two-dimensional q-ary arrays and the criss-cross deletion/insertion channels.

All indices on the public surface are 1-based; internals are 0-based.
Ball functions return canonical results: deduplicated and sorted row-major
lexicographically, so equality between two balls is plain tuple equality.
"""
from __future__ import annotations

import itertools
import math
import operator
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
        norm = tuple(map(tuple, cells))
        # Clean input (nonempty, rectangular, every cell an int in [0, q))
        # over q <= 256 passes C-level checks by packing the cells into bytes
        # (see _packed_cells). Anything else is normalised and checked cell
        # by cell, which names the first fault.
        clean = None
        if q <= 256 and norm and norm[0] and len(set(map(len, norm))) == 1:
            clean = _packed_cells(norm, q)
        _fill(self, _checked_cells(norm, q) if clean is None else clean, q)

    def __setattr__(self, name, value):
        raise AttributeError("Array2D is immutable")

    def __eq__(self, other):
        if not isinstance(other, Array2D):
            return NotImplemented
        return self.q == other.q and self.cells == other.cells

    def __hash__(self):
        if self._hash is None:  # most arrays are never hashed
            object.__setattr__(self, "_hash", hash((self.q, self.cells)))
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


def _fill(x: Array2D, cells: tuple, q: int) -> None:
    object.__setattr__(x, "q", q)
    object.__setattr__(x, "cells", cells)
    object.__setattr__(x, "rows", len(cells))
    object.__setattr__(x, "cols", len(cells[0]))
    object.__setattr__(x, "_hash", None)


def derived_array(cells, q: int) -> Array2D:
    """The Array2D of the row tuples cells over q, unchecked: only for cells derived
    from an Array2D's cells plus symbols reduced mod q; outside input takes Array2D(...)."""
    x = object.__new__(Array2D)
    _fill(x, tuple(cells), q)
    return x


def _packed_cells(norm: tuple, q: int) -> tuple[tuple[int, ...], ...] | None:
    """The rectangular cells norm rebuilt from their bytes, or None unless
    every cell is an int in [0, q), for q <= 256. bytes() refuses anything
    but ints in [0, 256), and deleting the q symbols must leave nothing. The
    rows are cut back out of the bytes, so each cell is an exact int, as
    operator.index() would give."""
    try:
        packed = b"".join(map(bytes, norm))
    except (TypeError, ValueError):
        return None
    if packed.translate(None, bytes(range(q))):
        return None
    return tuple(zip(*[iter(packed)] * len(norm[0])))


def _checked_cells(cells: tuple, q: int) -> tuple[tuple[int, ...], ...]:
    """Cells converted with operator.index(), which takes ints and bools and
    refuses what int() would truncate or parse, or InvalidParameterError
    naming the first fault."""
    try:
        norm = tuple(tuple(map(operator.index, row)) for row in cells)
    except TypeError as exc:
        raise InvalidParameterError(f"non-integer cell: {exc}") from exc
    if not norm or not norm[0]:
        raise InvalidParameterError("arrays must have at least one row and one column")
    width = len(norm[0])
    for row in norm:
        if len(row) != width:
            raise InvalidParameterError("ragged rows: all rows must share one length")
        for v in row:
            if not 0 <= v < q:
                raise InvalidParameterError(f"cell value {v} outside [0, {q})")
    return norm


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


def random_pattern(
    rng, rows: int, cols: int, t_r: int, t_c: int, burst: bool
) -> DeletionPattern | BurstPattern:
    """A random (t_r, t_c) deletion pattern for a rows x cols array, drawn
    from rng: uniform index sets, or for a burst uniform window starts."""
    if not (0 <= t_r < rows and 0 <= t_c < cols):
        raise InvalidParameterError(
            f"widths ({t_r}, {t_c}) must leave at least one row and column of {rows}x{cols}"
        )
    if burst:
        return BurstPattern(
            rng.randint(1, rows - t_r + 1), rng.randint(1, cols - t_c + 1), t_r, t_c
        )
    return DeletionPattern(
        tuple(rng.sample(range(1, rows + 1), t_r)), tuple(rng.sample(range(1, cols + 1), t_c))
    )


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
    drop_r = tuple(i - 1 for i in rows)
    drop_c = tuple(j - 1 for j in cols)
    return derived_array(next(_minors(x.cells, [drop_r], [drop_c])), x.q)


def transpose(x: Array2D) -> Array2D:
    return derived_array(zip(*x.cells), x.q)


def require_shape(x: Array2D, rows: int, cols: int, q: int, what: str) -> None:
    """Raise InvalidParameterError unless x is a rows x cols array over alphabet q."""
    if (x.rows, x.cols, x.q) != (rows, cols, q):
        raise InvalidParameterError(
            f"array {x.rows}x{x.cols} (q={x.q}) does not match {what}: "
            f"want {rows}x{cols} (q={q})"
        )


def _picker(size: int, drop):
    """Callable giving, as a tuple, the entries of a length-size sequence at
    the 0-based indices outside drop (at least one must remain)."""
    keep = [i for i in range(size) if i not in drop]
    if len(keep) == 1:
        (i,) = keep
        return lambda seq: (seq[i],)
    return operator.itemgetter(*keep)


def _minors(cells, row_drops, col_drops, packed=False):
    """Cells of the minor for every pair of 0-based row and column drop sets,
    column set outermost: each row is narrowed once per column set, then the
    kept rows are picked from the narrowed table. packed (cells below 256):
    the narrowed rows are bytes, and a minor is its kept rows joined."""
    row_picks = [_picker(len(cells), drop) for drop in row_drops]
    for drop in col_drops:
        narrowed = tuple(map(_picker(len(cells[0]), drop), cells))
        if packed:
            narrowed = tuple(map(bytes, narrowed))
            for pick in row_picks:
                yield b"".join(pick(narrowed))
        else:
            for pick in row_picks:
                yield pick(narrowed)


def _drops(size: int, t: int, burst: bool) -> list[tuple[int, ...]]:
    """0-based index sets of every deletion of t of size positions (burst: the
    windows), in increasing order of first index."""
    if burst:
        return [tuple(range(s, s + t)) for s in range(size - t + 1)]
    return list(itertools.combinations(range(size), t))


def _ball(x: Array2D, t_r: int, t_c: int, burst: bool, packed: bool = False) -> frozenset:
    _check_ball_widths(x, t_r, t_c, burst)
    return frozenset(
        _minors(x.cells, _drops(x.rows, t_r, burst), _drops(x.cols, t_c, burst), packed)
    )


def packed_deletion_ball(x: Array2D, t_r: int, t_c: int, burst: bool = False) -> frozenset:
    """One key per minor of x's (t_r, t_c) deletion ball (burst: burst deletion
    ball): for q <= 256 its rows joined as bytes, which hash once, compare by
    memcmp and sort as the cell tuples do; else its cell tuple."""
    return _ball(x, t_r, t_c, burst, x.q <= 256)


def unpack_minor(key, cols: int, q: int) -> Array2D:
    """The minor, cols columns wide, whose packed_deletion_ball key is key."""
    return Array2D(zip(*[iter(key)] * cols) if isinstance(key, bytes) else key, q)


def deletion_ball_raw(x: Array2D, t_r: int, t_c: int) -> frozenset:
    """Cell tuples of every (t_r, t_c) criss-cross deletion minor of x."""
    return _ball(x, t_r, t_c, burst=False)


def burst_deletion_ball_raw(x: Array2D, t_r: int, t_c: int) -> frozenset:
    """Cell tuples of every burst (consecutive-window) deletion minor of x."""
    return _ball(x, t_r, t_c, burst=True)


def deletion_brackets(x: Array2D, y: Array2D, t_r: int, t_c: int, burst: bool = False):
    """Membership of y in x's (t_r, t_c) deletion ball (burst: burst deletion
    ball), decided without building the ball.

    Returns None if y is not in the ball, else ((row_lo, row_hi), (col_lo,
    col_hi)): the least and greatest first deleted row and column, 1-based,
    over every deletion pattern that takes x to y (burst: window starts). For
    each deleted row set, y must come from the columns of x that the set
    leaves by deleting t_c of them: y's columns are a subsequence of those
    (burst: y's common prefix and suffix with them cover y). Both widths must
    be positive, since a zero width deletes nothing whose place could be
    bracketed.
    """
    _check_ball_widths(x, t_r, t_c, burst)
    if t_r == 0 or t_c == 0:
        raise InvalidParameterError("bracketing deletions needs positive widths")
    require_shape(y, x.rows - t_r, x.cols - t_c, x.q, f"({t_r}, {t_c}) deletions from x")
    x_cols = tuple(zip(*x.cells))
    y_cols = tuple(zip(*y.cells))
    span_of = _window_span if burst else _subsequence_span
    row_firsts = []
    col_firsts = []
    for drop in _drops(x.rows, t_r, burst):
        span = span_of(tuple(map(_picker(x.rows, drop), x_cols)), y_cols)
        if span:
            row_firsts.append(drop[0] + 1)
            col_firsts += (span[0] + 1, span[1] + 1)
    if not row_firsts:
        return None
    return (row_firsts[0], row_firsts[-1]), (min(col_firsts), max(col_firsts))


def _prefix_length(xs, ys) -> int:
    """Length of the longest common prefix of xs and the shorter ys."""
    return next((k for k, (a, b) in enumerate(zip(xs, ys)) if a != b), len(ys))


def _subsequence_span(xs, ys):
    """Least and greatest first deleted index over the ways of deleting
    len(xs) - len(ys) >= 1 entries of xs to leave ys, or None if ys is not a
    subsequence of xs."""
    # starts[k]: the greatest index from which ys[k:] still embeds in xs
    starts = [len(xs)] * (len(ys) + 1)
    j = len(xs)
    for k in range(len(ys) - 1, -1, -1):
        j -= 1
        while j >= 0 and xs[j] != ys[k]:
            j -= 1
        if j < 0:
            return None
        starts[k] = j
    prefix = _prefix_length(xs, ys)
    # xs[c] can be the first deletion iff xs[:c] == ys[:c] and ys[c:] embeds in xs[c + 1:]
    return next(c for c in range(prefix + 1) if starts[c] > c), prefix


def _window_span(xs, ys):
    """Least and greatest start of a window of len(xs) - len(ys) >= 1
    consecutive entries whose deletion turns xs into ys, or None."""
    prefix = _prefix_length(xs, ys)
    lo = len(ys) - _prefix_length(xs[::-1], ys[::-1])
    return (lo, prefix) if lo <= prefix else None


def _check_ball_widths(x: Array2D, t_r: int, t_c: int, burst: bool) -> None:
    """Widths must leave a row and a column; plain patterns must fit the cap."""
    if t_r < 0 or t_c < 0:
        raise InvalidParameterError("deletion widths must be nonnegative")
    if t_r >= x.rows or t_c >= x.cols:
        raise InvalidParameterError(
            f"widths ({t_r}, {t_c}) must leave at least one row and column of "
            f"{x.rows}x{x.cols}"
        )
    if not burst and math.comb(x.rows, t_r) * math.comb(x.cols, t_c) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError("deletion pattern count exceeds the enumeration cap")


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
    columns = _insert_lines([tuple(zip(*x.cells))], m, n, t_c, q, burst)
    widened = {tuple(zip(*cols)) for cols in columns}
    # A frozenset copied from a set gets a table sized to its count, half
    # the size that growing one from the generator leaves: it intersects faster.
    return frozenset(set(_insert_lines(widened, n, m + t_c, t_r, q, burst)))


def _insert_lines(tables, size: int, width: int, t: int, q: int, burst: bool):
    """Yield each table of size lines of width symbols with t new lines
    inserted at the 0-based places of a deletion set of _drops, for every
    table, set and fill of the new lines."""
    fills = list(itertools.product(itertools.product(range(q), repeat=width), repeat=t))
    drops = _drops(size + t, t, burst)
    for lines in tables:
        for places in drops:
            for fill in fills:
                merged = list(lines)
                for place, line in zip(places, fill):  # ascending, so each lands at place
                    merged.insert(place, line)
                yield tuple(merged)


def extract_residue_subarray(x: Array2D, s_r: int, s_c: int, t_r: int, t_c: int) -> Array2D:
    """Subarray of rows congruent to s_r mod t_r and columns to s_c mod t_c.

    Residues are 1-based: class s picks indices s, s + t, s + 2t, ...
    Requires t_r to divide the row count and t_c the column count.
    """
    _check_moduli(t_r, t_c)
    if x.rows % t_r or x.cols % t_c:
        raise InvalidParameterError(
            f"moduli ({t_r}, {t_c}) must divide the shape {x.rows}x{x.cols}"
        )
    if not (1 <= s_r <= t_r and 1 <= s_c <= t_c):
        raise InvalidParameterError(f"residue ({s_r}, {s_c}) outside [1,{t_r}]x[1,{t_c}]")
    return derived_array(residue_cells(x.cells, t_r, t_c)[s_r - 1][s_c - 1], x.q)


def residue_cells(cells, t_r: int, t_c: int) -> list[list[tuple]]:
    """Row tuples of every residue subarray of cells, indexed [s_r - 1][s_c - 1]."""
    return [[tuple(row[u::t_c] for row in cells[s::t_r]) for u in range(t_c)] for s in range(t_r)]


def _check_moduli(t_r: int, t_c: int) -> None:
    if t_r < 1 or t_c < 1:
        raise InvalidParameterError("residue moduli must be positive")


def interleave_residue_subarrays(
    parts: Sequence[Sequence[Array2D]], t_r: int, t_c: int
) -> Array2D:
    """Inverse of residue extraction: parts[s_r-1][s_c-1] is the (s_r, s_c) class."""
    _check_moduli(t_r, t_c)
    if len(parts) != t_r or any(len(row) != t_c for row in parts):
        raise InvalidParameterError(f"need a {t_r}x{t_c} grid of subarrays")
    if len({(part.rows, part.cols, part.q) for row in parts for part in row}) > 1:
        raise InvalidParameterError("subarrays must share shape and alphabet")
    return derived_array(interleave_cells([[p.cells for p in row] for row in parts]), parts[0][0].q)


def interleave_cells(parts) -> list[tuple[int, ...]]:
    """Rows of the interleave of a grid of equal-shape subarrays' row tuples,
    parts[s_r-1][s_c-1] holding residue class (s_r, s_c), filled by strided slices."""
    t_c, out = len(parts[0]), []
    line = [0] * (t_c * len(parts[0][0][0]))
    for i in range(len(parts[0][0])):
        for row in parts:
            for u, part in enumerate(row):
                line[u::t_c] = part[i]
            out.append(tuple(line))
    return out


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
