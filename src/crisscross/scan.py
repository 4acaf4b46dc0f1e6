"""Decoder helpers shared by the code constructions.

Hypothesis scan: given a received minor Y and indexed column/row sum vectors,
each deletion hypothesis (i, j) forces a unique candidate array: the missing
symbols in every surviving column and row are pinned by their sum constraints
and the corner by the deleted row's own sum. The scan decoders try all
rows x cols hypotheses through three filters, each a necessary condition of
membership, so a hypothesis passes all three exactly when its candidate is a
class member:

1. column_rank_screen: the column-composition signature syndrome of every
   candidate, O(1) each after O(n(n+q)) tables: O(n^2) in all for a fixed q.
2. O(n) per survivor of filter 1, of which there are about n. c1 reads
   adjacent-distinct columns off filter 1's ranks, then compares the
   assembled row tuples for the row-integer syndrome. c2 keeps the survivors
   that row_rank_screen, filter 1 run once on the transposed minor, passes.
3. The full membership check, on the candidates that pass both.

Fast paths: completion of a minor under uniform sums, and resolution of a
two-candidate deletion position by band and row inversion parities.
"""
from __future__ import annotations

from .core_array import Array2D, transpose
from .errors import AmbiguityError, CodePropertyError, InvalidParameterError, NotACodewordError
from .onedim import comp_rank, composition, inversions
from .outcome import DecodeOutcome
from .reprs import rir


class ScanContext:
    """Per-decode cache of the received minor's column and row sums."""

    def __init__(self, y: Array2D, a: tuple[int, ...], full_b: tuple[int, ...]):
        rows, cols = len(full_b), len(a)
        if y.rows != rows - 1 or y.cols != cols - 1:
            raise InvalidParameterError(
                f"received shape {y.rows}x{y.cols} does not match a single "
                f"criss-cross deletion from {rows}x{cols}"
            )
        self.q = y.q
        self.rows, self.cols = rows, cols
        self.a, self.full_b = a, full_b
        self.cells = y.cells
        self.y_col_sums = tuple(sum(col) for col in zip(*y.cells))
        self.y_row_sums = tuple(sum(row) for row in y.cells)

    def forced_insertions(self, i_hyp: int, j_hyp: int):
        """Row and column contents forced by the sums under hypothesis (i_hyp, j_hyp)."""
        q, rows, cols = self.q, self.rows, self.cols
        new_row = [0] * cols
        for k in range(1, cols + 1):
            if k == j_hyp:
                continue
            new_row[k - 1] = (self.a[k - 1] - self.y_col_sums[k - 1 if k < j_hyp else k - 2]) % q
        corner = (self.full_b[i_hyp - 1] - sum(new_row)) % q
        new_row[j_hyp - 1] = corner
        new_col = [0] * rows
        for k in range(1, rows + 1):
            if k == i_hyp:
                continue
            new_col[k - 1] = (self.full_b[k - 1] - self.y_row_sums[k - 1 if k < i_hyp else k - 2]) % q
        new_col[i_hyp - 1] = corner
        return tuple(new_row), tuple(new_col)

    def candidate_rows(self, i_hyp: int, j_hyp: int, new_row, new_col):
        """Row tuples of the candidate array for hypothesis (i_hyp, j_hyp)."""
        out = []
        yi = 0
        for r in range(1, self.rows + 1):
            if r == i_hyp:
                out.append(new_row)
            else:
                yrow = self.cells[yi]
                yi += 1
                out.append(yrow[: j_hyp - 1] + (new_col[r - 1],) + yrow[j_hyp - 1:])
        return tuple(out)

    def assemble(self, i_hyp: int, j_hyp: int, new_row, new_col) -> Array2D:
        """Materialize the candidate array for hypothesis (i_hyp, j_hyp)."""
        return Array2D(self.candidate_rows(i_hyp, j_hyp, new_row, new_col), self.q)


def column_rank_screen(ctx: ScanContext, target: int) -> list[tuple[int, int, bool]]:
    """Hypotheses (i, j), in row-major order, whose candidate has column-rank
    signature syndrome target, each with whether the candidate's adjacent
    columns have distinct compositions.

    For k != j, candidate column k is minor column k (k < j) or k-1 (k > j),
    1-based, plus a forced symbol that depends only on that side, so its rank
    is L[k] for k < j and R[k] for k > j, whatever i is. The syndrome is then
    the weighted ascents within L before j, those within R after j, and the
    two terms beside j.
    The inserted column j holds the same symbols for every j apart from its
    corner (full_b[i] - S_j) mod q, where S_j is the new row's sum without the
    corner; its counts are kept incrementally over i and each corner value is
    ranked once per i.
    """
    q, rows, cols = ctx.q, ctx.rows, ctx.cols
    a, fb, col_sums, row_sums = ctx.a, ctx.full_b, ctx.y_col_sums, ctx.y_row_sums
    y_comps = [composition(col, q) for col in zip(*ctx.cells)]

    def ranked(comp, v):
        return comp_rank(comp[:v] + (comp[v] + 1,) + comp[v + 1:])

    # Lists are indexed by 1-based candidate column k. Unused ends hold 0, or
    # -1 for ranks: a rank is never equal to -1 nor below it.
    left = [0] + [(a[k - 1] - col_sums[k - 1]) % q for k in range(1, cols)] + [0]
    right = [0, 0] + [(a[k - 1] - col_sums[k - 2]) % q for k in range(2, cols + 1)]
    L = [-1] + [ranked(y_comps[k - 1], left[k]) for k in range(1, cols)] + [-1, -1]
    R = [-1, -1] + [ranked(y_comps[k - 2], right[k]) for k in range(2, cols + 1)] + [-1]
    asc_l = [t * (L[t + 1] >= L[t]) for t in range(cols)]
    asc_r = [t * (R[t + 1] >= R[t]) for t in range(cols + 1)]
    differ_l = [L[t] != L[t + 1] for t in range(cols)]
    differ_r = [R[t] != R[t + 1] for t in range(cols + 1)]
    per_j = [
        (
            j,
            sum(left[:j]) + sum(right[j + 1:]),
            sum(asc_l[1:j - 1]) + sum(asc_r[j + 1:cols]),
            all(differ_l[1:j - 1]) and all(differ_r[j + 1:cols]),
            L[j - 1],
            R[j + 1],
        )
        for j in range(1, cols + 1)
    ]

    # Symbols of the inserted column off the corner: row k takes up[k] above
    # the deleted row and down[k] below it.
    up = [0] + [(fb[k - 1] - row_sums[k - 1]) % q for k in range(1, rows)]
    down = [0, 0] + [(fb[k - 1] - row_sums[k - 2]) % q for k in range(2, rows + 1)]
    counts = [0] * q
    for v in down[2:]:
        counts[v] += 1
    hits = []
    for i in range(1, rows + 1):
        if i > 1:
            counts[up[i - 1]] += 1
            counts[down[i]] -= 1
        corner_ranks: dict[int, int] = {}
        for j, row_sum, weight, distinct, before, after in per_j:
            v = (fb[i - 1] - row_sum) % q
            rank = corner_ranks.get(v)
            if rank is None:
                rank = corner_ranks[v] = ranked(tuple(counts), v)
            if (weight + (j - 1) * (rank >= before) + j * (after >= rank)) % cols == target:
                hits.append((i, j, distinct and before != rank != after))
    return hits


def row_rank_screen(
    y: Array2D, a: tuple[int, ...], full_b: tuple[int, ...], target: int
) -> set[tuple[int, int]]:
    """Hypotheses (i, j) whose candidate has row-rank signature syndrome target.

    This is the column-rank screen of the transposed minor, where (i, j)
    reads (j, i). There the corner is forced by column j's sum rather than
    row i's, which is the same value whenever sum(a) == sum(full_b) mod q.
    """
    ctx = ScanContext(transpose(y), full_b, a)
    return {(i, j) for j, i, _ in column_rank_screen(ctx, target)}


def scan_verdict(survivors: dict, path: str) -> DecodeOutcome:
    """The unique surviving candidate with the hypothesis range that produced it."""
    if not survivors:
        raise NotACodewordError("no deletion hypothesis yields a class member")
    if len(survivors) > 1:
        raise AmbiguityError(
            f"{len(survivors)} distinct codewords explain the input; "
            "the class is not deletion correcting on this instance"
        )
    array, hyps = next(iter(survivors.items()))
    rows = [i for i, _ in hyps]
    cols = [j for _, j in hyps]
    return DecodeOutcome(
        array=array,
        row_interval=(min(rows), max(rows)),
        col_interval=(min(cols), max(cols)),
        path=path,
    )


def complete_array(y: Array2D, a_val: int, b_val: int) -> Array2D:
    """Append the column and row forced by uniform sums (deleted ones shifted last)."""
    q = y.q
    bottom = [(a_val - sum(col)) % q for col in zip(*y.cells)]
    right = [(b_val - sum(row)) % q for row in y.cells]
    corner = (b_val - sum(bottom)) % q
    cells = tuple(
        row + (right[i],) for i, row in enumerate(y.cells)
    ) + (tuple(bottom) + (corner,),)
    return Array2D(cells, q)


def parity_bits(x: Array2D, l: int) -> tuple[int, int, int, int]:
    """Inversion parities of the three height-l bands' column integers, then of
    the row integers."""
    q, cells = x.q, x.cells
    out = []
    for k in range(3):
        band = cells[k * l:(k + 1) * l]
        out.append(inversions(tuple(column_int(band, j, q) for j in range(x.cols))) % 2)
    return tuple(out) + (inversions(rir(x)) % 2,)


def disjoint_band(l: int, row_interval: tuple[int, int]) -> int:
    """1-based index of a band whose rows avoid the row interval."""
    lo, hi = row_interval
    for k in range(1, 4):
        if k * l < lo or (k - 1) * l + 1 > hi:
            return k
    raise CodePropertyError("no band avoids the row interval")


def band_rows(x: Array2D, k: int, l: int, row_interval: tuple[int, int]):
    """Rows of band k as they sit in x, a minor or its completion.

    Bands above the deleted row are unshifted; bands below it moved up one.
    """
    first, last = (k - 1) * l + 1, k * l
    shift = 1 if first > row_interval[1] else 0
    return [x.cells[r - 1 - shift] for r in range(first, last + 1)]


def column_int(rows, j: int, q: int) -> int:
    """Base-q integer read down column j (0-based) of the given rows."""
    value = 0
    for row in rows:
        value = value * q + row[j]
    return value


def resolve_by_parity(seq, v, cands, parity_bit, what):
    """Choose the insertion position of v among <=2 candidates by inversion parity."""
    if len(cands) == 1:
        return cands[0], True
    first = seq[: cands[0] - 1] + (v,) + seq[cands[0] - 1:]
    second = seq[: cands[1] - 1] + (v,) + seq[cands[1] - 1:]
    if first == second:
        return cands[0], False
    matches = [
        pos for pos, cand in zip(cands, (first, second))
        if inversions(cand) % 2 == parity_bit
    ]
    if not matches:
        raise NotACodewordError(f"no {what} candidate matches the inversion parity")
    return matches[0], True
