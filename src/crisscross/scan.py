"""Decoder helpers shared by the code constructions.

Hypothesis scan: given a received minor Y and indexed column/row sum vectors,
each deletion hypothesis (i, j) forces a unique candidate array: the missing
symbols in every surviving column and row are pinned by their sum constraints
and the corner by the deleted row's own sum. Column j's sum then follows
from sum(a) == sum(full_b) mod q, which every params type keeps, so each
candidate has the class's sums by construction. The scan decoders try all
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

Fast paths: with uniform sums the candidate of hypothesis (rows, cols) is
the minor's completion, whose composition syndromes bracket the deleted
column and row; the forced symbols then ignore where the row and column go
in, so the candidate of (i, j) has the completion's column (row)
compositions with the last one moved to j (i). resolve_deletion settles a
bracket of at most two positions per axis by band and row inversion
parities, for c2's fast path and for each residue subarray of c3; it needs
no uniform sums.

Parities and syndromes that the paper states on base-q integers (a band's
columns, an array's rows) read each integer as its tuple of digits instead:
equal-length tuples over {0, ..., q-1} order exactly like their base-q
values, and tuples are compared at C level, never converted.
"""
from __future__ import annotations

from .core_array import Array2D, transpose
from .errors import AmbiguityError, CodePropertyError, InvalidParameterError, NotACodewordError
from .onedim import comp_rank, composition, inversions
from .outcome import DecodeOutcome


class ScanContext:
    """The received minor y (an Array2D, or its row tuples over q) with the
    class's column and row sums, which force the candidate array of every
    deletion hypothesis; if sum(a) == sum(full_b) mod q, each candidate has
    column sums a and row sums full_b."""

    def __init__(self, y, a: tuple[int, ...], full_b: tuple[int, ...], q: int | None = None):
        cells, q = (y.cells, y.q) if q is None else (y, q)
        rows, cols = len(full_b), len(a)
        if len(cells) != rows - 1 or len(cells[0]) != cols - 1:
            raise InvalidParameterError(
                f"received shape {len(cells)}x{len(cells[0])} does not match a single "
                f"criss-cross deletion from {rows}x{cols}"
            )
        self.q, self.rows, self.cols, self.full_b, self.cells = q, rows, cols, full_b, cells
        col_sums = [sum(col) for col in zip(*cells)]
        row_sums = [sum(row) for row in cells]
        # Forced symbol of each minor column (row): where it keeps its index,
        # left of (above) the deleted one, and where it moves one on, right
        # of (below) it.
        self.left = [(t - s) % q for t, s in zip(a, col_sums)]
        self.right = [(t - s) % q for t, s in zip(a[1:], col_sums)]
        self.up = [(t - s) % q for t, s in zip(full_b, row_sums)]
        self.down = [(t - s) % q for t, s in zip(full_b[1:], row_sums)]

    def forced_insertions(self, i_hyp: int, j_hyp: int):
        """Row and column contents forced by the sums under hypothesis (i_hyp, j_hyp)."""
        left, right = self.left[: j_hyp - 1], self.right[j_hyp - 1:]
        corner = (self.full_b[i_hyp - 1] - sum(left) - sum(right)) % self.q
        new_col = self.up[: i_hyp - 1] + [corner] + self.down[i_hyp - 1:]
        return tuple(left + [corner] + right), tuple(new_col)

    def candidate_rows(self, i_hyp: int, j_hyp: int):
        """Row tuples of the candidate array for hypothesis (i_hyp, j_hyp): the
        minor with the forced row and column inserted as row i_hyp and column j_hyp."""
        new_row, new_col = self.forced_insertions(i_hyp, j_hyp)
        digits = new_col[: i_hyp - 1] + new_col[i_hyp:]
        out = [row[: j_hyp - 1] + (v,) + row[j_hyp - 1:] for row, v in zip(self.cells, digits)]
        out.insert(i_hyp - 1, new_row)
        return tuple(out)

    def assemble(self, i_hyp: int, j_hyp: int) -> Array2D:
        """Materialize the candidate array for hypothesis (i_hyp, j_hyp)."""
        return Array2D(self.candidate_rows(i_hyp, j_hyp), self.q)


def comp_ranks(seqs, q: int) -> tuple[int, ...]:
    """Rank of each sequence's composition over q."""
    return tuple(comp_rank(composition(seq, q)) for seq in seqs)


def move_last(seq: tuple, k: int) -> tuple:
    """seq with its last entry moved to 1-based position k."""
    return seq[:k - 1] + seq[-1:] + seq[k - 1:-1]


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
    q, rows, cols, fb = ctx.q, ctx.rows, ctx.cols, ctx.full_b
    y_comps = [composition(col, q) for col in zip(*ctx.cells)]

    def ranked(comp, v):
        return comp_rank(comp[:v] + (comp[v] + 1,) + comp[v + 1:])

    # Lists are indexed by 1-based candidate column k. Unused ends hold 0, or
    # -1 for ranks: a rank is never equal to -1 nor below it.
    left = [0] + ctx.left + [0]
    right = [0, 0] + ctx.right
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
    up = [0] + ctx.up
    down = [0, 0] + ctx.down
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


def parity_bits(x: Array2D, l: int) -> tuple[int, int, int, int]:
    """Inversion parities of the three height-l bands' column integers, then of
    the row integers, each integer read as its tuple of digits."""
    cells = x.cells
    bands = (inversions(tuple(zip(*cells[k * l:(k + 1) * l]))) % 2 for k in range(3))
    return (*bands, inversions(cells) % 2)


def disjoint_band(l: int, row_interval: tuple[int, int]) -> int:
    """1-based index of a band whose rows avoid the row interval."""
    lo, hi = row_interval
    for k in range(1, 4):
        if k * l < lo or (k - 1) * l + 1 > hi:
            return k
    raise CodePropertyError("no band avoids the row interval")


def resolve_deletion(
    ctx: ScanContext, l: int, d: tuple[int, int, int, int],
    row_interval: tuple[int, int], col_interval: tuple[int, int],
) -> tuple[Array2D, int | None, int | None]:
    """Finish a deletion bracketed to at most two adjacent rows and columns by
    the inversion parities d of the class (three bands, then row integers).

    Returns the candidate array plus the resolved row and column indices
    (None where a tie left the position open; the array is unique anyway,
    and was assembled at that interval's first position).
    """
    (lo, hi), j = row_interval, col_interval[0]
    col_exact = col_interval[1] == j
    if not col_exact:
        # A band that avoids the row interval reads the same under either row
        # hypothesis, so its parity tests the column alone. Its columns with
        # the missing one at j + 1 are those with it at j but for one
        # adjacent swap: equal columns tie, else one parity matches.
        k = disjoint_band(l, row_interval)
        band = tuple(zip(*ctx.candidate_rows(lo, j)[(k - 1) * l:k * l]))
        col_exact = band[j - 1] != band[j]
        if col_exact and inversions(band) % 2 != d[k - 1]:
            j += 1

    cands = [(i, ctx.candidate_rows(i, j)) for i in range(lo, hi + 1)]
    matches = [(i, rows) for i, rows in cands if inversions(rows) % 2 == d[3]]
    if not matches:
        raise NotACodewordError("no row candidate matches the inversion parity")
    if len({rows for _, rows in matches}) > 1:
        raise AmbiguityError("two row hypotheses give distinct arrays consistent with the class")
    row_exact = len(matches) == 1
    return (
        Array2D(matches[0][1], ctx.q),
        matches[0][0] if row_exact else None,
        j if col_exact else None,
    )
