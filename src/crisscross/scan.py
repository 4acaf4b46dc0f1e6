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
2. The other syndrome, O(1) for each of the about n hits of filter 1: c2
   reads row ranks off ScanContext.row_ranks; c1 takes the hits whose
   adjacent columns differ, lays out the minor's rows once for each of
   their few columns j, and compares each hit's forced row with two rows.
3. What 1 and 2 leave open: nothing for c1; for c2, band validity off the
   ranks and the candidate's row tuples, then the parities. Only a
   surviving candidate becomes an array.
Filters 1 and 2 read the syndrome of a sequence with one entry inserted,
whose other entries ignore where it goes, off onedim.inserted_syndrome.

Fast paths: with uniform sums the candidate of hypothesis (rows, cols) is
the minor's completion, whose composition syndromes bracket the deleted
column and row; the forced symbols then ignore where the row and column go
in, so the candidate of (i, j) has the completion's column (row)
compositions with the last one moved to j (i). resolve_deletion settles a
bracket of at most two positions per axis by band and row inversion
parities, for c2's fast path and for each residue subarray of c3; it needs
no uniform sums, and hands the candidate on as row tuples.

Y comes as row tuples over q, its shape checked by the public decoder. The
integers that the paper's parities and syndromes read (reprs' band columns,
an array's rows) are read as their digit tuples: equal-length tuples over
{0, ..., q-1} order exactly like their base-q values, and compare at C level.
"""
from __future__ import annotations

from functools import cache, cached_property
from itertools import accumulate
from operator import sub

from .errors import AmbiguityError, InvalidParameterError, NotACodewordError
from .onedim import comp_rank, composition, compositions, inserted_syndrome, inversions
from .outcome import DecodeOutcome
from .reprs import band_cols


def _ranked(comp: tuple[int, ...], v: int) -> int:
    """Rank of the composition comp with one more symbol v."""
    return comp_rank(comp[:v] + (comp[v] + 1,) + comp[v + 1:])


class RankTable:
    """Composition ranks of the candidates' lines along one axis (columns or
    rows). With the inserted line at p, line k < p (k > p) is minor line k
    (k-1) plus its forced symbol of that side, ranked before[k-1] (after[k-2]).
    The inserted line holds the corner and one forced symbol per minor line of
    the other axis, counted in counts[p'] if that axis's inserted line is at p'."""

    def __init__(self, comps, before, after, cross_before, cross_after, q: int):
        self.before = [_ranked(c, v) for c, v in zip(comps, before)]
        self.after = [_ranked(c, v) for c, v in zip(comps, after)]
        self.syndrome = inserted_syndrome(self.before, self.after, len(comps) + 1)
        counts = [*composition(cross_after, q)]
        self.counts = [(), tuple(counts)]
        for u, v in zip(cross_before, cross_after):
            counts[u] += 1
            counts[v] -= 1
            self.counts.append(tuple(counts))

    def inserted_rank(self, p_cross: int, corner: int) -> int:
        return _ranked(self.counts[p_cross], corner)

    def ranks(self, p: int, rank: int) -> tuple[int, ...]:
        return (*self.before[:p - 1], rank, *self.after[p - 1:])


class ScanContext:
    """A received minor's row tuples cells over q, one row and one column short
    of len(full_b) x len(a), with the class's column and row sums, which force
    the candidate array of every deletion hypothesis; if sum(a) == sum(full_b)
    mod q, each candidate has column sums a and row sums full_b."""

    def __init__(self, cells, a: tuple[int, ...], full_b: tuple[int, ...], q: int):
        rows, cols = len(full_b), len(a)
        self.q, self.rows, self.cols, self.full_b, self.cells = q, rows, cols, full_b, cells
        col_sums = list(map(sum, zip(*cells)))
        row_sums = list(map(sum, cells))
        # Forced symbol of each minor column (row): where it keeps its index,
        # left of (above) the deleted one, and where it moves one on, right
        # of (below) it.
        self.left = [(t - s) % q for t, s in zip(a, col_sums)]
        self.right = [(t - s) % q for t, s in zip(a[1:], col_sums)]
        self.up = [(t - s) % q for t, s in zip(full_b, row_sums)]
        self.down = [(t - s) % q for t, s in zip(full_b[1:], row_sums)]
        # The inserted row's sum without the corner, by the deleted column;
        # every decode reads it, through corner() or the column-rank screen.
        self.row_rest = [*accumulate(map(sub, self.left, self.right), initial=sum(self.right))]

    def corner(self, i_hyp: int, j_hyp: int) -> int:
        """The corner symbol forced under hypothesis (i_hyp, j_hyp), in O(1)."""
        return (self.full_b[i_hyp - 1] - self.row_rest[j_hyp - 1]) % self.q

    @cached_property
    def col_ranks(self) -> RankTable:
        comps = compositions(self.cells, self.q)
        return RankTable(comps, self.left, self.right, self.up, self.down, self.q)

    @cached_property
    def row_ranks(self) -> RankTable:
        comps = compositions(tuple(zip(*self.cells)), self.q)
        return RankTable(comps, self.up, self.down, self.left, self.right, self.q)

    def forced_insertions(self, i_hyp: int, j_hyp: int):
        """Row and column contents forced by the sums under hypothesis (i_hyp, j_hyp)."""
        corner = self.corner(i_hyp, j_hyp)
        new_row = self.left[: j_hyp - 1] + [corner] + self.right[j_hyp - 1:]
        new_col = self.up[: i_hyp - 1] + [corner] + self.down[i_hyp - 1:]
        return tuple(new_row), tuple(new_col)

    def candidate_rows(self, i_hyp: int, j_hyp: int):
        """Row tuples of the candidate array for hypothesis (i_hyp, j_hyp): the
        minor with the forced row and column inserted as row i_hyp and column j_hyp."""
        new_row, new_col = self.forced_insertions(i_hyp, j_hyp)
        digits = new_col[: i_hyp - 1] + new_col[i_hyp:]
        out = [row[: j_hyp - 1] + (v,) + row[j_hyp - 1:] for row, v in zip(self.cells, digits)]
        out.insert(i_hyp - 1, new_row)
        return tuple(out)


def full_row_sums(a: tuple[int, ...], b: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Row sums b and the last one, which the column sums a imply mod q."""
    return b + ((sum(a) - sum(b)) % q,)


def check_class_sums(q: int, a, cols: int, b, rows: int) -> None:
    """Raise InvalidParameterError unless q >= 2 and a (b) holds cols column
    (rows row) sums, each a residue mod q."""
    if q < 2:
        raise InvalidParameterError("alphabet size must be at least 2")
    if len(a) != cols:
        raise InvalidParameterError(f"need {cols} column sums, got {len(a)}")
    if len(b) != rows:
        raise InvalidParameterError(f"need {rows} row sums, got {len(b)}")
    for v in (*a, *b):
        if not 0 <= v < q:
            raise InvalidParameterError(f"sum residue {v} outside [0, {q})")


def decode_route(path: str, uniform: bool) -> str:
    """The c1 or c2 decode path to run for the requested one: "auto" runs
    "fast" exactly for uniform sums, which "fast" requires."""
    if path not in ("auto", "fast", "scan"):
        raise InvalidParameterError(f"unknown decode path {path!r}")
    if path == "auto":
        return "fast" if uniform else "scan"
    if path == "fast" and not uniform:
        raise InvalidParameterError("fast path requires uniform column and row sums")
    return path


def comp_ranks(table, q: int) -> tuple[int, ...]:
    """Rank of the composition over q of each column of table, a sequence of
    equal-length rows, counted by onedim.compositions."""
    return tuple(map(comp_rank, compositions(table, q)))


def move_last(seq: tuple, k: int) -> tuple:
    """seq with its last entry moved to 1-based position k."""
    return seq[:k - 1] + seq[-1:] + seq[k - 1:-1]


def column_rank_screen(ctx: ScanContext, target: int) -> list[tuple[int, int, bool, int]]:
    """Hypotheses (i, j), in row-major order, whose candidate has column-rank
    signature syndrome target, each with whether the candidate's adjacent
    columns have distinct compositions and the rank of its column j.

    Column j holds the same symbols for every j apart from its corner, which
    depends on j only through ctx.row_rest[j-1] mod q. So the js that pass
    are found once for each such residue and rank of column j, which takes
    a handful of values per decode, and row i costs O(q + hits).
    """
    table, q = ctx.col_ranks, ctx.q
    # Ranks beside column j, -1 past either end: a rank never equals -1.
    before, after = [-1, *table.before], [*table.after, -1]
    # The other columns differ from their neighbours iff no tie lies within
    # table.before[:j-1] nor within table.after[j-1:].
    first_tie = next((s for s in range(ctx.cols - 2) if before[s + 1] == before[s + 2]), ctx.cols)
    last_tie = max((s for s in range(ctx.cols - 2) if after[s] == after[s + 1]), default=-1)
    by_residue: dict[int, list[int]] = {}
    for j, rest in enumerate(ctx.row_rest, 1):
        by_residue.setdefault(rest % q, []).append(j)

    @cache
    def passing(rest: int, rank: int) -> list[tuple[int, bool, int]]:
        return [
            (j, last_tie <= j - 2 <= first_tie and before[j - 1] != rank != after[j - 1], rank)
            for j in by_residue[rest]
            if table.syndrome(j, rank) == target
        ]

    hits = []
    for i in range(1, ctx.rows + 1):
        row = [
            hit for rest in by_residue
            for hit in passing(rest, table.inserted_rank(i, (ctx.full_b[i - 1] - rest) % q))
        ]
        hits += [(i, *hit) for hit in sorted(row)]
    return hits


def scan_verdict(survivors: dict, path: str) -> DecodeOutcome:
    """The unique survivor of survivors, which maps each candidate codeword to
    the (row, column) deletion positions that produce it, with the range of
    those positions as its intervals."""
    if not survivors:
        raise NotACodewordError("no codeword's ball contains the input")
    if len(survivors) > 1:
        raise AmbiguityError(f"{len(survivors)} codewords explain the input")
    array, hyps = next(iter(survivors.items()))
    rows, cols = zip(*hyps)
    return DecodeOutcome(
        array=array,
        row_interval=(min(rows), max(rows)),
        col_interval=(min(cols), max(cols)),
        path=path,
    )


def resolve_deletion(
    ctx: ScanContext, l: int, d: tuple[int, int, int, int],
    row_interval: tuple[int, int], col_interval: tuple[int, int],
) -> tuple[tuple[tuple[int, ...], ...], int | None, int | None, int | None]:
    """Finish a deletion bracketed to at most two adjacent rows and columns by
    the inversion parities d of the class (three bands, then row integers).

    Returns the candidate's row tuples, the resolved row and column indices
    (None where a tie left the position open; the candidate is unique anyway,
    and was taken at that interval's first position), and the band k that
    settled a two-column bracket (else None). The candidate has the class
    sums and row parity d[3], and band k has parity d[k - 1] or two equal
    adjacent columns: weak validity and the other band parities remain.
    """
    (lo, hi), j = row_interval, col_interval[0]
    col_exact = col_interval[1] == j
    first = ctx.candidate_rows(lo, j)
    k = None
    if not col_exact:
        # A band that avoids the row interval reads the same under either row
        # hypothesis, so its parity tests the column alone. Its columns with
        # the missing one at j + 1 are those with it at j but for one
        # adjacent swap: equal columns tie, else one parity matches. Band 1
        # avoids an interval that starts below it; else lo <= l, band 2
        # avoids it if hi <= l, and band 3 does as hi <= lo + 1 <= 2 * l.
        k = 1 if lo > l else 2 if hi <= l else 3
        band = band_cols(first, l, k)
        col_exact = band[j - 1] != band[j]
        if col_exact and inversions(band) % 2 != d[k - 1]:
            j += 1
            first = ctx.candidate_rows(lo, j)

    cands = [(lo, first, inversions(first) % 2)]
    if hi > lo:
        rows = ctx.candidate_rows(hi, j)
        # rows is first but in rows lo and hi. Where it swaps those two, as
        # under uniform row sums, its parity is first's, flipped iff they differ.
        if rows[lo - 1] == first[lo] and rows[lo] == first[lo - 1]:
            cands.append((hi, rows, cands[0][2] ^ (first[lo - 1] != first[lo])))
        else:
            cands.append((hi, rows, inversions(rows) % 2))
    matches = [(i, rows) for i, rows, parity in cands if parity == d[3]]
    if not matches:
        raise NotACodewordError("no row candidate matches the inversion parity")
    if len({rows for _, rows in matches}) > 1:
        raise AmbiguityError("two row hypotheses give distinct arrays consistent with the class")
    row_exact = len(matches) == 1
    return (
        matches[0][1],
        matches[0][0] if row_exact else None,
        j if col_exact else None,
        k,
    )
