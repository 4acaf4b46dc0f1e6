"""Decoder helpers shared by the code constructions.

Hypothesis scan: given a received minor Y and indexed column/row sum vectors,
each deletion hypothesis (i, j) forces a unique candidate array: the missing
symbols in every surviving column and row are pinned by their sum constraints
and the corner by the deleted row's own sum. Decoders enumerate hypotheses,
screen candidates cheaply, and keep those passing the full membership test.

Fast paths: completion of a minor under uniform sums, and resolution of a
two-candidate deletion position by band and row inversion parities.
"""
from __future__ import annotations

from .core_array import Array2D
from .errors import AmbiguityError, CodePropertyError, InvalidParameterError, NotACodewordError
from .onedim import comp_rank, composition, inversions, signature_syndrome
from .outcome import DecodeOutcome
from .reprs import cir, rir


class ScanContext:
    """Per-decode cache of column/row sums and compositions of the received minor."""

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
        self.y_col_comps = tuple(composition(col, y.q) for col in zip(*y.cells))
        self.y_row_comps = tuple(composition(row, y.q) for row in y.cells)

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

    def col_rank_syndrome(self, j_hyp: int, new_row, new_col) -> int:
        """Signature syndrome of the candidate's column composition ranks."""
        ranks = []
        for k in range(1, self.cols + 1):
            if k == j_hyp:
                ranks.append(comp_rank(composition(new_col, self.q)))
            else:
                comp = self.y_col_comps[k - 1 if k < j_hyp else k - 2]
                v = new_row[k - 1]
                ranks.append(comp_rank(comp[:v] + (comp[v] + 1,) + comp[v + 1:]))
        return signature_syndrome(tuple(ranks), self.cols)

    def row_rank_syndrome(self, i_hyp: int, new_row, new_col) -> int:
        """Signature syndrome of the candidate's row composition ranks."""
        ranks = []
        for k in range(1, self.rows + 1):
            if k == i_hyp:
                ranks.append(comp_rank(composition(new_row, self.q)))
            else:
                comp = self.y_row_comps[k - 1 if k < i_hyp else k - 2]
                v = new_col[k - 1]
                ranks.append(comp_rank(comp[:v] + (comp[v] + 1,) + comp[v + 1:]))
        return signature_syndrome(tuple(ranks), self.rows)

    def assemble(self, i_hyp: int, j_hyp: int, new_row, new_col) -> Array2D:
        """Materialize the candidate array for hypothesis (i_hyp, j_hyp)."""
        out = []
        yi = 0
        for r in range(1, self.rows + 1):
            if r == i_hyp:
                out.append(new_row)
            else:
                yrow = self.cells[yi]
                yi += 1
                out.append(yrow[: j_hyp - 1] + (new_col[r - 1],) + yrow[j_hyp - 1:])
        return Array2D(tuple(out), self.q)


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
    out = []
    for k in range(3):
        band = Array2D(x.cells[k * l:(k + 1) * l], x.q)
        out.append(inversions(cir(band)) % 2)
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
