"""Array representations used by the code constructions.

Column and row composition sequences, base-q row/column integers, the "good"
predicate, and the band rules: height bound, cut, validity and parities.
"""
from __future__ import annotations

import operator

from .core_array import Array2D, transpose
from .errors import InvalidParameterError
from .onedim import compositions, inversions

Composition = tuple[int, ...]


def ccr(x: Array2D) -> tuple[Composition, ...]:
    """Column composition sequence: frequency vector of each column, left to right."""
    return compositions(x.cells, x.q)


def rcr(x: Array2D) -> tuple[Composition, ...]:
    """Row composition sequence: frequency vector of each row, top to bottom."""
    return compositions(tuple(zip(*x.cells)), x.q)


def rir(x: Array2D) -> tuple[int, ...]:
    """Row integer sequence: each row read as a base-q number, most significant first."""
    q = x.q
    out = []
    for row in x.cells:
        value = 0
        for v in row:
            value = value * q + v
        out.append(value)
    return tuple(out)


def cir(x: Array2D) -> tuple[int, ...]:
    """Column integer sequence: rir of the transpose."""
    return rir(transpose(x))


def is_good(x: Array2D) -> bool:
    """True iff adjacent columns always have distinct compositions."""
    comps = ccr(x)
    return all(a != b for a, b in zip(comps, comps[1:]))


def no_triple_runs(seq) -> bool:
    """True iff no three consecutive entries are equal (equal entries further
    apart are allowed)."""
    return all(a != b or b != c for a, b, c in zip(seq, seq[1:], seq[2:]))


def check_band_height(rows: int, l: int) -> None:
    """Raise InvalidParameterError unless rows holds three bands of height l >= 1."""
    if l < 1:
        raise InvalidParameterError("band height must be positive")
    if rows < 3 * l:
        raise InvalidParameterError(
            f"validity needs at least 3 bands: rows {rows} < {3 * l}"
        )


def is_l_weakly_valid(x: Array2D, l: int) -> bool:
    """True iff in each of the first three height-l row bands, adjacent columns differ."""
    check_band_height(x.rows, l)
    return bands_fit(x.cells, l)


def band_cols(rows, l: int, k: int) -> tuple:
    """The columns, as digit tuples, of the k-th (1-based) height-l band of rows."""
    return tuple(zip(*rows[(k - 1) * l:k * l]))


def bands_fit(rows, l: int, d=None, matched: int | None = None) -> bool:
    """Weak validity of the row tuples rows and, if d is given, inversion parity
    d[k - 1] of each band k = 1, 2, 3 but matched, off one transpose per band."""
    for k in (1, 2, 3):
        band = band_cols(rows, l, k)
        if any(map(operator.eq, band, band[1:])) or (
            d and k != matched and inversions(band) % 2 != d[k - 1]
        ):
            return False
    return True


def parity_bits(rows, l: int) -> tuple[int, int, int, int]:
    """Inversion parities of the three height-l bands' column integers, then of
    the row integers, each read as its tuple of digits, of the row tuples rows."""
    return (*(inversions(band_cols(rows, l, k)) % 2 for k in (1, 2, 3)), inversions(rows) % 2)


def check_parity_bits(d) -> None:
    """Raise InvalidParameterError unless d is four inversion parity bits."""
    if len(d) != 4 or any(bit not in (0, 1) for bit in d):
        raise InvalidParameterError("inversion parities must be four bits")


def is_l_valid(x: Array2D, l: int) -> bool:
    """Band validity plus no triple repeats among column or row compositions.

    Three conditions: (i) no three consecutive columns share one composition,
    (ii) no three consecutive rows share one composition, (iii) weak validity
    of the first three height-l bands.
    """
    check_band_height(x.rows, l)
    return no_triple_runs(ccr(x)) and no_triple_runs(rcr(x)) and bands_fit(x.cells, l)


def rows_are_distinct(x: Array2D) -> bool:
    """True iff no two adjacent rows are identical."""
    return all(a != b for a, b in zip(x.cells, x.cells[1:]))
