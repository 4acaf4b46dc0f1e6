"""Decoder result container shared by the code constructions."""
from __future__ import annotations

from dataclasses import dataclass

from .core_array import Array2D


@dataclass(frozen=True)
class DecodeOutcome:
    """A uniquely recovered array plus 1-based position information.

    row_interval / col_interval bracket the deletion position (or, for burst
    decoding, the window start); lo == hi means the position is exact.
    path records which decoder route produced the result: "fast" or "scan"
    (c1_decode, c2_decode), "residue" (c3_decode) or "codebook" (the oracle).
    """

    array: Array2D
    row_interval: tuple[int, int]
    col_interval: tuple[int, int]
    path: str

    @property
    def row_exact(self) -> bool:
        return self.row_interval[0] == self.row_interval[1]

    @property
    def col_exact(self) -> bool:
        return self.col_interval[0] == self.col_interval[1]
