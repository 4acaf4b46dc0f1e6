"""Sequence-level primitives: signatures, VT syndromes and decoding,
inversions and compositions.

Sequences are plain tuples of nonnegative ints. Positions are 1-based.
"""
from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from functools import lru_cache

from .errors import InvalidParameterError, NotACodewordError


def signature(x: tuple[int, ...]) -> tuple[int, ...]:
    """Binary ascent indicator: bit i is 1 iff x[i+1] >= x[i] (1-based: x_{i+1} >= x_i)."""
    if len(x) < 1:
        raise InvalidParameterError("signature needs a nonempty sequence")
    return tuple(1 if b >= a else 0 for a, b in zip(x, x[1:]))


def signature_syndrome(x: tuple[int, ...], n: int) -> int:
    """Weighted ascent sum of the signature, reduced mod n."""
    if n < 1:
        raise InvalidParameterError("modulus must be positive")
    if len(x) < 1:
        raise InvalidParameterError("signature needs a nonempty sequence")
    return sum(itertools.compress(range(1, len(x)), map(operator.le, x, x[1:]))) % n


def vt_syndromes(x: tuple[int, ...], n: int, q: int) -> tuple[int, int]:
    """(signature syndrome mod n, symbol sum mod q) of x."""
    if q < 2:
        raise InvalidParameterError("alphabet size must be at least 2")
    return signature_syndrome(x, n), sum(x) % q


def inversions(x: tuple[int, ...]) -> int:
    """Number of out-of-order pairs (s < t with x_s > x_t), counted from the
    right by bisection into the sorted entries seen so far."""
    seen: list = []
    count = 0
    for v in reversed(x):
        k = bisect_left(seen, v)
        count += k
        seen.insert(k, v)
    return count


def composition(x: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Symbol frequency vector (count of 0, count of 1, ..., count of q-1)."""
    if q < 2:
        raise InvalidParameterError("alphabet size must be at least 2")
    counts = [0] * q
    for v in x:
        if not 0 <= v < q:
            raise InvalidParameterError(f"symbol {v} outside [0, {q})")
        counts[v] += 1
    return tuple(counts)


def compositions(table, q: int) -> tuple[tuple[int, ...], ...]:
    """composition(column, q) of each column of table, a sequence of
    equal-length rows. Over 2 <= q <= 256 and below 256 rows, per symbol but
    the last, the rows' packed 0/1 indicators are summed as big ints, one
    byte per column (no count overflows it); the last symbol takes the rest.
    Other tables, or a cell outside [0, q), go column by column through
    composition, which raises on such a cell."""
    table = tuple(table)
    try:
        packed = tuple(map(bytes, table)) if 2 <= q <= 256 and 0 < len(table) < 256 else ()
    except (TypeError, ValueError):
        packed = ()
    if (
        packed and len(set(map(len, packed))) == 1
        and not b"".join(packed).translate(None, bytes(range(q)))
    ):
        width = len(packed[0])
        indicators = (bytes(v) + b"\1" + bytes(255 - v) for v in range(q - 1))
        counts = [
            sum(map(int.from_bytes, map(bytes.translate, packed, itertools.repeat(ind)),
                    itertools.repeat("big")))
            for ind in indicators
        ]
        counts.append(int.from_bytes(bytes((len(packed),)) * width, "big") - sum(counts))
        return tuple(zip(*(c.to_bytes(width, "big") for c in counts)))
    return tuple(composition(col, q) for col in zip(*table))


@lru_cache(maxsize=1 << 16)
def comp_rank(comp: tuple[int, ...]) -> int:
    """Lexicographic rank of a frequency vector among all with the same total and length.

    Order-isomorphic to tuple comparison, so it can stand in for the
    composition itself wherever only relative order matters.
    """
    q = len(comp)
    if q < 1 or any(c < 0 for c in comp):
        raise InvalidParameterError(f"not a frequency vector: {comp}")
    remaining = sum(comp)
    rank = 0
    for pos in range(q - 1):
        parts_left = q - pos - 1
        for v in range(comp[pos]):
            rank += math.comb(remaining - v + parts_left - 1, parts_left - 1)
        remaining -= comp[pos]
    return rank


def _insert(y: tuple[int, ...], p: int, v: int) -> tuple[int, ...]:
    """Insert v so that it lands at 1-based position p of the result."""
    return y[: p - 1] + (v,) + y[p - 1:]


def inserted_syndrome(before, after, n: int):
    """Signature syndrome mod n of before[:p-1] + [v] + after[p-1:], for
    before and after of n-1 entries each, as a function of the 1-based p
    and v: O(n) prefix sums, then O(1) and two comparisons of v a call."""
    # fixed[p]: the ascents within before[:p-1] and within after[p-1:], each
    # weighted by its place in the whole. Plain loops beat itertools here.
    fixed, acc = [0] * (n + 1), 0
    for p in range(3, n + 1):
        if before[p - 2] >= before[p - 3]:
            acc += p - 2
        fixed[p] = acc
    acc = 0
    for p in range(n - 2, 0, -1):
        if after[p] >= after[p - 1]:
            acc += p + 1
        fixed[p] += acc
    after = [*after, after[-1]]  # at p = n its weight n vanishes mod n

    def syndrome(p: int, v) -> int:
        return (fixed[p] + (p - 1) * (v >= before[p - 2]) + p * (after[p - 1] >= v)) % n

    return syndrome


def vt_decode_known_symbol(
    y: tuple[int, ...], v: int, a: int, n: int
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Recover x of length n from y = x minus one occurrence of the known symbol v.

    Matches the signature syndrome a mod n over the n insertion positions in
    one pass. All insertions of v share a symbol sum, so by Tenengolts' q-ary
    VT code (IEEE T-IT 1984) distinct ones have distinct syndromes: the
    matches form one run with one reconstruction. Returns (x, (lo, hi)) where
    [lo, hi] is that 1-based ambiguity run.
    """
    if len(y) != n - 1:
        raise InvalidParameterError(f"received length {len(y)}, expected {n - 1}")
    if n == 1:
        return (v,), (1, 1)
    a %= n
    asc = tuple(map(operator.le, y, y[1:]))
    # With v at p, y's ascent t (y[t] <= y[t + 1], 0-based) weighs t + 1 left
    # of p and t + 2 right of it; p + 1 takes ascent p - 2 left and splits
    # ascent p - 1. v's neighbours at the ends weigh 0 and n: any will do.
    fixed = sum(itertools.compress(range(2, n), asc))
    lo = hi = None
    for p, left, right, join, split in zip(
        range(1, n + 1), (y[-1], *y), (*y, y[-1]), (False, *asc, False), (*asc, False, False)
    ):
        if (fixed + (p - 1) * (v >= left) + p * (right >= v)) % n == a:
            lo = lo or p
            hi = p
        elif lo:
            break
        fixed += (p - 1) * join - (p + 1) * split
    if lo is None:
        raise NotACodewordError("no insertion position matches the signature syndrome")
    return _insert(y, lo, v), (lo, hi)


def vt_decode_full(
    y: tuple[int, ...], a: int, b: int, n: int, q: int
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Recover x in the VT class (a mod n, b mod q) from a single deletion.

    The missing symbol is forced by the sum syndrome; its position is then
    resolved as in vt_decode_known_symbol. Returns (x, ambiguity run).
    """
    if q < 2:
        raise InvalidParameterError("alphabet size must be at least 2")
    if any(not 0 <= s < q for s in y):
        raise InvalidParameterError("received symbols outside the alphabet")
    v = (b - sum(y)) % q
    return vt_decode_known_symbol(y, v, a, n)
