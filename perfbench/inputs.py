"""The benchmark's own seeded input generator.

Inputs for decode-fast, decode-scan and verify-balls never come from the
library's samplers: a sampler change alters the random-number stream it
consumes, and drawing codewords through it would silently change those
workloads' inputs too. Arrays are drawn here and accepted only through the
library's public predicates (is_good, is_l_valid, is_l_weakly_valid,
rows_are_distinct); class parameters come from the public c*_syndromes.
"""
from __future__ import annotations

import hashlib
import random

from crisscross import (
    Array2D,
    interleave_residue_subarrays,
    is_good,
    is_l_valid,
    is_l_weakly_valid,
    rows_are_distinct,
)


def workload_rng(workload: str, seed: int, part: str = "") -> random.Random:
    """Independent stream per workload, seed and part (string seeding is stable
    across processes and hash seeds)."""
    return random.Random(f"perfbench:{workload}:{seed}:{part}")


def plain_cells(rng: random.Random, rows: int, cols: int, q: int):
    return tuple(tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows))


def uniform_sum_cells(rng: random.Random, rows: int, cols: int, q: int):
    """Uniform draw from the arrays whose row sums all equal r and column sums
    all equal c (mod q), for a sum class (r, c) picked uniformly.

    The free (rows-1) x (cols-1) block is uniform; the last column, last row
    and corner are forced by the sums. That map is a bijection onto the class.
    """
    classes = [
        (r, c) for r in range(q) for c in range(q) if (rows * r - cols * c) % q == 0
    ]
    r, c = rng.choice(classes)
    cells = []
    for _ in range(rows - 1):
        row = [rng.randrange(q) for _ in range(cols - 1)]
        row.append((r - sum(row)) % q)
        cells.append(row)
    cells.append([(c - sum(row[j] for row in cells)) % q for j in range(cols)])
    return tuple(map(tuple, cells))


class Drawer:
    """Rejection draws through public predicates, counting draws per accepted array."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.draws: dict[str, list[int]] = {}

    def draw(self, what: str, rows: int, cols: int, q: int, accept, uniform: bool) -> Array2D:
        make = uniform_sum_cells if uniform else plain_cells
        count = 0
        while True:
            count += 1
            x = Array2D(make(self.rng, rows, cols, q), q)
            if accept(x):
                self.draws.setdefault(what, [0, 0])
                self.draws[what][0] += 1
                self.draws[what][1] += count
                return x

    def good(self, what, n, q, uniform, extra=lambda x: True):
        return self.draw(what, n, n, q, lambda x: is_good(x) and extra(x), uniform)

    def valid(self, what, n, q, l, uniform, extra=lambda x: True):
        return self.draw(what, n, n, q, lambda x: is_l_valid(x, l) and extra(x), uniform)

    def burst_codeword(self, what, n, q, t, l, uniform):
        """Residue-interleaved array: anchor band-valid with distinct rows,
        the other t*t subarrays weakly band-valid (the c3 codeword shape)."""
        m = n // t
        parts = [
            [
                self.draw(
                    what + ":anchor", m, m, q,
                    lambda x: is_l_valid(x, l) and rows_are_distinct(x), uniform,
                )
                if (s, u) == (0, 0)
                else self.draw(
                    what + ":other", m, m, q, lambda x: is_l_weakly_valid(x, l), uniform
                )
                for u in range(t)
            ]
            for s in range(t)
        ]
        return interleave_residue_subarrays(parts, t, t)

    def summary(self) -> dict:
        return {
            what: {"accepted": acc, "draws": total, "draws_per_array": total / acc}
            for what, (acc, total) in sorted(self.draws.items())
        }


def digest(keys) -> str:
    """SHA-256 over the canonical text of each input key (tuples of ints and strings)."""
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode())
        h.update(b"\n")
    return h.hexdigest()
