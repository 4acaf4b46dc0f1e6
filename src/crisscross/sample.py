"""Samplers: uniform random arrays of each structure the constructions use,
and per construction a random codeword with its class (c1_sample, c2_sample
and c3_sample, the construction table's sample entries)."""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
from collections import Counter

from .bounds import DEFAULT_STATE_CAP, good_chains
from .code_c1 import c1_syndromes
from .code_c2 import c2_syndromes
from .code_c3 import c3_syndromes
from .core_array import Array2D, interleave_residue_subarrays
from .errors import InvalidParameterError, SamplingError
from .reprs import check_band_height, no_triple_runs, rcr, rows_are_distinct

DEFAULT_TRIAL_BUDGET = 10**6


def _sum_class_count(rows: int, cols: int, q: int) -> int:
    """Number of sum classes of the shape, the pairs (r, c) with
    rows*r == cols*c (mod q). With g = gcd(cols, q), q / (g / gcd(g, rows))
    values of r each have g values of c."""
    return q * math.gcd(rows, cols, q)


def _sum_class(rows: int, cols: int, q: int, k: int) -> tuple[int, int]:
    """The k-th sum class of the shape, in the order of r, then c, in O(log q).

    With g = gcd(cols, q), cols*c == rows*r (mod q) is solvable exactly when
    g / gcd(g, rows) divides r, and then has g solutions c0 + t*(q/g).
    """
    g = math.gcd(cols, q)
    step = q // g
    r = (k // g) * (g // math.gcd(g, rows))
    c0 = (rows * r // g) * pow(cols // g, -1, step) % step
    return r, c0 + (k % g) * step


def _places(q: int, count: int) -> list[int]:
    """Place values of count base-q digits, most significant first: a number
    v below q**count has digits [v // p % q for p in _places(q, count)]."""
    return [q ** (count - 1 - i) for i in range(count)]


# The good chain's weights for one multinomial are `length` integers, the
# j-th below q**(n*j), so about length**2 * n * log2(q) / 2 bits. Past
# CHAIN_WEIGHT_BITS for length**2 * n * log2(q), or past
# bounds.DEFAULT_STATE_CAP column compositions, the good rule draws
# unweighted columns instead.
CHAIN_WEIGHT_BITS = 1 << 20


def _uniform_class(rng: random.Random, rows: int, cols: int, q: int) -> tuple[int, int]:
    return _sum_class(rows, cols, q, rng.randrange(_sum_class_count(rows, cols, q)))


class _GoodRule:
    """Adjacent columns of an n x n array have distinct compositions.

    Weighted: a column is drawn uniform (in its sum class), redrawn if its
    composition is its left neighbour's, and kept with probability
    phi_k(m) / F_(k-1), where k counts it and the chain columns after it
    (bounds.GoodChains). So each column is drawn in proportion to the number
    of ways to finish the chain after it, and every good chain is equally
    likely. A sum class (r, c) is picked in proportion to its chain total
    F_L, which depends on c mod g = gcd(n, q) only, and each residue holds q
    classes: the residue by its total, then one of its classes uniformly.

    Unweighted, when the shape alone shows the tables to be too large
    (more than DEFAULT_STATE_CAP compositions or CHAIN_WEIGHT_BITS bits per
    weight tuple): the class and the columns are uniform, and a proposal is
    dropped at the first column whose composition is its left neighbour's.
    That is whole-array rejection, stopped early, and exact since every sum
    class has q**((n-1)**2) members.
    """

    name = "adjacent column compositions equal"

    def __init__(self, n: int, q: int, uniform_sums: bool):
        self.n, self.q = n, q
        # with a sum, the last cell of each column and the last column are forced
        free = length = n - 1 if uniform_sums else n
        self.places = _places(q, free)
        self.span = q**free
        self.chains = self.empty = None
        bits = length * length * n * math.log2(q)
        if math.comb(n + q - 1, q - 1) > DEFAULT_STATE_CAP or bits > CHAIN_WEIGHT_BITS:
            return
        self.chains = good_chains(n, q, length, by_sum=uniform_sums)
        self.cumulative = list(itertools.accumulate(ch.totals[-1] for ch in self.chains))
        if not self.cumulative[-1]:
            self.empty = "no sum class has a good chain of columns"

    def pick_class(self, rng: random.Random) -> tuple[int, int]:
        n, q = self.n, self.q
        if self.chains is None:
            return _uniform_class(rng, n, n, q)
        at, k = divmod(rng.randrange(self.cumulative[-1] * q), q)
        g = len(self.chains)
        step = q // g
        # n*r == n*c (mod q) exactly when r == c (mod q / g)
        c = bisect.bisect_right(self.cumulative, at) + g * (k // g)
        return c % step + step * (k % g), c

    def draw(self, rng: random.Random, c: int | None, prev, depth: int):
        if self.chains is not None:
            chains = self.chains[0 if c is None else c % len(self.chains)]
            total = chains.totals[depth - 1]
        q, places = self.q, self.places
        while True:
            v = rng.randrange(self.span)
            col = [v // p % q for p in places]
            if c is not None:
                col.append((c - sum(col)) % q)
            key = tuple(sorted(col))
            if self.chains is None:
                return (None, None) if key == prev else (col, key)
            if key != prev and rng.randrange(total) < chains.weights(key)[depth]:
                return col, key

    def admits(self, prev, col) -> bool:
        return tuple(sorted(col)) != prev


class _BandRule:
    """Each of the first three height-l bands differs from the left neighbour's.

    A band is read as a base-q number of l digits (top row most significant)
    and drawn uniform among the q**l - 1 values other than its neighbour's;
    the rows below the bands are uniform. With a column sum, the last cell
    is forced: below the bands when there are rows below them, else in band
    3, whose other l - 1 digits are drawn uniform and the column redrawn if
    band 3 then equals its neighbour's. By inclusion-exclusion over the
    matched bands, every column has the same number of admissible
    successors in its sum class, so sum classes are picked uniformly.
    """

    name = "band adjacency"

    def __init__(self, rows: int, cols: int, q: int, l: int, uniform_sums: bool):
        check_band_height(rows, l)
        self.rows, self.cols, self.q, self.l = rows, cols, q, l
        self.forced_band = uniform_sums and rows == 3 * l
        self.drawn = 2 if self.forced_band else 3  # bands drawn by skipping
        self.span = q**l
        self.band_places = _places(q, l)
        # free digits after the drawn bands: band 3 but its forced last cell,
        # or the rows below the bands but the forced one
        free = l - 1 if self.forced_band else rows - 3 * l - int(uniform_sums)
        self.free_places = _places(q, free)
        # random numbers per column, without and with a left neighbour
        self.spans = (self.span**self.drawn * q**free, (self.span - 1) ** self.drawn * q**free)
        successors = sum(
            (-1) ** j * math.comb(3, j) * (q ** (rows - j * l - 1) if rows > j * l else 1)
            for j in range(4)
        )
        self.empty = None
        if uniform_sums and successors == 0:
            self.empty = (
                f"no column with a fixed sum differs from its left neighbour in "
                f"all three bands of height {l} ({rows} rows, q={q})"
            )

    def pick_class(self, rng: random.Random) -> tuple[int, int]:
        return _uniform_class(rng, self.rows, self.cols, self.q)

    def draw(self, rng: random.Random, c: int | None, prev, depth: int):
        q = self.q
        base = self.span if prev is None else self.span - 1
        while True:
            v = rng.randrange(self.spans[prev is not None])
            bands = []
            for k in range(self.drawn):
                v, b = divmod(v, base)
                bands.append(b if prev is None else b + (b >= prev[k]))
            col = [b // p % q for b in bands for p in self.band_places]
            col += [v // p % q for p in self.free_places]
            if c is not None:
                col.append((c - sum(col)) % q)
            if not self.forced_band:
                return col, bands
            last = v * q + col[-1]  # band 3: its free digits, then the forced one
            if prev is None or last != prev[2]:
                return col, (*bands, last)

    def band(self, col, k: int) -> int:
        return sum(map(operator.mul, col[k * self.l:(k + 1) * self.l], self.band_places))

    def admits(self, prev, col) -> bool:
        return all(self.band(col, k) != prev[k] for k in range(3))


_good_rule = functools.lru_cache(maxsize=64)(_GoodRule)
_band_rule = functools.lru_cache(maxsize=64)(_BandRule)


def _forced_column(columns, r: int, q: int) -> list[int]:
    """The column that brings every row of the given columns to sum r (mod q)."""
    return [(r - sum(row)) % q for row in zip(*columns)]


def _propose(rng, cols, q, rule, uniform_sums, column_runs):
    """One chain proposal: its columns, or the name of the predicate that
    dropped it."""
    r = c = None
    if uniform_sums:
        r, c = rule.pick_class(rng)
    length = cols - 1 if uniform_sums else cols  # drawn; a forced one follows
    columns, keys, state = [], [], None
    for j in range(cols):
        if j < length:
            col, state = rule.draw(rng, c, state, length - j)
            if col is None:
                return rule.name
        else:
            col = _forced_column(columns, r, q)
            if not rule.admits(state, col):
                return rule.name
        columns.append(col)
        if column_runs:
            keys.append(tuple(sorted(col)))
            if len(keys) > 2 and keys[-1] == keys[-2] == keys[-3]:
                return "column composition run of three"
    return columns


def _chain_sample(
    rng: random.Random,
    rows: int,
    cols: int,
    q: int,
    rule,
    checks,
    budget: int,
    uniform_sums: bool,
    what: str,
    column_runs: bool = False,
) -> Array2D:
    """Draw column chains until every check passes, so the result is uniform
    over the arrays that pass (and, with uniform_sums, have constant row sums
    and constant column sums mod q).

    A proposal draws columns left to right, each admissible next to its left
    neighbour under the rule. With uniform_sums it first picks a sum class
    (r, c), draws the first cols - 1 columns with column sum c and forces the
    last one from the row sums; the last adjacent pair is then checked
    against the rule. With column_runs a proposal is dropped as soon as three
    adjacent columns share a composition. budget counts proposals.
    """
    if uniform_sums and (rows < 2 or cols < 2):
        raise InvalidParameterError("uniform-sum sampling needs at least a 2x2 shape")
    if rule.empty:
        raise SamplingError(f"cannot sample {what} ({rows}x{cols}, q={q}): {rule.empty}")
    rejections: Counter[str] = Counter()
    for _ in range(budget):
        columns = _propose(rng, cols, q, rule, uniform_sums, column_runs)
        if isinstance(columns, str):
            rejections[columns] += 1
            continue
        x = Array2D(zip(*columns), q)
        failed = next((name for name, pred in checks if not pred(x)), None)
        if failed is None:
            return x
        rejections[failed] += 1
    detail = ", ".join(f"{name}: {count}" for name, count in rejections.most_common())
    raise SamplingError(
        f"budget {budget} exhausted sampling {what} ({rows}x{cols}, q={q}); "
        f"rejections by first failing predicate: {detail or 'none recorded'}"
    )


def sample_good(
    n: int,
    q: int,
    rng: random.Random,
    budget: int = DEFAULT_TRIAL_BUDGET,
    uniform_sums: bool = False,
) -> Array2D:
    """Random n x n array with pairwise distinct adjacent column compositions.

    Uniform over the good arrays of the shape, or with uniform_sums over the
    good arrays whose row sums and column sums are each constant (mod q).
    Columns are drawn left to right, weighted by the good chains of
    bounds.good_chains where those tables are small (see _GoodRule).
    """
    return _chain_sample(
        rng, n, n, q, _good_rule(n, q, uniform_sums), [], budget, uniform_sums,
        "a good array",
    )


def sample_weakly_valid(
    rows: int,
    cols: int,
    q: int,
    l: int,
    rng: random.Random,
    budget: int = DEFAULT_TRIAL_BUDGET,
    uniform_sums: bool = False,
) -> Array2D:
    """Random array whose three height-l bands have distinct adjacent columns.

    Uniform over such arrays of the shape (with uniform_sums: over those with
    constant row sums and constant column sums).
    """
    return _chain_sample(
        rng, rows, cols, q, _band_rule(rows, cols, q, l, uniform_sums), [], budget,
        uniform_sums, "a weakly band-valid array",
    )


def sample_valid(
    rows: int,
    cols: int,
    q: int,
    l: int,
    rng: random.Random,
    budget: int = DEFAULT_TRIAL_BUDGET,
    uniform_sums: bool = False,
    rows_distinct: bool = False,
) -> Array2D:
    """Random band-valid array; optionally with distinct consecutive rows.

    Uniform over the arrays of the shape that pass every predicate (with
    uniform_sums: over those among the constant-row-sum, constant-column-sum
    arrays). Band adjacency holds by construction but for the forced last
    column; runs of three column compositions are caught while chaining, and
    the other predicates are checked in order, so the sampling diagnostics
    name the dominant rejection cause.
    """
    rule = _band_rule(rows, cols, q, l, uniform_sums)
    if not rule.empty and q == 2 and l == 1 and (cols % 2 == 0 or uniform_sums):
        # Binary unit bands are rows that alternate: at an even width all
        # three have composition (cols/2, cols/2), and at an odd one equal
        # row sums make them equal, so rows 1-3 are a composition run.
        raise SamplingError(
            f"cannot sample a band-valid array ({rows}x{cols}, q=2): rows 1-3 alternate"
            f"{' with equal sums' if cols % 2 else ''}, so they share one composition"
        )
    checks = [("row composition run of three", lambda x: no_triple_runs(rcr(x)))]
    if rows_distinct:
        checks.append(("equal consecutive rows", rows_are_distinct))
    return _chain_sample(
        rng, rows, cols, q, rule, checks, budget, uniform_sums, "a band-valid array",
        column_runs=True,
    )


def c1_sample(n, q, rng, *, l=None, t_r=1, t_c=1, uniform_sums=False, rows_distinct=False,
              budget=DEFAULT_TRIAL_BUDGET):
    """A good n x n array and its c1 class; l, t_r, t_c and rows_distinct go unused."""
    x = sample_good(n, q, rng, budget, uniform_sums)
    return x, c1_syndromes(x)


def c2_sample(n, q, rng, *, l, t_r=1, t_c=1, uniform_sums=False, rows_distinct=False,
              budget=DEFAULT_TRIAL_BUDGET):
    """A band-valid n x n array and its c2 class; t_r and t_c go unused."""
    x = sample_valid(n, n, q, l, rng, budget, uniform_sums, rows_distinct)
    return x, c2_syndromes(x, l, rows_distinct)


def c3_sample(n, q, rng, *, l, t_r=1, t_c=1, uniform_sums=False, rows_distinct=False,
              budget=DEFAULT_TRIAL_BUDGET):
    """A burst codeword and its c3 class: residue subarrays drawn row by row, the
    anchor first with distinct rows, the others weakly band-valid; rows_distinct goes unused."""
    m_r, m_c = n // t_r, n // t_c
    parts = [
        [
            sample_valid(m_r, m_c, q, l, rng, budget, uniform_sums, rows_distinct=True)
            if (s, u) == (0, 0)
            else sample_weakly_valid(m_r, m_c, q, l, rng, budget, uniform_sums)
            for u in range(t_c)
        ]
        for s in range(t_r)
    ]
    x = interleave_residue_subarrays(parts, t_r, t_c)
    return x, c3_syndromes(x, t_r, t_c, l)
