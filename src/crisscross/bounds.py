"""Redundancy bound evaluators and exact combinatorial counters.

Two families live here. The bound evaluators (sphere-packing lower bound,
Gilbert-Varshamov style upper bound) plug parameters into explicit formulas
and return structured detail records so every intermediate quantity can be
pinned separately. The counters (good arrays, band-valid arrays, composition
classes, greedy independent sets) are exact big-integer computations used to
cross-check those formulas on small instances.

Counting paths never touch floating point; floats appear only in the final
log-domain summaries and in Monte-Carlo estimates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext

from .core_array import (
    DEFAULT_ENUMERATION_CAP,
    Array2D,
    enumerate_arrays,
    packed_deletion_ball,
)
from .errors import CapacityError, InvalidParameterError
from .reprs import check_band_height, is_l_valid

DEFAULT_STATE_CAP = 100_000
DEFAULT_WITNESS_CAP = 4096
WILSON_Z = 1.96


@dataclass(frozen=True)
class BoundDetail:
    """Sphere-packing bound evaluation with all proof-chain intermediates.

    c1_bound and c2_bound are the sizes of the two codeword classes in the
    counting argument (arrays with some high-run row and column, and the
    rest), as Decimals since they scale like q^(n^2). redundancy_bits is the
    headline (t_r+t_c)(n log2 q + log2 n); chain_bits is the explicit value
    n^2 log2 q - log2(c1_bound + c2_bound) implied by the same chain.
    hypothesis_ok records whether n >= q and the epsilon window hold; outside
    the window the values are still reported, just not guaranteed sharp.
    """

    n: int
    q: int
    t_r: int
    t_c: int
    epsilon: float
    run_threshold: float
    c1_bound: Decimal
    c2_bound: Decimal
    redundancy_bits: float
    chain_bits: float
    hypothesis_ok: bool


@dataclass(frozen=True)
class CountReport:
    """Result of a counting routine.

    exact is present when a full enumeration or exact recurrence ran.
    lower_bound carries the closed-form bound for comparison; it may be
    negative where the formula degenerates (reported as-is, never clamped).
    estimate/interval/trials describe a Monte-Carlo run on the accepted
    fraction of arrays, when one happened.
    """

    method: str
    exact: int | None = None
    lower_bound: Decimal | None = None
    estimate: float | None = None
    interval: tuple[float, float] | None = None
    trials: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("enumeration", "transfer_matrix", "monte_carlo", "formula"):
            raise InvalidParameterError(f"unknown counting method {self.method!r}")
        if self.exact is not None and self.exact < 0:
            raise InvalidParameterError("exact counts cannot be negative")


def _log2_int(m: int) -> float:
    """log2 of a positive integer, stable for values beyond float range."""
    if m <= 0:
        raise InvalidParameterError("log2 needs a positive integer")
    shift = m.bit_length() - 53
    if shift <= 0:
        return math.log2(m)
    return math.log2(m >> shift) + shift


def _check_code_params(n: int, q: int, t_r: int, t_c: int) -> None:
    if q < 2:
        raise InvalidParameterError("alphabet size must be at least 2")
    if t_r < 0 or t_c < 0:
        raise InvalidParameterError("deletion counts must be nonnegative")
    if n < max(2, t_r + 1, t_c + 1):
        raise InvalidParameterError(
            f"n={n} too small for ({t_r}, {t_c}) deletions on a meaningful array"
        )


def sp_lower_bound(n: int, q: int, t_r: int, t_c: int) -> BoundDetail:
    """Sphere-packing style lower bound on redundancy, with intermediates.

    The argument splits any code by run counts: arrays having a high-run row
    and column admit large deletion balls (giving c1_bound via the run-ball
    estimate with the K correction factors), and the remaining low-run arrays
    are rare by a Hoeffding bound (c2_bound). Both classes together bound the
    code size, which yields the headline redundancy.
    """
    _check_code_params(n, q, t_r, t_c)
    eps = math.sqrt((t_r + t_c + 1) * math.log(n) / (2 * (n - 1)))
    window = eps - (1 / q + eps - 4 * max(t_r, t_c) + 4) / n
    hypothesis_ok = n >= q and 0 < window <= (q - 1) / (2 * q)
    run_threshold = ((q - 1) / q - eps) * (n - 1) + 1
    k1 = 1 - (q / (q - 1)) * (eps - (1 / q + eps - 4 * t_r + 4) / n)
    k2 = 1 - (q / (q - 1)) * (eps - (1 / q + eps - 4 * t_c + 4) / n)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, MAX_EMAX, MIN_EMIN
        c2_bound = Decimal(q) ** (n * n) / Decimal(n) ** (n * (t_r + t_c + 1))
        if k1 <= 0 or k2 <= 0:
            c1_bound = Decimal("Infinity")
            chain_bits = float("-inf")
        else:
            scale = Decimal(n) * (q - 1) / (2 * q)
            c1_bound = (
                Decimal(math.factorial(t_r) * math.factorial(t_c))
                * Decimal(q) ** ((n - t_r) * (n - t_c))
                / ((Decimal(k1) * scale) ** t_r * (Decimal(k2) * scale) ** t_c)
            )
            total = c1_bound + c2_bound
            chain_bits = float(
                Decimal(n * n) * Decimal(q).ln() / Decimal(2).ln()
                - total.ln() / Decimal(2).ln()
            )

    redundancy_bits = (t_r + t_c) * (n * math.log2(q) + math.log2(n))
    return BoundDetail(
        n=n,
        q=q,
        t_r=t_r,
        t_c=t_c,
        epsilon=eps,
        run_threshold=run_threshold,
        c1_bound=c1_bound,
        c2_bound=c2_bound,
        redundancy_bits=redundancy_bits,
        chain_bits=chain_bits,
        hypothesis_ok=hypothesis_ok,
    )


def levenshtein_insertion_count(m: int, t: int, a: int) -> int:
    """Number of sequences reachable by exactly t insertions into a length-m
    sequence over an alphabet of size a: sum of C(m+t, i)(a-1)^i for i <= t.

    Independent of which length-m sequence is fixed."""
    if m < 0 or t < 0 or a < 1:
        raise InvalidParameterError("need m >= 0, t >= 0, a >= 1")
    return sum(math.comb(m + t, i) * (a - 1) ** i for i in range(t + 1))


def gv_upper_bound(n: int, q: int, t_r: int, t_c: int) -> float:
    """Existence (upper) bound on optimal redundancy in bits.

    Counts arrays whose deletion balls can intersect a given one: choose the
    deletion result, then reinsert rows and columns. The log of that exact
    degree bound is the redundancy of the code that greedy independent-set
    selection guarantees.
    """
    _check_code_params(n, q, t_r, t_c)
    degree_plus_one = (
        math.comb(n, t_r)
        * math.comb(n, t_c)
        * levenshtein_insertion_count(n - t_c, t_c, q ** (n - t_r))
        * levenshtein_insertion_count(n - t_r, t_r, q**n)
    )
    return _log2_int(degree_plus_one)


def run_ball_lb(r: int, s: int) -> int:
    """Lower bound C(r-s+1, s) on the s-deletion ball of a sequence with r
    runs; zero when the parameters admit no such sequence."""
    if s < 0 or r - s + 1 < 0:
        return 0
    return math.comb(r - s + 1, s)


def _column_profile(
    length: int, q: int, g: int, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[dict[int, int], ...]:
    """The compositions of length over q symbols, by sum: entry s maps each
    multinomial m to the number of compositions with multinomial m whose
    weighted sum (symbol value times count) is s (mod g), for g dividing q.

    A dynamic programme over the symbols keyed by (cells used, sum mod g,
    product of part factorials) groups the compositions as it goes, so each
    multinomial is divided out once; CapacityError as soon as it would hold
    more than state_cap states.
    """
    if length < 1 or q < 2:
        raise InvalidParameterError("need length >= 1 and q >= 2")
    fact = [math.factorial(k) for k in range(length + 1)]
    partial = {(0, 0, 1): 1}  # (cells used, sum mod g, prod k!) -> compositions
    for v in range(q - 2):
        grown: defaultdict[tuple[int, int, int], int] = defaultdict(int)
        for (used, s, d), count in partial.items():
            for k in range(length - used + 1):
                grown[used + k, (s + v * k) % g, d * fact[k]] += count
            if len(grown) > state_cap:
                raise CapacityError(f"more than {state_cap} composition states")
        partial = grown
    counts: list[defaultdict[int, int]] = [defaultdict(int) for _ in range(g)]
    for (used, s, d), count in partial.items():
        rest = length - used  # split between the last two symbols
        for k in range(rest + 1):
            m = fact[length] // (d * fact[k] * fact[rest - k])
            counts[(s + (q - 2) * k + (q - 1) * (rest - k)) % g][m] += count
    return tuple(map(dict, counts))


@dataclass(frozen=True, eq=False)
class GoodChains:
    """Counts of good column sequences over one set of columns.

    totals[j] = F_j counts the sequences of j columns from the set whose
    adjacent compositions differ (F_0 = 1). A column's continuation count
    depends only on the multinomial m of its composition: phi_0(m) = 0 and
    phi_j(m) = F_(j-1) - m phi_(j-1)(m) counts the sequences of j columns
    that start with a given column of multinomial m.
    """

    totals: tuple[int, ...]

    def weights(self, composition: tuple[int, ...]) -> tuple[int, ...]:
        """phi_0(m), ..., phi_L(m) for L = len(totals) - 1, where m is the
        multinomial of a column whose sorted entries are `composition`."""
        return _chain_weights(self, _arrangements(composition))


def _multinomial(parts) -> int:
    """(sum of parts)! / (product of part!): the number of arrangements of
    a sequence with the given symbol counts."""
    parts = list(parts)
    m = math.factorial(sum(parts))
    for part in parts:
        m //= math.factorial(part)
    return m


@functools.lru_cache(maxsize=4096)
def _arrangements(composition: tuple[int, ...]) -> int:
    return _multinomial(Counter(composition).values())


# Bounded: at 72 rows over 4 symbols one entry holds about 47 kB.
@functools.lru_cache(maxsize=256)
def _chain_weights(chains: GoodChains, m: int) -> tuple[int, ...]:
    weights = [0]
    for total in chains.totals[:-1]:
        weights.append(total - m * weights[-1])
    return tuple(weights)


def _chain_totals(
    profiles: dict[int, dict[int, int]], length: int, scale: tuple[int, int]
) -> dict[int, tuple[int, ...]]:
    """F_0..F_length for each profile (m -> compositions, each composition
    standing for m * scale[0] / scale[1] columns).

    F_j = sum of count(m) phi_j(m); unrolled, F_j = sum over i < j of
    P_i F_(j-1-i) with moments P_i = sum of count(m) (-m)^i. The multinomials
    are grouped by their counts in every profile, so each power of m is
    computed and added up once; the profiles then weight the few group sums.
    """
    reps = list(profiles)
    groups: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
    for m in set().union(*profiles.values()):
        groups[tuple(profiles[rep].get(m, 0) for rep in reps)].append(m)
    counts, bases = list(groups), list(groups.values())
    powers = bases  # m ** (i + 1), per group
    moments: list[list[int]] = [[] for _ in reps]
    for i in range(length):
        sums = [sum(group) for group in powers]
        for k, p in enumerate(moments):
            total = sum(count[k] * s for count, s in zip(counts, sums))
            p.append(total * scale[0] // scale[1] * (-1) ** i)
        if i + 1 < length:
            powers = [list(map(operator.mul, power, ms)) for power, ms in zip(powers, bases)]
    out = {}
    for rep, p in zip(reps, moments):
        totals = [1]
        for j in range(1, length + 1):
            totals.append(sum(map(operator.mul, p[:j], reversed(totals))))
        out[rep] = tuple(totals)
    return out


def good_chains(
    rows: int, q: int, length: int, by_sum: bool = False, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[GoodChains, ...]:
    """Good-sequence counts up to the given length over the columns of rows
    cells: one entry for all q**rows columns, or with by_sum one per residue
    s mod g = gcd(rows, q), over the columns whose sum is c (mod q), for any
    c == s (mod g).

    Adding a constant to every entry permutes the symbols, so keeps m, and
    moves the sum by a multiple of rows; so the counts depend on c only
    modulo g, and each of the q / g residues c == s holds g / q of the
    columns with sum s mod g. Multiplying every entry by a unit of Z_q also
    permutes the symbols, so residues with the same gcd with g share one
    entry.
    """
    g = math.gcd(rows, q) if by_sum else 1
    profiles = _column_profile(rows, q, g, state_cap)
    reps = [math.gcd(s, g) % g for s in range(g)]
    totals = _chain_totals(
        {rep: profiles[rep] for rep in set(reps)}, length, (g, q) if by_sum else (1, 1)
    )
    shared = {rep: GoodChains(t) for rep, t in totals.items()}
    return tuple(shared[rep] for rep in reps)


def count_good_exact(n: int, q: int, state_cap: int = DEFAULT_STATE_CAP) -> CountReport:
    """Exact number of n x n arrays whose adjacent column compositions all
    differ, by dynamic programming over the previous column's composition
    (see good_chains).

    lower_bound carries the reference value q^(n^2 - 1); it is only a proven
    bound when q >= 3, n >= q^2 and q divides n.
    """
    if n < 1 or q < 2:
        raise InvalidParameterError("need n >= 1 and q >= 2")
    states = math.comb(n + q - 1, q - 1)
    if states > state_cap:
        raise CapacityError(f"{states} composition states exceed the cap {state_cap}")
    (chains,) = good_chains(n, q, n, state_cap=state_cap)
    return CountReport(
        method="transfer_matrix",
        exact=chains.totals[-1],
        lower_bound=Context(getcontext().prec, Emax=MAX_EMAX, Emin=MIN_EMIN).power(q, n * n - 1),
    )


def _wilson_interval(hits: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    p_hat = hits / trials
    denom = 1 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def count_valid(n: int, q: int, l: int, trials: int, seed: int) -> CountReport:
    """Count (or estimate) n x n arrays that are band-valid with height l.

    With trials >= 1 runs a Monte-Carlo estimate with a Wilson interval on the
    valid fraction; trials == 0 skips sampling. Always evaluates the
    closed-form lower bound
    (1 - 3n/q^l - 2*sqrt(2)/pi) * q^(n^2) for q = 2 or
    (1 - 3n/q^l - 2/n) * q^(n^2) for q >= 3
    (negative values are reported untouched; the bound is only meaningful for
    n >= max(3l, q^2) with q | n). Adds the exact count by enumeration when
    the space is small enough.
    """
    if q < 2:
        raise InvalidParameterError("alphabet size must be at least 2")
    check_band_height(n, l)
    if trials < 0:
        raise InvalidParameterError("need trials >= 0")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        x = Array2D(
            tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)), q
        )
        hits += is_l_valid(x, l)

    if q == 2:
        slack = 2 * math.sqrt(2) / math.pi
    else:
        slack = 2 / n
    factor = 1 - 3 * n / q**l - slack
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, MAX_EMAX, MIN_EMIN
        formula = Decimal(factor) * Decimal(q) ** (n * n)

    exact = None
    method = "monte_carlo" if trials else "formula"
    if q ** (n * n) <= DEFAULT_ENUMERATION_CAP:
        exact = sum(is_l_valid(x, l) for x in enumerate_arrays(n, n, q))
        method = "enumeration"
    return CountReport(
        method=method,
        exact=exact,
        lower_bound=formula,
        estimate=hits / trials if trials else None,
        interval=_wilson_interval(hits, trials) if trials else None,
        trials=trials if trials else None,
    )


def max_constant_composition_class(n: int, q: int) -> int:
    """Largest number of length-n sequences sharing one composition.

    The multinomial coefficient is maximized at the most balanced composition
    (any transfer from a larger part to a smaller one increases it), so only
    that composition needs evaluating.
    """
    if n < 0 or q < 1:
        raise InvalidParameterError("need n >= 0 and q >= 1")
    base, extra = divmod(n, q)
    return _multinomial([base + 1] * extra + [base] * (q - extra))


def caro_wei_witness(
    n: int, q: int, t_r: int, t_c: int, cap: int = DEFAULT_WITNESS_CAP
) -> tuple[tuple[Array2D, ...], int]:
    """Greedy independent set in the deletion-ball conflict graph.

    Vertices are all n x n arrays; edges join arrays whose deletion balls
    intersect. Minimum-degree greedy selection returns an independent set --
    hence a correcting code -- of size at least the sum of 1/(degree+1).
    Only for tiny instances: the graph is built pairwise.
    """
    if q < 2 or t_r < 0 or t_c < 0 or n <= max(t_r, t_c):
        raise InvalidParameterError("need q >= 2 and n > max(t_r, t_c) >= 0")
    vertices = q ** (n * n)
    if vertices > cap:
        raise CapacityError(f"{vertices} vertices exceed the witness cap {cap}")
    arrays = list(enumerate_arrays(n, n, q))
    balls = [packed_deletion_ball(x, t_r, t_c) for x in arrays]
    neighbors: list[set[int]] = [set() for _ in arrays]
    for i, j in itertools.combinations(range(len(arrays)), 2):
        if not balls[i].isdisjoint(balls[j]):
            neighbors[i].add(j)
            neighbors[j].add(i)

    remaining = set(range(len(arrays)))
    chosen: list[int] = []
    while remaining:
        best = min(remaining, key=lambda v: (len(neighbors[v] & remaining), v))
        chosen.append(best)
        remaining -= neighbors[best] | {best}
    codebook = tuple(arrays[v] for v in sorted(chosen))
    return codebook, len(codebook)
