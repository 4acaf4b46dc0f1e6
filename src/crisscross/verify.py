"""Ground-truth machinery: exhaustive disjointness certification, duality
checks, codebook-oracle decoding, samplers, and the reproducible trial harness.

Everything here is deterministic given its seed. Per-trial sub-seeds are
derived from the master seed by hashing "master:index" with SHA-256 and taking
the first eight bytes, so any failure can be replayed from (seed, index)
without rerunning earlier trials.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from .bounds import DEFAULT_STATE_CAP, good_chains
from .code_c1 import c1_syndromes
from .code_c2 import c2_syndromes, default_band_height
from .code_c3 import c3_syndromes, check_burst_lengths
from .core_array import (
    Array2D,
    delete_rows_cols,
    deletion_brackets,
    insertion_ball_raw,
    interleave_residue_subarrays,
    packed_deletion_ball,
    random_pattern,
    require_shape,
    unpack_minor,
)
from .errors import (
    AmbiguityError,
    CapacityError,
    CrissCrossError,
    InvalidParameterError,
    NotACodewordError,
    SamplingError,
)
from .outcome import DecodeOutcome
from .params_io import CONSTRUCTIONS
from .reprs import (
    check_band_height,
    no_triple_runs,
    rcr,
    rows_are_distinct,
)

DEFAULT_TRIAL_BUDGET = 10**6
PAIR_CAP = 1 << 26


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a pairwise ball-disjointness certification."""

    checked_pairs: int
    violations: tuple[tuple[tuple[int, int], Array2D], ...]
    verdict: bool

    def __post_init__(self) -> None:
        if self.verdict != (len(self.violations) == 0):
            raise InvalidParameterError("verdict must mirror the violations list")

    def to_lines(self) -> list[str]:
        lines = [
            f"pairs checked: {self.checked_pairs}",
            f"violations: {len(self.violations)}",
            f"verdict: {'pass' if self.verdict else 'fail'}",
        ]
        for (i, j), minor in self.violations:
            lines.append(f"  codewords {i} and {j} share minor {minor.cells}")
        return lines


@dataclass(frozen=True)
class TrialStats:
    """Aggregate of a simulation run.

    failures holds (sub_seed, (deleted_rows, deleted_cols)) per failed trial,
    in trial order. mean_decode_time is informational only: it is excluded
    from equality so that reruns with one seed compare identical, and it never
    appears in the canonical report text.
    """

    trials: int
    successes: int
    failures: tuple[tuple[int, tuple[tuple[int, ...], tuple[int, ...]]], ...]
    mean_decode_time: float = field(compare=False, default=0.0)

    def __post_init__(self) -> None:
        if self.successes + len(self.failures) != self.trials:
            raise InvalidParameterError("successes plus failures must equal trials")

    def to_lines(self) -> list[str]:
        lines = [
            f"trials: {self.trials}",
            f"successes: {self.successes}",
            f"failures: {len(self.failures)}",
        ]
        for sub_seed, (rows, cols) in self.failures:
            lines.append(f"  seed {sub_seed}: rows {rows} cols {cols}")
        return lines


def _require_uniform_book(arrays) -> tuple[int, int, int]:
    if not arrays:
        raise InvalidParameterError("empty codebook")
    first = arrays[0]
    for x in arrays:
        if (x.rows, x.cols, x.q) != (first.rows, first.cols, first.q):
            raise InvalidParameterError("codebook arrays must share shape and alphabet")
    return first.rows, first.cols, first.q


def _is_burst(mode: str) -> bool:
    if mode not in ("plain", "burst"):
        raise InvalidParameterError(f"unknown mode {mode!r}, expected plain or burst")
    return mode == "burst"


def verify_codebook(arrays, t_r: int, t_c: int, mode: str = "plain") -> VerificationReport:
    """Certify pairwise disjointness of (burst) deletion balls.

    Reports every violating pair together with one shared minor as a witness.
    The verdict is symmetric in the input order; only violation indices move.
    """
    burst = _is_burst(mode)
    arrays = list(arrays)
    if len(arrays) ** 2 > PAIR_CAP:
        raise CapacityError(f"{len(arrays)} codewords make too many pairs to check")
    if arrays:
        _require_uniform_book(arrays)
    balls = [packed_deletion_ball(x, t_r, t_c, burst) for x in arrays]
    # A pair shares only minors lying in two or more balls, so the pairs are
    # intersected on those alone, and only for balls that hold any.
    seen: set = set()
    common: set = set()
    for b in balls:
        common |= seen & b
        seen |= b
    owners = [(i, b & common) for i, b in enumerate(balls) if not common.isdisjoint(b)]
    violations = []
    for (i, mine), (j, theirs) in itertools.combinations(owners, 2):
        shared = mine & theirs
        if shared:
            witness = unpack_minor(min(shared), arrays[i].cols - t_c, arrays[i].q)
            violations.append(((i, j), witness))
    return VerificationReport(
        checked_pairs=len(arrays) * (len(arrays) - 1) // 2,
        violations=tuple(violations),
        verdict=not violations,
    )


def duality_check(x: Array2D, z: Array2D, t, burst: bool = False) -> bool:
    """Truth of: deletion balls disjoint if and only if insertion balls disjoint.

    t may be one count for both axes or a (t_r, t_c) pair. Expected to hold
    for every pair of equal-shape arrays; returning False would witness a
    breakdown of the insertion/deletion equivalence.
    """
    t_r, t_c = (t, t) if isinstance(t, int) else t
    if (x.rows, x.cols, x.q) != (z.rows, z.cols, z.q):
        raise InvalidParameterError("duality check needs equal shapes and alphabets")
    del_x = packed_deletion_ball(x, t_r, t_c, burst)
    del_disjoint = del_x.isdisjoint(packed_deletion_ball(z, t_r, t_c, burst))
    ins_x = insertion_ball_raw(x, t_r, t_c, burst)
    ins_disjoint = ins_x.isdisjoint(insertion_ball_raw(z, t_r, t_c, burst))
    return del_disjoint == ins_disjoint


def decode_by_codebook(
    y: Array2D, arrays, t_r: int, t_c: int, mode: str = "plain"
) -> DecodeOutcome:
    """Oracle decoder: the unique codeword whose ball contains y.

    Membership is tested without building any ball (see
    core_array.deletion_brackets). Intervals bracket the first deleted
    row/column index over all patterns mapping the codeword to y (burst mode:
    over all window starts), matching the construction decoders' convention.
    """
    burst = _is_burst(mode)
    arrays = list(arrays)
    rows, cols, q = _require_uniform_book(arrays)
    require_shape(y, rows - t_r, cols - t_c, q, f"({t_r}, {t_c}) deletions from the codebook")
    brackets = {}
    for x in arrays:
        if x not in brackets:
            brackets[x] = deletion_brackets(x, y, t_r, t_c, burst)
    hits = [x for x, found in brackets.items() if found]
    if not hits:
        raise NotACodewordError("no codeword's ball contains the input")
    if len(hits) > 1:
        raise AmbiguityError(f"{len(hits)} codewords explain the input")
    x = hits[0]
    row_interval, col_interval = brackets[x]
    return DecodeOutcome(
        array=x, row_interval=row_interval, col_interval=col_interval, path="codebook"
    )


def _subseed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


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


@dataclass(frozen=True)
class TrialConfig:
    """Settings for one simulate_trials run. l of None picks the default
    band height for the construction's subarray shape."""

    construction: str
    n: int
    q: int
    t_r: int = 1
    t_c: int = 1
    l: int | None = None
    trials: int = 100
    seed: int = 0
    burst: bool = False
    uniform_sums: bool = False
    rows_distinct: bool = False
    budget: int = DEFAULT_TRIAL_BUDGET

    def __post_init__(self) -> None:
        if self.construction not in CONSTRUCTIONS:
            raise InvalidParameterError(
                f"construction must be one of {tuple(CONSTRUCTIONS)}, got {self.construction!r}"
            )
        if self.trials < 0 or self.n < 2 or self.q < 2 or min(self.t_r, self.t_c, self.budget) < 1:
            raise InvalidParameterError("need trials >= 0, n >= 2, q >= 2, t_r, t_c, budget >= 1")
        burst = CONSTRUCTIONS[self.construction].burst
        if not burst and (self.t_r, self.t_c) != (1, 1):
            raise InvalidParameterError(
                "single-deletion constructions require t_r = t_c = 1"
            )
        if burst and not self.burst:
            raise InvalidParameterError("the residue construction corrects bursts only")
        if burst:
            check_burst_lengths(self.n, self.t_r, self.t_c)

    @property
    def band_height(self) -> int:
        if self.l is not None:
            return self.l
        return default_band_height(self.n // self.t_r, self.q)


def _draw(cfg: TrialConfig, rng: random.Random):
    """A sampled codeword for cfg and the parameters of its class."""
    l = cfg.band_height
    if cfg.construction == "c1":
        x = sample_good(cfg.n, cfg.q, rng, cfg.budget, cfg.uniform_sums)
        return x, c1_syndromes(x)
    if cfg.construction == "c2":
        x = sample_valid(
            cfg.n, cfg.n, cfg.q, l, rng, cfg.budget, cfg.uniform_sums, cfg.rows_distinct
        )
        return x, c2_syndromes(x, l, cfg.rows_distinct)
    m_r, m_c = cfg.n // cfg.t_r, cfg.n // cfg.t_c
    parts = []
    for s in range(cfg.t_r):
        row = []
        for u in range(cfg.t_c):
            if (s, u) == (0, 0):
                row.append(
                    sample_valid(
                        m_r, m_c, cfg.q, l, rng, cfg.budget, cfg.uniform_sums,
                        rows_distinct=True,
                    )
                )
            else:
                row.append(
                    sample_weakly_valid(
                        m_r, m_c, cfg.q, l, rng, cfg.budget, cfg.uniform_sums
                    )
                )
        parts.append(row)
    x = interleave_residue_subarrays(parts, cfg.t_r, cfg.t_c)
    return x, c3_syndromes(x, cfg.t_r, cfg.t_c, l)


def simulate_trials(cfg: TrialConfig) -> TrialStats:
    """Sample, corrupt, decode, compare; fully deterministic given cfg.seed.

    A trial succeeds when the decoder returns the sampled array and its
    reported intervals contain the true deletion position (burst: the true
    window start). Failures carry the sub-seed and pattern for replay.
    """
    decode = CONSTRUCTIONS[cfg.construction].decode
    successes = 0
    failures = []
    total_time = 0.0
    for index in range(cfg.trials):
        rng = random.Random(_subseed(cfg.seed, index))
        x, params = _draw(cfg, rng)
        # burst constructions refuse configs without cfg.burst
        pattern = random_pattern(rng, cfg.n, cfg.n, cfg.t_r, cfg.t_c, cfg.burst)
        if cfg.burst:
            rows, cols = pattern.rows(), pattern.cols()
        else:
            rows, cols = pattern.rows, pattern.cols
        y = delete_rows_cols(x, pattern)

        start = time.perf_counter()
        try:
            out = decode(y, params)
            ok = (
                out.array == x
                and out.row_interval[0] <= rows[0] <= out.row_interval[1]
                and out.col_interval[0] <= cols[0] <= out.col_interval[1]
            )
        except CrissCrossError:
            ok = False
        total_time += time.perf_counter() - start

        if ok:
            successes += 1
        else:
            failures.append((_subseed(cfg.seed, index), (rows, cols)))
    mean = total_time / cfg.trials if cfg.trials else 0.0
    return TrialStats(
        trials=cfg.trials,
        successes=successes,
        failures=tuple(failures),
        mean_decode_time=mean,
    )
