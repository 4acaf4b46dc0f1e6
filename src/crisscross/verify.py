"""Ground-truth machinery: exhaustive disjointness certification, duality
checks, codebook-oracle decoding, samplers, and the reproducible trial harness.

Everything here is deterministic given its seed. Per-trial sub-seeds are
derived from the master seed by hashing "master:index" with SHA-256 and taking
the first eight bytes, so any failure can be replayed from (seed, index)
without rerunning earlier trials.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from .code_c1 import c1_syndromes
from .code_c2 import c2_syndromes, default_band_height
from .code_c3 import c3_syndromes
from .core_array import (
    Array2D,
    BurstPattern,
    DeletionPattern,
    burst_deletion_ball_raw,
    delete_rows_cols,
    deletion_ball_raw,
    insertion_ball_raw,
    interleave_residue_subarrays,
    require_shape,
    transpose,
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
from .reprs import ccr, is_good, is_l_weakly_valid, rows_are_distinct

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


def _ball_fn(mode: str):
    if mode == "plain":
        return deletion_ball_raw
    if mode == "burst":
        return burst_deletion_ball_raw
    raise InvalidParameterError(f"unknown mode {mode!r}, expected plain or burst")


def verify_codebook(arrays, t_r: int, t_c: int, mode: str = "plain") -> VerificationReport:
    """Certify pairwise disjointness of (burst) deletion balls.

    Reports every violating pair together with one shared minor as a witness.
    The verdict is symmetric in the input order; only violation indices move.
    """
    ball = _ball_fn(mode)
    arrays = list(arrays)
    if len(arrays) ** 2 > PAIR_CAP:
        raise CapacityError(f"{len(arrays)} codewords make too many pairs to check")
    if arrays:
        _require_uniform_book(arrays)
    balls = [ball(x, t_r, t_c) for x in arrays]
    violations = []
    checked = 0
    for i, j in itertools.combinations(range(len(arrays)), 2):
        checked += 1
        shared = balls[i] & balls[j]
        if shared:
            violations.append(((i, j), Array2D(min(shared), arrays[i].q)))
    return VerificationReport(
        checked_pairs=checked,
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
    ball = burst_deletion_ball_raw if burst else deletion_ball_raw
    del_disjoint = not (ball(x, t_r, t_c) & ball(z, t_r, t_c))
    ins_disjoint = not (
        insertion_ball_raw(x, t_r, t_c, burst) & insertion_ball_raw(z, t_r, t_c, burst)
    )
    return del_disjoint == ins_disjoint


def decode_by_codebook(
    y: Array2D, arrays, t_r: int, t_c: int, mode: str = "plain"
) -> DecodeOutcome:
    """Oracle decoder: the unique codeword whose ball contains y.

    Intervals bracket the first deleted row/column index over all patterns
    mapping the codeword to y (burst mode: over all window starts), matching
    the construction decoders' convention.
    """
    ball = _ball_fn(mode)
    arrays = list(arrays)
    rows, cols, q = _require_uniform_book(arrays)
    require_shape(y, rows - t_r, cols - t_c, q, f"({t_r}, {t_c}) deletions from the codebook")
    hits: list[Array2D] = []
    for x in arrays:
        if y.cells in ball(x, t_r, t_c) and all(x != seen for seen in hits):
            hits.append(x)
    if not hits:
        raise NotACodewordError("no codeword's ball contains the input")
    if len(hits) > 1:
        raise AmbiguityError(f"{len(hits)} codewords explain the input")
    x = hits[0]

    row_firsts = []
    col_firsts = []
    if mode == "burst":
        patterns = (
            BurstPattern(r0, c0, t_r, t_c)
            for r0 in range(1, rows - t_r + 2)
            for c0 in range(1, cols - t_c + 2)
        )
    else:
        patterns = (
            DeletionPattern(rr, cc)
            for rr in itertools.combinations(range(1, rows + 1), t_r)
            for cc in itertools.combinations(range(1, cols + 1), t_c)
        )
    for pattern in patterns:
        if delete_rows_cols(x, pattern) == y:
            row_firsts.append(pattern.rows()[0] if mode == "burst" else pattern.rows[0])
            col_firsts.append(pattern.cols()[0] if mode == "burst" else pattern.cols[0])
    return DecodeOutcome(
        array=x,
        row_interval=(min(row_firsts), max(row_firsts)),
        col_interval=(min(col_firsts), max(col_firsts)),
        path="codebook",
    )


def _subseed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sum_classes(rows: int, cols: int, q: int) -> list[tuple[int, int]]:
    return [
        (r, c)
        for r in range(q)
        for c in range(q)
        if (rows * r - cols * c) % q == 0
    ]


def _sum_class_cells(rows: int, cols: int, q: int, r: int, c: int, v: int):
    """The member of sum class (r, c) whose free (rows-1) x (cols-1) block has
    base-q value v, in [0, q**((rows-1)*(cols-1))).

    Digits fill the block row-major, least significant first. The last column
    is forced by the row sums, then the last row and the corner by the column
    sums; (r, c) must come from _sum_classes, so the last row also sums to r.
    Every class therefore has exactly q**((rows-1)*(cols-1)) members, one per v.
    """
    width = cols - 1
    base = q**width
    body = []
    for _ in range(rows - 1):
        v, chunk = divmod(v, base)
        row = []
        for _ in range(width):
            chunk, d = divmod(chunk, q)
            row.append(d)
        row.append((r - sum(row)) % q)
        body.append(tuple(row))
    body.append(tuple((c - sum(col)) % q for col in zip(*body)))
    return tuple(body)


def _uniform_sum_cells(rng: random.Random, rows: int, cols: int, q: int, classes=None):
    """An exactly uniform draw over the rows x cols arrays with constant row
    sums and constant column sums (mod q): a uniform class from classes
    (default _sum_classes), then a uniform member of it. All classes have
    equal size, so the two steps compose to the uniform distribution."""
    if classes is None:
        classes = _sum_classes(rows, cols, q)
    r, c = rng.choice(classes)
    v = rng.randrange(q ** ((rows - 1) * (cols - 1)))
    return _sum_class_cells(rows, cols, q, r, c, v)


def _rejection_sample(
    rng: random.Random,
    rows: int,
    cols: int,
    q: int,
    checks,
    budget: int,
    uniform_sums: bool,
    what: str,
) -> Array2D:
    """Draw uniform arrays (all arrays of the shape, or with uniform_sums the
    constant-sum ones) until every check passes, so the result is uniform over
    the arrays that pass."""
    if uniform_sums and (rows < 2 or cols < 2):
        raise InvalidParameterError("uniform-sum sampling needs at least a 2x2 shape")
    classes = _sum_classes(rows, cols, q) if uniform_sums else None
    rejections: Counter[str] = Counter()
    for _ in range(budget):
        if uniform_sums:
            cells = _uniform_sum_cells(rng, rows, cols, q, classes)
        else:
            cells = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        x = Array2D(cells, q)
        for name, pred in checks:
            if not pred(x):
                rejections[name] += 1
                break
        else:
            return x
    detail = ", ".join(f"{name}: {count}" for name, count in rejections.most_common())
    raise SamplingError(
        f"budget {budget} exhausted sampling {what} ({rows}x{cols}, q={q}); "
        f"rejections by first failing predicate: {detail or 'none recorded'}"
    )


def _no_triple(comps) -> bool:
    # Validity forbids runs of three, not three occurrences anywhere.
    return all(a != b or b != c for a, b, c in zip(comps, comps[1:], comps[2:]))


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
    """
    return _rejection_sample(
        rng, n, n, q,
        [("adjacent column compositions equal", is_good)],
        budget, uniform_sums, "a good array",
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
    return _rejection_sample(
        rng, rows, cols, q,
        [("band adjacency", lambda x: is_l_weakly_valid(x, l))],
        budget, uniform_sums, "a weakly band-valid array",
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
    arrays). The predicates are checked in order so the sampling diagnostics
    name the dominant rejection cause.
    """
    checks = [
        ("band adjacency", lambda x: is_l_weakly_valid(x, l)),
        ("column composition run of three", lambda x: _no_triple(ccr(x))),
        ("row composition run of three", lambda x: _no_triple(ccr(transpose(x)))),
    ]
    if rows_distinct:
        checks.append(("equal consecutive rows", rows_are_distinct))
    return _rejection_sample(
        rng, rows, cols, q, checks, budget, uniform_sums, "a band-valid array"
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
        if self.trials < 0 or self.n < 2 or self.q < 2 or self.budget < 1:
            raise InvalidParameterError("need trials >= 0, n >= 2, q >= 2, budget >= 1")
        burst = CONSTRUCTIONS[self.construction].burst
        if not burst and (self.t_r, self.t_c) != (1, 1):
            raise InvalidParameterError(
                "single-deletion constructions require t_r = t_c = 1"
            )
        if burst and not self.burst:
            raise InvalidParameterError("the residue construction corrects bursts only")
        if burst and (self.n % self.t_r or self.n % self.t_c):
            raise InvalidParameterError("burst lengths must divide n")

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
        if cfg.burst:  # burst constructions refuse configs without it
            r0 = rng.randint(1, cfg.n - cfg.t_r + 1)
            c0 = rng.randint(1, cfg.n - cfg.t_c + 1)
            pattern = BurstPattern(r0, c0, cfg.t_r, cfg.t_c)
            rows, cols = pattern.rows(), pattern.cols()
            row_truth, col_truth = r0, c0
        else:
            rows = tuple(sorted(rng.sample(range(1, cfg.n + 1), cfg.t_r)))
            cols = tuple(sorted(rng.sample(range(1, cfg.n + 1), cfg.t_c)))
            pattern = DeletionPattern(rows, cols)
            row_truth, col_truth = rows[0], cols[0]
        y = delete_rows_cols(x, pattern)

        start = time.perf_counter()
        try:
            out = decode(y, params)
            ok = (
                out.array == x
                and out.row_interval[0] <= row_truth <= out.row_interval[1]
                and out.col_interval[0] <= col_truth <= out.col_interval[1]
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
