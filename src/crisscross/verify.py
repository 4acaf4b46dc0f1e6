"""Ground-truth machinery: exhaustive disjointness certification, duality
checks, codebook-oracle decoding, and the reproducible trial harness.

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
from dataclasses import dataclass, field, fields

from .code_c2 import default_band_height
from .code_c3 import check_burst_lengths
from .core_array import (
    Array2D,
    delete_rows_cols,
    deletion_brackets,
    insertion_ball_raw,
    packed_deletion_ball,
    random_pattern,
    require_shape,
    unpack_minor,
)
from .errors import CapacityError, CrissCrossError, InvalidParameterError
from .outcome import DecodeOutcome
from .params_io import CONSTRUCTIONS
from .sample import DEFAULT_TRIAL_BUDGET
from .scan import scan_verdict

PAIR_CAP = 1 << 26
# The TrialConfig fields that only some families read (Construction.settings).
FAMILY_SETTINGS = frozenset({"t_r", "t_c", "l", "rows_distinct"})


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
    found = {x: deletion_brackets(x, y, t_r, t_c, burst) for x in dict.fromkeys(arrays)}
    # zip turns a hit's brackets into its corners, whose min and max give them back
    return scan_verdict({x: list(zip(*b)) for x, b in found.items() if b}, "codebook")


def _subseed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


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
        construction = CONSTRUCTIONS[self.construction]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in FAMILY_SETTINGS - construction.settings and value != f.default:
                raise InvalidParameterError(
                    f"the {self.construction} construction does not take {f.name}={value!r}"
                )
        if construction.burst and not self.burst:
            raise InvalidParameterError("the residue construction corrects bursts only")
        if construction.burst:
            check_burst_lengths(self.n, self.t_r, self.t_c)

    @property
    def band_height(self) -> int:
        if self.l is not None:
            return self.l
        return default_band_height(self.n // self.t_r, self.q)


def simulate_trials(cfg: TrialConfig) -> TrialStats:
    """Sample, corrupt, decode, compare; fully deterministic given cfg.seed.

    A trial succeeds when the decoder returns the sampled array and its
    reported intervals contain the true deletion position (burst: the true
    window start). Failures carry the sub-seed and pattern for replay.
    """
    construction = CONSTRUCTIONS[cfg.construction]
    successes = 0
    failures = []
    total_time = 0.0
    for index in range(cfg.trials):
        rng = random.Random(_subseed(cfg.seed, index))
        x, params = construction.sample(
            cfg.n, cfg.q, rng, t_r=cfg.t_r, t_c=cfg.t_c, l=cfg.band_height,
            uniform_sums=cfg.uniform_sums, rows_distinct=cfg.rows_distinct, budget=cfg.budget,
        )
        # burst constructions refuse configs without cfg.burst
        pattern = random_pattern(rng, cfg.n, cfg.n, cfg.t_r, cfg.t_c, cfg.burst)
        if cfg.burst:
            rows, cols = pattern.rows(), pattern.cols()
        else:
            rows, cols = pattern.rows, pattern.cols
        y = delete_rows_cols(x, pattern)

        start = time.perf_counter()
        try:
            out = construction.decode(y, params)
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
