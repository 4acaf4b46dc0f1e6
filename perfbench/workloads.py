"""Benchmark workloads: op types, seeded input pools and per-op correctness gates.

Every op is timed around calls into the library's public functions. An op's
run() makes those calls through a tracer (spans only when tracing), judge()
applies the correctness gate to what run() returned, and side() makes the
traced run's extra calls on the same inputs outside the op span.

The gates check exception base classes only (CrissCrossError, AmbiguityError),
so moving an error between subclasses does not register as a failure.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

from crisscross import (
    AmbiguityError,
    Array2D,
    BurstPattern,
    CrissCrossError,
    DeletionPattern,
    c1_check,
    c1_decode,
    c1_syndromes,
    c2_check,
    c2_decode,
    c2_syndromes,
    c3_check,
    c3_decode,
    c3_syndromes,
    decode_by_codebook,
    default_band_height,
    delete_rows_cols,
    interleave_residue_subarrays,
    sample_good,
    sample_valid,
    sample_weakly_valid,
    verify_codebook,
)
from crisscross.code_c2 import c2_locate_intervals
from crisscross.core_array import burst_deletion_ball_raw, deletion_ball_raw

from inputs import Drawer, digest, plain_cells, workload_rng

FAMILIES = {
    "c1": (c1_syndromes, c1_decode, c1_check),
    "c2": (c2_syndromes, c2_decode, c2_check),
    "c3": (c3_syndromes, c3_decode, c3_check),
}


@dataclass(frozen=True)
class Verdict:
    label: str
    failed: bool
    true_minor: bool = False  # base of ambiguous_share
    ambiguous: bool = False   # true minor of a non-uniform class ending in AmbiguityError
    arbitrary: bool = False


def _label(exc: BaseException) -> str:
    return type(exc).__name__ if isinstance(exc, CrissCrossError) else "unexpected"


def _minor(cells, rows, cols):
    """Own minor extraction (independent of the library): drop 1-based rows/cols."""
    return tuple(
        tuple(v for j, v in enumerate(row, 1) if j not in cols)
        for i, row in enumerate(cells, 1)
        if i not in rows
    )


def _index_sets(size: int, t: int, burst: bool, interval=None):
    """(first index, index set) of every deletion of t of `size` positions,
    restricted to first indices inside the 1-based interval when given."""
    lo, hi = interval or (1, size)
    if burst or t == 1:
        return [(s, set(range(s, s + t))) for s in range(max(1, lo), min(hi, size - t + 1) + 1)]
    return [
        (combo[0], set(combo))
        for combo in itertools.combinations(range(1, size + 1), t)
        if lo <= combo[0] <= hi
    ]


def explains(x: Array2D, y: Array2D, t: int, burst: bool, row_interval=None, col_interval=None) -> bool:
    """True iff deleting t rows and t columns of x, first indices inside the
    intervals, gives y."""
    rows = _index_sets(x.rows, t, burst, row_interval)
    cols = _index_sets(x.cols, t, burst, col_interval)
    return any(
        _minor(x.cells, rs, cs) == y.cells for _, rs in rows for _, cs in cols
    )


def _contains(interval, value) -> bool:
    return interval[0] <= value <= interval[1]


def judge_true_minor(x, truth, result, uniform: bool) -> Verdict:
    """A true minor decodes to x with intervals containing the true first
    deleted row and column (burst start). AmbiguityError is tolerated only on
    a non-uniform class."""
    out, exc = result
    if exc is None:
        ok = (
            out.array == x
            and _contains(out.row_interval, truth[0])
            and _contains(out.col_interval, truth[1])
        )
        return Verdict("ok" if ok else "wrong", failed=not ok, true_minor=True)
    if isinstance(exc, AmbiguityError) and not uniform:
        return Verdict(_label(exc), failed=False, true_minor=True, ambiguous=True)
    return Verdict(_label(exc), failed=True, true_minor=True)


def _call(tracer, site, fn, *args):
    """One library call; an exception is returned for the gate to judge."""
    try:
        return tracer.call(site, fn, *args), None
    except Exception as exc:  # noqa: BLE001 - every exception type is judged by the gate
        return None, exc


# ---------------------------------------------------------------- decode ops


@dataclass(frozen=True)
class DecodeConfig:
    name: str
    family: str
    n: int
    q: int
    uniform: bool     # uniform sums: fast path (c3: residue path with a fast anchor)
    codewords: int    # codewords drawn per build; each gives 3 true and 1 arbitrary minor
    t: int = 1        # burst width (c3 only)

    @property
    def l(self) -> int:
        return default_band_height(self.n // self.t, self.q)

    def draw(self, drawer: Drawer) -> Array2D:
        if self.family == "c1":
            return drawer.good(self.name, self.n, self.q, self.uniform, self._sums_ok)
        if self.family == "c2":
            return drawer.valid(self.name, self.n, self.q, self.l, self.uniform, self._sums_ok)
        return drawer.burst_codeword(self.name, self.n, self.q, self.t, self.l, self.uniform)

    def _sums_ok(self, x: Array2D) -> bool:
        # A plain draw with uniform sums by chance would decode on the fast path.
        uniform = len(set(x.row_sums())) == 1 and len(set(x.col_sums())) == 1
        return uniform == self.uniform

    def syndromes(self, x: Array2D):
        fn = FAMILIES[self.family][0]
        if self.family == "c1":
            return fn(x)
        if self.family == "c2":
            return fn(x, self.l)
        return fn(x, self.t, self.t, self.l)

    @property
    def site(self) -> str:
        base = f"code_{self.family}.{self.family}_decode"
        if self.family == "c3":
            return base
        return base + (".fast" if self.uniform else ".scan")


@dataclass(frozen=True)
class DecodeOp:
    cfg: DecodeConfig
    params: object
    x: Array2D
    y: Array2D
    truth: tuple[int, int] | None  # first deleted row and column; None: arbitrary minor

    @property
    def config(self) -> str:
        return self.cfg.name

    @property
    def site(self) -> str:
        return self.cfg.site

    def key(self):
        return (self.cfg.name, self.x.q, self.x.cells, self.y.cells, self.truth)

    def run(self, tracer):
        return _call(tracer, self.cfg.site, FAMILIES[self.cfg.family][1], self.y, self.params)

    def judge(self, result) -> Verdict:
        if self.truth is not None:
            return judge_true_minor(self.x, self.truth, result, self.cfg.uniform)
        out, exc = result
        if exc is not None:
            return Verdict(_label(exc), failed=not isinstance(exc, CrissCrossError), arbitrary=True)
        check = FAMILIES[self.cfg.family][2]
        ok = check(out.array, self.params) and explains(
            out.array, self.y, self.cfg.t, self.cfg.family == "c3",
            out.row_interval, out.col_interval,
        )
        return Verdict("explained" if ok else "wrong", failed=not ok, arbitrary=True)

    def side(self, result, tracer, counts: Counter) -> None:
        family = self.cfg.family
        tracer.call(f"code_{family}.{family}_check", FAMILIES[family][2], self.x, self.params)
        if family == "c2" and self.cfg.uniform:  # interval location needs uniform sums
            try:
                tracer.call("code_c2.c2_locate_intervals", c2_locate_intervals, self.y, self.params)
            except CrissCrossError:
                pass


def _decode_ops(cfg: DecodeConfig, drawer: Drawer, rng: random.Random) -> list[DecodeOp]:
    ops = []
    n, t, q = cfg.n, cfg.t, cfg.q
    for _ in range(cfg.codewords):
        x = cfg.draw(drawer)
        params = cfg.syndromes(x)
        path_uniform = params.anchor.uniform if cfg.family == "c3" else params.uniform
        if path_uniform != cfg.uniform:
            raise RuntimeError(f"{cfg.name}: drawn class has the wrong sum structure")
        for _ in range(3):
            r, c = rng.randint(1, n - t + 1), rng.randint(1, n - t + 1)
            y = Array2D(_minor(x.cells, set(range(r, r + t)), set(range(c, c + t))), q)
            ops.append(DecodeOp(cfg, params, x, y, (r, c)))
        y = Array2D(plain_cells(rng, n - t, n - t, q), q)
        ops.append(DecodeOp(cfg, params, x, y, None))
    return ops


# ---------------------------------------------------------------- roundtrip ops


@dataclass(frozen=True)
class RoundtripConfig:
    """One simulate_trials-style configuration with uniform sums."""

    name: str
    family: str
    n: int
    q: int
    l: int = 0  # band height (c2, c3)
    t: int = 1  # burst width (c3)

    @property
    def site(self) -> str:
        base = f"code_{self.family}.{self.family}_decode"
        return base if self.family == "c3" else base + ".fast"

    def truth(self, rng: random.Random) -> tuple[int, int]:
        return rng.randint(1, self.n - self.t + 1), rng.randint(1, self.n - self.t + 1)

    def sample(self, rng: random.Random, tracer) -> Array2D:
        n, q, l, t = self.n, self.q, self.l, self.t
        if self.family == "c1":
            return tracer.call("verify.sample_good", sample_good, n, q, rng, uniform_sums=True)
        if self.family == "c2":
            return tracer.call(
                "verify.sample_valid", sample_valid, n, n, q, l, rng, uniform_sums=True
            )
        m = n // t
        parts = [
            [
                tracer.call(
                    "verify.sample_valid", sample_valid, m, m, q, l, rng,
                    uniform_sums=True, rows_distinct=True,
                )
                if (s, u) == (0, 0)
                else tracer.call(
                    "verify.sample_weakly_valid", sample_weakly_valid, m, m, q, l, rng,
                    uniform_sums=True,
                )
                for u in range(t)
            ]
            for s in range(t)
        ]
        return tracer.call(
            "core_array.interleave_residue_subarrays", interleave_residue_subarrays, parts, t, t
        )

    def draw(self, drawer: Drawer) -> Array2D:
        """Generator-built codeword accepted by the predicates the sampler uses."""
        if self.family == "c1":
            return drawer.good(self.name, self.n, self.q, True)
        if self.family == "c2":
            return drawer.valid(self.name, self.n, self.q, self.l, True)
        return drawer.burst_codeword(self.name, self.n, self.q, self.t, self.l, True)

    def transmit(self, x: Array2D, truth, tracer):
        """syndromes -> channel -> decode; returns (outcome, exception)."""
        syndromes, decode, _ = FAMILIES[self.family]
        try:
            if self.family == "c1":
                params = tracer.call("code_c1.c1_syndromes", syndromes, x)
                pattern = DeletionPattern((truth[0],), (truth[1],))
            elif self.family == "c2":
                params = tracer.call("code_c2.c2_syndromes", syndromes, x, self.l)
                pattern = DeletionPattern((truth[0],), (truth[1],))
            else:
                params = tracer.call("code_c3.c3_syndromes", syndromes, x, self.t, self.t, self.l)
                pattern = BurstPattern(truth[0], truth[1], self.t, self.t)
            y = tracer.call("core_array.delete_rows_cols", delete_rows_cols, x, pattern)
        except Exception as exc:  # noqa: BLE001 - judged by the gate
            return None, exc
        return _call(tracer, self.site, decode, y, params)


@dataclass(frozen=True)
class RoundtripOp:
    """One trial: sample, syndromes, delete, decode, compare."""

    cfg: RoundtripConfig
    sampler_seed: int
    truth: tuple[int, int]

    @property
    def config(self) -> str:
        return self.cfg.name

    @property
    def site(self) -> str:
        return self.cfg.site

    def key(self):
        return (self.cfg.name, self.sampler_seed, self.truth)

    def run(self, tracer):
        try:
            x = self.cfg.sample(random.Random(self.sampler_seed), tracer)
        except Exception as exc:  # noqa: BLE001 - judged by the gate
            return None, (None, exc)
        return x, self.cfg.transmit(x, self.truth, tracer)

    def judge(self, result) -> Verdict:
        x, decoded = result
        return judge_true_minor(x, self.truth, decoded, uniform=True)

    def side(self, result, tracer, counts: Counter) -> None:
        pass


@dataclass(frozen=True)
class TransmitOp:
    """Warm-up: the decode side of a trial on a generator-built codeword.

    The sampler is left out because its cost per call is a random variable."""

    cfg: RoundtripConfig
    x: Array2D
    truth: tuple[int, int]

    def key(self):
        return (self.cfg.name, self.x.q, self.x.cells, self.truth)

    def run(self, tracer):
        return self.cfg.transmit(self.x, self.truth, tracer)

    def judge(self, result) -> Verdict:
        return judge_true_minor(self.x, self.truth, result, uniform=True)


# ---------------------------------------------------------------- verify ops


_BALLS = {
    "plain": ("core_array.deletion_ball_raw", deletion_ball_raw),
    "burst": ("core_array.burst_deletion_ball_raw", burst_deletion_ball_raw),
}


@dataclass(frozen=True)
class CertifyOp:
    """verify_codebook on a fixed book; `planted` pairs are known to share a minor."""

    config: str
    book: tuple[Array2D, ...]
    t: int
    mode: str
    planted: frozenset = field(default_factory=frozenset)
    site = "verify.verify_codebook"

    def key(self):
        return (self.config, self.mode, self.t, tuple(x.cells for x in self.book), sorted(self.planted))

    def run(self, tracer):
        return _call(tracer, self.site, verify_codebook, self.book, self.t, self.t, self.mode)

    def judge(self, result) -> Verdict:
        report, exc = result
        if exc is not None:
            return Verdict(_label(exc), failed=True)
        k = len(self.book)
        burst = self.mode == "burst"
        pairs = {pair for pair, _ in report.violations}
        ok = (
            report.checked_pairs == k * (k - 1) // 2
            and report.verdict == (not report.violations)
            and self.planted <= pairs
            and all(
                explains(self.book[i], w, self.t, burst) and explains(self.book[j], w, self.t, burst)
                for (i, j), w in report.violations
            )
        )
        return Verdict("ok" if ok else "wrong", failed=not ok)

    def side(self, result, tracer, counts: Counter) -> None:
        report, _ = result
        if report is not None:
            counts["verify.pairs_checked"] += report.checked_pairs
            counts["verify.violations"] += len(report.violations)
        site, ball = _BALLS[self.mode]
        for x in self.book:
            counts["core_array.ball_minors"] += len(tracer.call(site, ball, x, self.t, self.t))


@dataclass(frozen=True)
class OracleOp:
    """decode_by_codebook of a member's minor (member set) or an arbitrary minor."""

    config: str
    book: tuple[Array2D, ...]
    t: int
    y: Array2D
    member: int | None
    truth: tuple[int, int] | None
    site = "verify.decode_by_codebook"

    def key(self):
        return (self.config, self.t, self.y.cells, self.member, self.truth)

    def run(self, tracer):
        return _call(tracer, self.site, decode_by_codebook, self.y, self.book, self.t, self.t)

    def judge(self, result) -> Verdict:
        out, exc = result
        if self.member is not None:
            verdict = judge_true_minor(self.book[self.member], self.truth, result, uniform=True)
            if verdict.failed or explains(out.array, self.y, self.t, False):
                return verdict
            return Verdict("wrong", failed=True, true_minor=True)
        if exc is not None:
            return Verdict(_label(exc), failed=not isinstance(exc, CrissCrossError), arbitrary=True)
        ok = out.array in self.book and explains(out.array, self.y, self.t, False)
        return Verdict("explained" if ok else "wrong", failed=not ok, arbitrary=True)

    def side(self, result, tracer, counts: Counter) -> None:
        pass


# ---------------------------------------------------------------- workloads


@dataclass
class Pool:
    """Generated inputs: timed ops (cycled), untimed warm-up ops, metadata."""

    ops: list
    warm: list
    meta: dict
    digest: str = ""

    def __post_init__(self):
        self.digest = digest(op.key() for op in self.warm + self.ops)


# Trial cost is dominated by rejection sampling, whose draw count per trial is
# geometric, so op times are heavy-tailed and a run's quantiles settle only with
# many trials. c2 (the re-anchor profile's band rejection, ~60 ms a trial)
# runs once per cycle of ten and takes about a third of the time; c1 n=8 and
# c3 n=12 q=3 (~13 ms each) fill the rest, giving ~1700 trials in a 30 s run.
# See README.md for the spread measured with c1 n=16 and c3 q=2 instead.
ROUNDTRIP_C1 = RoundtripConfig("c1-n8-q2", "c1", 8, 2)
ROUNDTRIP_C2 = RoundtripConfig("c2-n12-q2-l4", "c2", 12, 2, l=4)
ROUNDTRIP_C3 = RoundtripConfig("c3-n12-q3-b2x2", "c3", 12, 3, l=default_band_height(6, 3), t=2)
ROUNDTRIP_CYCLE = (ROUNDTRIP_C1, ROUNDTRIP_C3) * 4 + (ROUNDTRIP_C1, ROUNDTRIP_C2)
ROUNDTRIP_SCHEDULE = 2500  # trials per build; cycled if a run gets further

# Each workload runs a ladder of sizes so that its op times spread smoothly
# over a factor of four or more. This machine class changes speed by up to
# 1.4x over seconds; a tight cluster of op times then splits in two and its
# median jumps between the halves from run to run, while a wide, smooth spread
# only shifts. Three sizes per family, interleaved round-robin.
FAST_CONFIGS = (
    *(DecodeConfig(f"c1-n{n}-q4", "c1", n, 4, uniform=True, codewords=6) for n in (40, 56, 72)),
    *(DecodeConfig(f"c2-n{n}-q2", "c2", n, 2, uniform=True, codewords=6) for n in (20, 28, 36)),
    *(
        DecodeConfig(f"c3-n{n}-q3-b2x2", "c3", n, 3, uniform=True, codewords=6, t=2)
        for n in (16, 24, 32)
    ),
)
SCAN_CONFIGS = (
    *(DecodeConfig(f"c1-n{n}-q2", "c1", n, 2, uniform=False, codewords=4) for n in (24, 28, 32)),
    *(DecodeConfig(f"c2-n{n}-q2", "c2", n, 2, uniform=False, codewords=4) for n in (16, 20, 24)),
)


def _interleave(lists: list[list]) -> list:
    """Round-robin over per-config op lists, in proportion to their lengths."""
    shortest = min(len(ops) for ops in lists)
    out = []
    for i in range(shortest):
        for ops in lists:
            share = len(ops) // shortest
            out.extend(ops[i * share:(i + 1) * share])
    return out


def build_roundtrip(seed: int) -> Pool:
    rng = workload_rng("roundtrip", seed)
    drawer = Drawer(workload_rng("roundtrip", seed, "warm-up"))
    configs = (ROUNDTRIP_C1, ROUNDTRIP_C2, ROUNDTRIP_C3)
    warm = [TransmitOp(cfg, cfg.draw(drawer), cfg.truth(rng)) for cfg in configs]
    ops = []
    for i in range(ROUNDTRIP_SCHEDULE):
        cfg = ROUNDTRIP_CYCLE[i % len(ROUNDTRIP_CYCLE)]
        ops.append(RoundtripOp(cfg, rng.getrandbits(64), cfg.truth(rng)))
    return Pool(ops, warm, {"warm_up_draws": drawer.summary()})


def _build_decode(name: str, configs, seed: int) -> Pool:
    drawer = Drawer(workload_rng(name, seed, "codewords"))
    rng = workload_rng(name, seed, "channel")
    lists = [_decode_ops(cfg, drawer, rng) for cfg in configs]
    return Pool(_interleave(lists), [ops[0] for ops in lists], {"draws": drawer.summary()})


def build_decode_fast(seed: int) -> Pool:
    return _build_decode("decode-fast", FAST_CONFIGS, seed)


def build_decode_scan(seed: int) -> Pool:
    return _build_decode("decode-scan", SCAN_CONFIGS, seed)


def _twin(rng: random.Random, x: Array2D) -> Array2D:
    """x with one row and one column redrawn: the two share a (1,1) minor."""
    i, j = rng.randrange(x.rows), rng.randrange(x.cols)
    cells = [list(row) for row in x.cells]
    cells[i] = [rng.randrange(x.q) for _ in range(x.cols)]
    for row in cells:
        row[j] = rng.randrange(x.q)
    return Array2D(cells, x.q)


def build_verify_balls(seed: int) -> Pool:
    rng = workload_rng("verify-balls", seed)
    drawer = Drawer(rng)
    # Books of several sizes (prefixes of one draw) spread op times over 0.1-0.45 s.
    good8 = tuple(drawer.good("good-8x8-q2", 8, 2, False) for _ in range(40))
    good12 = tuple(drawer.good("good-12x12-q2", 12, 2, False) for _ in range(80))
    base = [Array2D(plain_cells(rng, 6, 6, 2), 2) for _ in range(32)]
    plain11 = tuple(base + [_twin(rng, base[k]) for k in range(8)])
    planted = frozenset((k, 32 + k) for k in range(8))

    plain = [CertifyOp(f"plain22-k{k}", good8[:k], 2, "plain") for k in (16, 24, 32, 40)]
    burst = [CertifyOp(f"burst22-k{k}", good12[:k], 2, "burst") for k in (40, 60, 80)]
    certify = [op for pair in zip(plain, burst + [CertifyOp("plain11", plain11, 1, "plain", planted)])
               for op in pair]
    # Eight oracle queries over the plain books, 3 member minors to 1 arbitrary.
    queries = []
    for i, k in enumerate((16, 24, 32, 40) * 2):
        book = good8[:k]
        if i in (3, 5):
            y = Array2D(plain_cells(rng, 6, 6, 2), 2)
            queries.append(OracleOp(f"oracle-k{k}", book, 2, y, None, None))
            continue
        member = rng.randrange(k)
        rows = sorted(rng.sample(range(1, 9), 2))
        cols = sorted(rng.sample(range(1, 9), 2))
        y = Array2D(_minor(book[member].cells, set(rows), set(cols)), 2)
        queries.append(OracleOp(f"oracle-k{k}", book, 2, y, member, (rows[0], cols[0])))
    ops = [op for pair in zip(certify, queries) for op in pair]
    return Pool(ops, [certify[-1]], {"draws": drawer.summary()})


WORKLOADS = {
    "roundtrip": build_roundtrip,
    "decode-fast": build_decode_fast,
    "decode-scan": build_decode_scan,
    "verify-balls": build_verify_balls,
}

# Call sites reported per layer: samplers, decoders, calls timed beside the op
# (interval location, membership checks), syndromes and channel, balls,
# certification and oracle decoding.
SITES = (
    "verify.sample_good",
    "verify.sample_valid",
    "verify.sample_weakly_valid",
    "code_c1.c1_decode.fast",
    "code_c2.c2_decode.fast",
    "code_c3.c3_decode",
    "code_c1.c1_decode.scan",
    "code_c2.c2_decode.scan",
    "code_c2.c2_locate_intervals",
    "code_c1.c1_check",
    "code_c2.c2_check",
    "code_c3.c3_check",
    "code_c1.c1_syndromes",
    "code_c2.c2_syndromes",
    "code_c3.c3_syndromes",
    "core_array.delete_rows_cols",
    "core_array.interleave_residue_subarrays",
    "core_array.deletion_ball_raw",
    "core_array.burst_deletion_ball_raw",
    "verify.verify_codebook",
    "verify.decode_by_codebook",
)
