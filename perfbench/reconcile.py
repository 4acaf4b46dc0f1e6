"""Re-measure the ROADMAP's re-anchor baseline table with the benchmark's inputs.

    python3 perfbench/reconcile.py

Codewords come from the benchmark's seeded generator (inputs.py); each case
reports the best and the median of its timed calls, in the units of the
ROADMAP table. Prints a markdown table. Takes about a minute, most of it
drawing the n=64 uniform-sum good array.
"""
from __future__ import annotations

import random
import statistics
import sys
from time import perf_counter

import run

run.import_library()

from crisscross import (  # noqa: E402
    AmbiguityError,
    DeletionPattern,
    c1_decode,
    c1_syndromes,
    delete_rows_cols,
    sample_good,
)

from inputs import Drawer, workload_rng  # noqa: E402
from workloads import DecodeConfig  # noqa: E402

SEED = 0
REPS = 5  # timed calls per case
ROADMAP = {
    ("c1 fast decode", 8): "0.10 ms", ("c1 fast decode", 16): "0.25 ms",
    ("c1 fast decode", 32): "1.44 ms", ("c1 fast decode", 64): "2.60 ms",
    ("c1 scan decode", 8): "1.0 ms", ("c1 scan decode", 16): "6.0 ms",
    ("c1 scan decode", 32): "70 ms",
    ("sample_good uniform", 16): "0.05 s", ("sample_good uniform", 32): "0.15 s",
}


def _time(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def decode_times(n: int, uniform: bool, seed: int, reps: int) -> list[float]:
    """c1_decode of `reps` true minors (random single deletions) of one codeword.

    A uniform-sum good array at n=64, q=2 takes ~10^4 draws, so one codeword
    serves all reps. A scan that ends in AmbiguityError has done the full scan
    and is timed like any other.
    """
    cfg = DecodeConfig(f"c1-n{n}", "c1", n, 2, uniform, 1)
    x = cfg.draw(Drawer(workload_rng("reconcile", seed, cfg.name)))
    params = c1_syndromes(x)
    rng = random.Random(seed)
    times = []
    for _ in range(reps + 1):
        y = delete_rows_cols(x, DeletionPattern((rng.randint(1, n),), (rng.randint(1, n),)))
        start = perf_counter()
        try:
            c1_decode(y, params)
        except AmbiguityError:
            pass
        times.append(perf_counter() - start)
    return times[1:]  # the first call also fills comp_rank's cache


def sample_times(n: int, seed: int, reps: int) -> list[float]:
    return [
        _time(lambda: sample_good(n, 2, random.Random(seed * 1000 + k), uniform_sums=True))
        for k in range(reps)
    ]


def main() -> int:
    rows = []
    for n in (8, 16, 32, 64):
        rows.append(("c1 fast decode", n, decode_times(n, True, SEED, REPS), 1e3, "ms"))
    for n in (8, 16, 32):
        rows.append(("c1 scan decode", n, decode_times(n, False, SEED, REPS), 1e3, "ms"))
    for n in (16, 32):
        rows.append(("sample_good uniform", n, sample_times(n, SEED, REPS), 1, "s"))
    print("| case | n | ROADMAP | best | median |")
    print("|---|---|---|---|---|")
    for case, n, times, scale, unit in rows:
        print(f"| {case} | {n} | {ROADMAP[case, n]} | {min(times) * scale:.3g} {unit} "
              f"| {statistics.median(times) * scale:.3g} {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
