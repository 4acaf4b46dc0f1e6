"""Batch command line front end.

Every subcommand is a thin shell over one library call, with plain-text or
CSV output and stable field order. Randomized subcommands demand an explicit
--seed so every run is reproducible. Paths accept "-" for standard input or
output.

Exit codes: 0 success or positive verdict, 1 clean negative verdict, 2 input
or parameter error, 3 decode failure, 4 ambiguity, 5 capacity exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .bounds import (
    DEFAULT_STATE_CAP,
    count_good_exact,
    count_valid,
    gv_upper_bound,
    sp_lower_bound,
)
from .core_array import (
    BurstPattern,
    DeletionPattern,
    array_from_text,
    array_to_text,
    delete_rows_cols,
)
from .errors import (
    AmbiguityError,
    CapacityError,
    CrissCrossError,
    InvalidParameterError,
    NotACodewordError,
)
from .params_io import CONSTRUCTIONS, codebook_from_text, construction_of, params_from_text
from .verify import DEFAULT_TRIAL_BUDGET, TrialConfig, simulate_trials, verify_codebook

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_DECODE = 3
EXIT_AMBIGUOUS = 4
EXIT_CAPACITY = 5

# Most values one --n/--q style list may expand to, and most rows one bounds
# grid may print; both are checked before anything is expanded or written.
MAX_LIST_VALUES = 10_000


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _parse_values(spec: str, what: str) -> list[int]:
    """Parse "8", "4,8,12", "4:12", or "4:12:2" (upper end inclusive)."""
    out: list[int] = []
    for part in spec.split(","):
        try:
            if ":" in part:
                pieces = [int(v) for v in part.split(":")]
                if len(pieces) == 2:
                    lo, hi, step = pieces[0], pieces[1], 1
                elif len(pieces) == 3:
                    lo, hi, step = pieces
                else:
                    raise ValueError
                if step < 1:
                    raise ValueError
                values = range(lo, hi + 1, step)
            else:
                values = [int(part)]
        except ValueError:
            raise InvalidParameterError(
                f"bad {what} value {part!r}: want an integer, a comma list, or lo:hi[:step]"
            ) from None
        room = MAX_LIST_VALUES - len(out)
        if len(values[: room + 1]) > room:  # a slice, so a huge range is never expanded
            raise InvalidParameterError(f"{what} lists more than {MAX_LIST_VALUES} values")
        out.extend(values)
    return out


def _parse_positions(spec: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in spec.split(","))
    except ValueError:
        raise InvalidParameterError(f"bad {what} list {spec!r}") from None


def cmd_bounds(args: argparse.Namespace) -> int:
    ns = _parse_values(args.n, "n")
    qs = _parse_values(args.q, "q")
    if len(ns) * len(qs) > MAX_LIST_VALUES:
        raise InvalidParameterError(
            f"{len(ns)} n values times {len(qs)} q values make more than "
            f"{MAX_LIST_VALUES} rows"
        )
    sys.stdout.write("n,q,tr,tc,sp_bits,gv_bits,epsilon,run_threshold,hypothesis_ok\n")
    for n in ns:
        for q in qs:
            det = sp_lower_bound(n, q, args.tr, args.tc)
            gv = gv_upper_bound(n, q, args.tr, args.tc)
            ok = "true" if det.hypothesis_ok else "false"
            sys.stdout.write(
                f"{n},{q},{args.tr},{args.tc},{det.redundancy_bits:.4f},{gv:.4f},"
                f"{det.epsilon:.6f},{det.run_threshold:.6f},{ok}\n"
            )
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    p = params_from_text(_read_text(args.params))
    x = array_from_text(_read_text(args.array))
    ok = construction_of(p).check(x, p)
    sys.stdout.write("member\n" if ok else "non-member\n")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_corrupt(args: argparse.Namespace) -> int:
    x = array_from_text(_read_text(args.array))
    if args.burst:
        explicit = args.row_start is not None or args.col_start is not None
        if explicit and (args.row_start is None or args.col_start is None):
            raise InvalidParameterError("give both --row-start and --col-start or neither")
        if explicit:
            pattern = BurstPattern(args.row_start, args.col_start, args.tr, args.tc)
        else:
            if args.seed is None:
                raise InvalidParameterError("a random burst window needs --seed")
            rng = random.Random(args.seed)
            pattern = BurstPattern(
                rng.randint(1, x.rows - args.tr + 1),
                rng.randint(1, x.cols - args.tc + 1),
                args.tr,
                args.tc,
            )
        record = (
            f"pattern=burst row_start={pattern.row_start} col_start={pattern.col_start} "
            f"tr={pattern.t_r} tc={pattern.t_c}"
        )
    else:
        explicit = args.rows is not None or args.cols is not None
        if explicit and (args.rows is None or args.cols is None):
            raise InvalidParameterError("give both --rows and --cols or neither")
        if explicit:
            pattern = DeletionPattern(
                _parse_positions(args.rows, "row"), _parse_positions(args.cols, "column")
            )
        else:
            if args.seed is None:
                raise InvalidParameterError("a random deletion pattern needs --seed")
            rng = random.Random(args.seed)
            pattern = DeletionPattern(
                tuple(sorted(rng.sample(range(1, x.rows + 1), args.tr))),
                tuple(sorted(rng.sample(range(1, x.cols + 1), args.tc))),
            )
        rows = ",".join(str(v) for v in pattern.rows)
        cols = ",".join(str(v) for v in pattern.cols)
        record = f"pattern=plain rows={rows} cols={cols}"
    y = delete_rows_cols(x, pattern)
    _write_text(args.output, array_to_text(y))
    sys.stderr.write(record + "\n")
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    p = params_from_text(_read_text(args.params))
    y = array_from_text(_read_text(args.received))
    construction = construction_of(p)
    if args.path not in construction.paths:
        offers = "a single path" if len(construction.paths) == 1 else f"paths {construction.paths}"
        raise InvalidParameterError(f"the {construction.name} decoder has {offers}")
    t0 = time.perf_counter()
    # A well-formed array of the wrong shape is a decode failure, not an
    # input error: nothing with that shape lies in any codeword's ball.
    try:
        out = construction.decode(y, p, path=args.path)
    except InvalidParameterError as exc:
        raise NotACodewordError(str(exc)) from exc
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    _write_text(args.output, array_to_text(out.array))
    sys.stderr.write(
        f"rows={out.row_interval[0]}:{out.row_interval[1]} "
        f"cols={out.col_interval[0]}:{out.col_interval[1]} "
        f"path={out.path} time_ms={elapsed_ms:.2f}\n"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    arrays = codebook_from_text(_read_text(args.codebook))
    report = verify_codebook(arrays, args.tr, args.tc, mode="burst" if args.burst else "plain")
    sys.stdout.write("\n".join(report.to_lines()) + "\n")
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise InvalidParameterError("simulation needs --seed")
    cfg = TrialConfig(
        construction=args.construction,
        n=args.n,
        q=args.q,
        t_r=args.tr,
        t_c=args.tc,
        l=args.l,
        trials=args.trials,
        seed=args.seed,
        burst=args.burst,
        uniform_sums=args.uniform_sums,
        rows_distinct=args.rows_distinct,
        budget=args.budget,
    )
    stats = simulate_trials(cfg)
    sys.stdout.write("\n".join(stats.to_lines()) + "\n")
    sys.stderr.write(f"mean_decode_time_ms={stats.mean_decode_time * 1e3:.3f}\n")
    return EXIT_OK if not stats.failures else EXIT_NEGATIVE


def cmd_count(args: argparse.Namespace) -> int:
    if args.mode == "good":
        report = count_good_exact(args.n, args.q, state_cap=args.state_cap)
    else:
        if args.l is None:
            raise InvalidParameterError("counting band-valid arrays needs --l")
        if args.seed is None:
            raise InvalidParameterError("counting band-valid arrays needs --seed")
        report = count_valid(args.n, args.q, args.l, args.trials, args.seed)
    lines = [f"method={report.method}"]
    if report.exact is not None:
        lines.append(f"exact={report.exact}")
    if report.lower_bound is not None:
        lines.append(f"lower_bound={report.lower_bound}")
    if report.estimate is not None:
        lines.append(f"estimate={report.estimate!r}")
    if report.interval is not None:
        lines.append(f"interval_lo={report.interval[0]!r}")
        lines.append(f"interval_hi={report.interval[1]!r}")
    if report.trials is not None:
        lines.append(f"trials={report.trials}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisscross",
        description="Row/column deletion correcting codes: bounds, membership, decoding, verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", help="CSV table of redundancy bounds over a parameter grid")
    p.add_argument("--n", required=True, help="side lengths: 8, 4,8,12, or 4:16[:2]")
    p.add_argument("--q", required=True, help="alphabet sizes, same syntax as --n")
    p.add_argument("--tr", type=int, default=1, help="row deletions")
    p.add_argument("--tc", type=int, default=1, help="column deletions")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="membership of an array in a parameter class")
    p.add_argument("--params", required=True, help="parameter record file, - for stdin")
    p.add_argument("--array", required=True, help="array file, - for stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("corrupt", help="delete rows and columns from an array")
    p.add_argument("--array", required=True, help="array file, - for stdin")
    p.add_argument("--burst", action="store_true", help="delete consecutive windows")
    p.add_argument("--rows", help="explicit 1-based row positions, comma list")
    p.add_argument("--cols", help="explicit 1-based column positions, comma list")
    p.add_argument("--row-start", type=int, help="burst window start row")
    p.add_argument("--col-start", type=int, help="burst window start column")
    p.add_argument("--tr", type=int, default=1, help="rows to delete")
    p.add_argument("--tc", type=int, default=1, help="columns to delete")
    p.add_argument("--seed", type=int, help="seed for a random pattern")
    p.add_argument("--output", default="-", help="where to write the minor")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", help="recover the transmitted array from a minor")
    p.add_argument("--params", required=True, help="parameter record file, - for stdin")
    p.add_argument("--received", required=True, help="received minor, - for stdin")
    p.add_argument("--path", default="auto", choices=("auto", "fast", "scan"))
    p.add_argument("--output", default="-", help="where to write the recovered array")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="pairwise deletion-ball disjointness of a codebook")
    p.add_argument("--codebook", required=True, help="codebook file, - for stdin")
    p.add_argument("--tr", type=int, default=1)
    p.add_argument("--tc", type=int, default=1)
    p.add_argument("--burst", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="randomized corrupt/decode round-trip trials")
    p.add_argument("--construction", required=True, choices=tuple(CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tr", type=int, default=1)
    p.add_argument("--tc", type=int, default=1)
    p.add_argument("--l", type=int, help="band height (default: derived from shape)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, help="master seed (required)")
    p.add_argument("--burst", action="store_true")
    p.add_argument("--uniform-sums", action="store_true", help="constant sum parameters")
    p.add_argument("--rows-distinct", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_TRIAL_BUDGET)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("count", help="count arrays with the structural guarantees")
    p.add_argument("--mode", required=True, choices=("good", "valid"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, help="band height (valid mode)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, help="seed for sampling (valid mode)")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.set_defaults(func=cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AmbiguityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_AMBIGUOUS
    except NotACodewordError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DECODE
    except CapacityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPACITY
    except (CrissCrossError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
