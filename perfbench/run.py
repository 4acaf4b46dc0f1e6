"""Benchmark for the crisscross library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, single-threaded, as a closed loop with one
caller: the next op starts only when the previous one has returned. Every op's
output passes a correctness gate. The last stdout line is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it holds the
run record and the fuller report. A traced run also writes its spans to
.perfbench_runs/ at the repository root.

The library is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer, layer_stats, root_busy

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # set-up is repeated and its median reported


class LibraryMissing(RuntimeError):
    pass


def import_library(root: Path = ROOT):
    """Import crisscross from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "crisscross" / "__init__.py").is_file():
        raise LibraryMissing(f"no crisscross sources under {src}")
    sys.path.insert(0, str(src))
    import crisscross

    if Path(crisscross.__file__).resolve().parent != (src / "crisscross").resolve():
        raise LibraryMissing(f"crisscross imported from {crisscross.__file__}, not {src}")
    return crisscross


def _commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "crisscross").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


class Tally:
    """Op times and gate verdicts of one loop."""

    def __init__(self):
        self.times: list[float] = []
        self.labels: list[str] = []
        self.per_config: dict[str, list[float]] = {}
        self.outcomes: Counter = Counter()      # (site, label)
        self.failed = 0
        self.true_minors = 0
        self.ambiguous = 0
        self.arbitrary = 0
        self.explained = 0

    def add(self, op, seconds: float, verdict) -> None:
        self.times.append(seconds)
        self.labels.append(verdict.label)
        self.per_config.setdefault(op.config, []).append(seconds)
        self.outcomes[(op.site, verdict.label)] += 1
        self.failed += verdict.failed
        self.true_minors += verdict.true_minor
        self.ambiguous += verdict.ambiguous
        self.arbitrary += verdict.arbitrary
        self.explained += verdict.arbitrary and verdict.label == "explained"

    @property
    def ops(self) -> int:
        return len(self.times)

    @property
    def busy(self) -> float:
        return sum(self.times)


def run_loop(pool, tracers, deadline=None, count=None, counts=None) -> list[Tally]:
    """Closed loop over the pool's ops until the deadline or the op count.

    Each op runs once under each tracer, in an order that alternates from op to
    op, so that with an untraced and a traced tracer both passes see the same
    ops under the same machine conditions. Returns one tally per tracer.
    """
    tallies = [Tally() for _ in tracers]
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if deadline is not None and i > 0 and perf_counter() >= deadline:
            break
        op = pool.ops[i % len(pool.ops)]
        order = range(len(tracers)) if i % 2 == 0 else reversed(range(len(tracers)))
        for k in order:
            tracer = tracers[k]
            tracer.op_id = i
            start = perf_counter()
            result = tracer.call("op." + op.config, op.run, tracer)
            seconds = perf_counter() - start
            tallies[k].add(op, seconds, op.judge(result))
            if tracer.active:
                op.side(result, tracer, counts)
        i += 1
    return tallies


def _ms_quantiles(times: list[float]) -> dict:
    out = {"p50": statistics.median(times) * 1e3, "p90": max(times) * 1e3}
    if len(times) >= 10:
        out["p90"] = statistics.quantiles(times, n=10)[8] * 1e3
    if len(times) >= 1000:
        out["p99"] = statistics.quantiles(times, n=100)[98] * 1e3
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float, workload: str):
    q = _ms_quantiles(tally.times)
    metrics = {
        "ops_per_s": _metric(tally.ops / tally.busy, "1/s"),
        "op_p50_ms": _metric(q["p50"], "ms"),
        "op_p90_ms": _metric(q["p90"], "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    report = {
        "ops": tally.ops,
        "busy_s": tally.busy,
        "fail_share": {
            "value": tally.failed / tally.ops, "failed": tally.failed, "attempted": tally.ops,
        },
        "per_config": {
            name: {"ops": len(times), **{k + "_ms": v for k, v in _ms_quantiles(times).items()}}
            for name, times in sorted(tally.per_config.items())
        },
        "outcomes": _outcomes(tally),
    }
    if "p99" in q:
        report["op_p99_ms"] = q["p99"]
    if workload == "decode-scan":
        report["ambiguous_share"] = {
            "value": tally.ambiguous / tally.true_minors if tally.true_minors else 0.0,
            "ambiguous": tally.ambiguous,
            "true_minor_ops": tally.true_minors,
        }
    return metrics, report


def _outcomes(tally: Tally) -> dict:
    out: dict = {}
    for (site, label), n in sorted(tally.outcomes.items()):
        out.setdefault(site, {})[label] = n
    return out


DECODE_LABELS = (
    "ok", "explained", "NotACodewordError", "CodePropertyError", "AmbiguityError",
    "wrong", "unexpected",
)


def per_layer(spans, tally: Tally, untraced: Tally, counts: Counter, sites):
    stats = layer_stats(spans)
    total = root_busy(spans)
    metrics = {}
    for site in sites:
        entry = stats.get(site, {"calls": 0, "busy_s": 0.0})
        metrics[site + ".calls"] = _metric(entry["calls"], "count")
        metrics[site + ".busy_pct"] = _metric(100 * entry["busy_s"] / total, "%")
    op_self = sum(v["self_s"] for name, v in stats.items() if name.startswith("op."))
    metrics["op.self_pct"] = _metric(100 * op_self / total, "%")
    for name in ("core_array.ball_minors", "verify.pairs_checked", "verify.violations"):
        metrics[name] = _metric(counts[name], "count")
    ball_busy = sum(
        stats.get(s, {"busy_s": 0.0})["busy_s"]
        for s in ("core_array.deletion_ball_raw", "core_array.burst_deletion_ball_raw")
    )
    certify_busy = stats.get("verify.verify_codebook", {"busy_s": 0.0})["busy_s"]
    intersect_s = max(0.0, certify_busy - ball_busy)
    metrics["verify.intersect_busy_pct"] = _metric(100 * intersect_s / total, "%")
    decode_labels = Counter()
    for (site, label), n in tally.outcomes.items():
        if site != "verify.verify_codebook":
            decode_labels[label] += n
    for label in DECODE_LABELS:
        metrics["decode.outcome." + label] = _metric(decode_labels[label], "count")
    metrics["decode.arbitrary.ops"] = _metric(tally.arbitrary, "count")
    metrics["decode.arbitrary.explained_ratio"] = _metric(
        tally.explained / tally.arbitrary if tally.arbitrary else 0.0, "ratio"
    )
    overhead = (tally.ops / tally.busy) / (untraced.ops / untraced.busy)
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    report = {
        "layers": stats,
        "traced_busy_s": total,
        "verify.intersect_busy_s (derived)": intersect_s,
        "counts": dict(counts),
        "overhead": {
            "ratio": overhead, "ops": tally.ops,
            "traced_op_busy_s": tally.busy, "untraced_op_busy_s": untraced.busy,
        },
        "outcomes": _outcomes(tally),
    }
    return metrics, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    try:
        import_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = perf_counter() - started

    # Set-up: generate the inputs and warm up, several times; the digests must agree.
    build = workloads.WORKLOADS[args.workload]
    builds, digests, warm_failed = [], set(), 0
    for _ in range(SETUP_REPS):
        start = perf_counter()
        pool = build(args.seed)
        for op in pool.warm:
            warm_failed += op.judge(op.run(NullTracer())).failed
        builds.append(perf_counter() - start)
        digests.add(pool.digest)
    setup_s = import_s + statistics.median(builds)

    deadline = perf_counter() + args.seconds
    if args.trace:
        tracer, counts = Tracer(), Counter()
        untraced, tally = run_loop(pool, [NullTracer(), tracer], deadline=deadline, counts=counts)
        metrics, report = per_layer(tracer.spans, tally, untraced, counts, workloads.SITES)
        consistent = untraced.labels == tally.labels
    else:
        (tally,) = run_loop(pool, [NullTracer()], deadline=deadline)
        metrics, report = end_to_end(tally, setup_s, args.workload)
        consistent = True

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": _nproc(),
        "platform": platform.platform(),
        "commit": _commit(ROOT),
        "source_sha256": _source_digest(ROOT),
        "input_digest": pool.digest,
        "ops_per_config": {k: len(v) for k, v in sorted(tally.per_config.items())},
        "setup": {"import_s": import_s, "build_s": builds, "setup_s": setup_s},
        "inputs": pool.meta,
    }
    correct = tally.failed == 0 and warm_failed == 0 and len(digests) == 1 and consistent
    report["checks"] = {
        "warm_up_failed": warm_failed,
        "setup_digests_agree": len(digests) == 1,
        "traced_untraced_consistent": consistent,
    }
    if args.trace:
        out_dir = ROOT / ".perfbench_runs"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"record": record, "spans": tracer.spans}, fh)
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"record": record, "report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
