"""Self-tests of the benchmark: input determinism, gates, and the run contract.

    python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run

run.import_library()

import workloads  # noqa: E402  (needs the library on sys.path)
from crisscross import (  # noqa: E402
    AmbiguityError,
    CodePropertyError,
    DecodeOutcome,
    NotACodewordError,
)
from spans import NullTracer, Tracer, layer_stats  # noqa: E402

HERE = Path(__file__).resolve().parent
OPS = {"roundtrip": 3, "decode-fast": 24, "decode-scan": 6, "verify-balls": 3}


def _outcome_run(workload: str, seed: int):
    pool = workloads.WORKLOADS[workload](seed)
    counts = Counter()
    (tally,) = run.run_loop(pool, [Tracer()], count=OPS[workload], counts=counts)
    return pool.digest, tally.labels, dict(tally.outcomes), dict(counts)


@pytest.mark.parametrize("workload", sorted(OPS))
def test_same_seed_same_inputs_and_outcomes(workload):
    first = _outcome_run(workload, 7)
    second = _outcome_run(workload, 7)
    assert first == second


@pytest.mark.parametrize("workload", sorted(OPS))
def test_other_seed_other_inputs(workload):
    build = workloads.WORKLOADS[workload]
    assert build(7).digest != build(8).digest


def _run_cli(cwd: Path, *args: str, hash_seed: str = "0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_traced_and_untraced_runs_consume_one_digest():
    args = ("--workload", "verify-balls", "--seed", "3", "--seconds", "0.5")
    lines = []
    for trace, hash_seed in (("0", "1"), ("1", "2")):
        proc = _run_cli(HERE.parent, *args, "--trace", trace, hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stderr
        lines.append([json.loads(line) for line in proc.stdout.splitlines()[-2:]])
    (record0, result0), (record1, result1) = lines
    assert record0["record"]["input_digest"] == record1["record"]["input_digest"]
    assert result0["correct"] and result1["correct"]
    assert set(result0["metrics"]) == {"ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}
    assert "trace.overhead_ratio" in result1["metrics"]
    assert record1["report"]["layers"]["verify.verify_codebook"]["calls"] >= 1


def test_fails_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_cli(tmp_path, "--workload", "decode-fast", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------- gates


def _decode_op(uniform: bool, true_minor: bool):
    """A c1 op from the decode-fast pool, its class flagged uniform or not."""
    pool = workloads.build_decode_fast(1)
    op = next(o for o in pool.ops if o.cfg.family == "c1" and (o.truth is not None) == true_minor)
    cfg = workloads.DecodeConfig(op.cfg.name, "c1", op.cfg.n, op.cfg.q, uniform, 1)
    return workloads.DecodeOp(cfg, op.params, op.x, op.y, op.truth)


def test_gate_true_minor():
    op = _decode_op(uniform=True, true_minor=True)
    out, exc = op.run(NullTracer())
    assert exc is None and op.judge((out, None)).label == "ok"
    other_row = op.truth[0] % op.cfg.n + 1
    misplaced = DecodeOutcome(out.array, (other_row, other_row), out.col_interval, out.path)
    assert op.judge((misplaced, None)).label == "wrong"
    assert op.judge((None, NotACodewordError("x"))).failed
    assert op.judge((None, ValueError("x"))).label == "unexpected"
    assert op.judge((None, AmbiguityError("x"))).failed
    verdict = _decode_op(uniform=False, true_minor=True).judge((None, AmbiguityError("x")))
    assert not verdict.failed and verdict.ambiguous


def test_gate_arbitrary_minor():
    op = _decode_op(uniform=True, true_minor=False)
    assert not op.judge((None, CodePropertyError("x"))).failed
    assert op.judge((None, KeyError("x"))).label == "unexpected"
    member = DecodeOutcome(op.x, (1, op.cfg.n), (1, op.cfg.n), "fast")
    assert not workloads.explains(op.x, op.y, 1, False)
    assert op.judge((member, None)).label == "wrong"


def test_gate_certification_needs_planted_violations():
    pool = workloads.build_verify_balls(1)
    op = next(o for o in pool.ops if o.config == "plain11")
    report, exc = op.run(NullTracer())
    assert exc is None and op.judge((report, None)).label == "ok"
    assert len(report.violations) >= len(op.planted)
    pruned = type(report)(report.checked_pairs, (), True)
    assert op.judge((pruned, None)).failed


def test_layer_stats_self_time():
    spans = [("op.a", 0.0, 10.0, None, 0), ("layer", 1.0, 4.0, 0, 0), ("layer", 5.0, 6.0, 0, 0)]
    stats = layer_stats(spans)
    assert stats["layer"]["calls"] == 2 and stats["layer"]["busy_s"] == 4.0
    assert stats["op.a"]["self_s"] == 6.0
