"""Span collection for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
library's public functions; nothing inside the library is instrumented. A
span is (name, start, end, parent, op_id): parent is the index of the
enclosing span or None, op_id the index of the op the call belongs to.
"""
from __future__ import annotations

import statistics
from time import perf_counter


class NullTracer:
    """Untraced run: calls straight through, records nothing."""

    active = False
    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Traced run: keeps every span in memory until the run ends."""

    active = True

    def __init__(self):
        self.spans: list = []
        self.op_id: int | None = None
        self._parent: int | None = None

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, index
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._parent = parent
            self.spans[index] = (name, start, end, parent, self.op_id)


def _quantile(sorted_values, share):
    """Nearest-rank quantile of an ascending list."""
    index = min(len(sorted_values) - 1, max(0, round(share * len(sorted_values)) - 1))
    return sorted_values[index]


def layer_stats(spans) -> dict:
    """Per span name: calls, busy_s (summed duration), p50_us, p90_us, self_s.

    Self time is the span's duration minus the part covered by its children.
    """
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        durations.setdefault(name, []).append(end - start)
        if parent is not None:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    for (name, start, end, _, _), covered in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
    out = {}
    for name in sorted(durations):
        values = sorted(durations[name])
        out[name] = {
            "calls": len(values),
            "busy_s": sum(values),
            "p50_us": statistics.median(values) * 1e6,
            "p90_us": _quantile(values, 0.9) * 1e6,
            "self_s": self_time[name],
        }
    return out


def root_busy(spans) -> float:
    """Summed duration of spans without a parent: all time spent in traced calls."""
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)
