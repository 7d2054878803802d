"""In-memory span recorder wrapped around the campaign's public calls.

The benchmark never edits the program: it replaces module attributes
(``campaign.cloze``, ``Corpus.sample`` ...) with wrappers that time
the call and, while tracing, keep one span per call with its thread
id and the span that caused it. Spans stay in memory and are written
out when the campaign ends. Per-layer figures are derived from them:
a span's self time is its duration minus the part of that interval
its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    thread: int
    parent: int  # -1: no enclosing span on this thread
    start: float
    end: float
    extra: dict = field(default_factory=dict)


class Tracer:
    """Span store. With ``enabled`` off, only the hooks' own counters run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``measure(result, args)`` returns counts to attach to the span;
        it runs after the span's end time is taken.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = measure(result, args) if measure is not None else {}
            self.spans.append(
                Span(span_id, name, threading.get_ident(), parent, start, end, extra)
            )
            return result

        return traced if self.enabled else fn

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of half-open intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, [])) for s in spans
    }


def layer_stats(
    spans: list[Span], loop_start: float, loop_end: float, workers: int
) -> dict[str, float]:
    """Per-layer figures of one traced campaign, keyed by metric name.

    Sums (calls, seconds, counts) are returned raw so rounds can be
    pooled; ratios are derived later by ``finish_layers``.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str, key: str) -> float:
        return float(sum(s.extra.get(key, 0) for s in group(name)))

    def self_s(name: str) -> float:
        return sum(own[s.id] for s in group(name))

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in group(name))

    out: dict[str, float] = {}
    for layer, counts in (
        ("lexer.lex", ("tokens",)),
        ("brackets.find_spans", ("spans",)),
        ("masking.cloze", ("variants", "chars_materialised")),
        ("infill.infill", ("kept",)),
        ("oracle.signature", ()),
        ("oracle.record_if_new", ("new",)),
        ("campaign.report_bug", ()),
        ("corpus.add_entry", ()),
    ):
        out[f"{layer}.calls"] = float(len(group(layer)))
        out[f"{layer}.self_s"] = self_s(layer)
        for key in counts:
            out[f"{layer}.{key}"] = total(layer, key)
    out["infill.infill.attempts"] = float(len(group("infill.backend")))
    out["infill.backend_s"] = busy("infill.backend")
    compiles = group("harness.compile_program")
    out["harness.compile_program.calls"] = float(len(compiles))
    out["harness.compile_program.busy_s"] = busy("harness.compile_program")
    out["harness.compile_program.child_s"] = total("harness.compile_program", "child_s")
    out["harness.timeouts"] = total("harness.compile_program", "timed_out")
    out["harness.time_passes.calls"] = float(len(group("harness.time_passes")))
    out["harness.time_passes.busy_s"] = busy("harness.time_passes")
    out["oracle.classify.self_s"] = self_s("oracle.classify")
    out["corpus.sample.self_s"] = self_s("corpus.sample")
    out["corpus.preflight_filter.s"] = busy("corpus.preflight_filter")
    out["corpus.load.s"] = busy("corpus.load")

    # the loop's own time: its wall time minus whatever any top-level
    # span covers, including compiles running on pool threads
    roots = {s.id for s in group("campaign.run_campaign")}
    top = [
        (max(s.start, loop_start), s.end)
        for s in spans
        if (s.parent in roots or s.parent == -1)
        and s.name != "campaign.run_campaign"
        and s.end > loop_start
    ]
    loop_wall = loop_end - loop_start
    out["campaign.self_s"] = loop_wall - covered(top)
    out["worker_s"] = workers * loop_wall
    return out


def finish_layers(sums: dict[str, float], campaigns: int) -> dict[str, float]:
    """Turn sums pooled over traced campaigns into the reported
    per-layer metrics: counts and seconds per campaign, and ratios."""
    out = {
        k: v / campaigns for k, v in sums.items() if k != "worker_s"
    }
    attempts = out.pop("infill.infill.attempts")
    kept = out.pop("infill.infill.kept")
    out["infill.infill.attempts"] = attempts
    out["infill.infill.kept_ratio"] = kept / attempts if attempts else 0.0
    new = out.pop("oracle.record_if_new.new")
    calls = out["oracle.record_if_new.calls"]
    out["oracle.record_if_new.new_ratio"] = new / calls if calls else 0.0
    compiles = out["harness.compile_program.calls"]
    overhead = out["harness.compile_program.busy_s"] - out["harness.compile_program.child_s"]
    out["harness.compile_program.spawn_overhead_ms"] = (
        1000.0 * overhead / compiles if compiles else 0.0
    )
    busy = sums["harness.compile_program.busy_s"] + sums["harness.time_passes.busy_s"]
    out["harness.utilisation"] = busy / sums["worker_s"] if sums["worker_s"] else 0.0
    return out
