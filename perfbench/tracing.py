"""Spans around the calls one dynguard layer makes into the next.

A traced run swaps the module-level references listed in ``BOUNDARIES``
for wrappers that record a span per call, so the program itself is not
edited. Spans stay in memory with their parent ids and are written out
once the run ends; a layer's self time is its spans' durations minus the
part covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module, attribute, layer): each reference one layer holds to the next.
BOUNDARIES = (
    ("dynguard.cli", "load_config", "config"),
    ("dynguard.cli", "run_sweep", "sweep"),
    ("dynguard.cli", "emit_csv", "sweep"),
    ("dynguard.sweep", "run_simulation", "simulate"),
    ("dynguard.sweep", "quasi_stationary_curve", "markov"),
    ("dynguard.sweep", "build_chain", "markov"),
    ("dynguard.sweep", "steady_state", "markov"),
    ("dynguard.sweep", "blocking_report", "markov"),
    ("dynguard.sweep", "nonpriority_report", "markov"),
)

LAYERS = ("cli", "config", "sweep", "markov", "simulate")


def sim_counts(report) -> dict:
    """Work counts of one simulation, attached to its span."""
    return {"events": report.event_count, "arrivals": sum(report.offered)}


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Single-threaded span recorder; ``call`` groups the spans of one workload call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[int] = []

    def run(self, name: str, layer: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.call, name, layer, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
        if name == "run_simulation":
            span.counts = sim_counts(result)
        return result

    def _wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            return self.run(name, layer, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every boundary reference for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, attr, layer))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer over ``spans`` (one call's spans)."""
    child_ns = {s.id: 0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.duration_ns
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] += (s.duration_ns - child_ns[s.id]) / 1e9
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that do not lie inside their parent's interval."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.end_ns < s.start_ns:
            errors.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id[s.parent]
        if s.start_ns < p.start_ns or s.end_ns > p.end_ns or s.call != p.call:
            errors.append(f"span {s.id} {s.name} is not inside parent {p.id} {p.name}")
    return errors
