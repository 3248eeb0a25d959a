"""Event-driven simulator of the dynamic guard-channel scheme.

Calls of each class arrive as Poisson streams whose rates follow a
piecewise-constant schedule; admitted calls hold a channel for an
exponential time. Under the dynamic scheme every arrival first updates the
rate estimator, re-classifies the load, and rebuilds the availability
limits before its own admission is decided, so the simulator exercises the
live adaptation that the frozen-threshold chain cannot. Fixed-guard and
shared-pool baselines run on the same event loop for comparison.

A run is deterministic for a given scenario and seed: each class draws its
inter-arrival times from its own seeded stream and holding times come from
one more, so changing one class's traffic never perturbs the others.
Arrival times never depend on admission decisions, so each class's are
computed ahead of the loop in blocks and merged in bounded time windows;
only departures go through the event heap. Simultaneous events process
departures first, then arrivals in class order. The merged arrivals carry
no segment: one cursor follows the schedule, an arrival counts toward the
segment whose [start, end) holds its time, and run totals sum the segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from .traffic import (
    RateVector,
    SystemParams,
    ThresholdVector,
    _class_limit,
    _observe_gap,
    as_rate_vector,
)

# Exponential draws fetched from a random stream at a time.
_DRAW_BLOCK = 1024


class Scheme(Enum):
    """Admission policy variants."""

    DYNAMIC = "dynamic"
    FIXED_GUARD = "fixed"
    NON_PRIORITY = "nonpriority"


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run.

    schedule: piecewise-constant per-class rates as (start time, rates)
        segments; the first must start at 0 and starts must increase. Each
        segment lasts until the next one (the last until the horizon).
    warmup: leading time span excluded from statistics; defaults to 10% of
        the horizon.
    fixed_thresholds: availability limits for the FIXED_GUARD scheme.
    smoothing: optional exponential smoothing factor for the rate estimator.
    record_trace: when set, the report carries every arrival as
        (time, class, admitted) for exact run-to-run comparisons.
    """

    params: SystemParams
    schedule: tuple[tuple[float, RateVector], ...]
    horizon: float
    seed: int
    scheme: Scheme = Scheme.DYNAMIC
    warmup: float | None = None
    fixed_thresholds: ThresholdVector | None = None
    smoothing: float | None = None
    record_trace: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not self.schedule:
            raise ValueError("schedule must have at least one segment")
        normalized = []
        prev_start = None
        for start, rates in self.schedule:
            start = float(start)
            if prev_start is None:
                if start != 0.0:
                    raise ValueError(f"first schedule segment must start at 0, got {start}")
            elif start <= prev_start:
                raise ValueError("schedule segment starts must be strictly increasing")
            if not start < self.horizon:
                raise ValueError(f"segment start {start} is not inside [0, horizon)")
            normalized.append((start, as_rate_vector(rates, self.params.class_count)))
            prev_start = start
        object.__setattr__(self, "schedule", tuple(normalized))
        if self.warmup is None:
            object.__setattr__(self, "warmup", 0.1 * self.horizon)
        if not 0.0 <= self.warmup < self.horizon:
            raise ValueError(f"warmup must lie in [0, horizon), got {self.warmup!r}")
        if self.scheme is Scheme.FIXED_GUARD:
            if self.fixed_thresholds is None:
                raise ValueError("FIXED_GUARD needs explicit fixed_thresholds")
            if self.fixed_thresholds.capacity != self.params.capacity:
                raise ValueError("fixed_thresholds capacity must match params.capacity")
            if self.fixed_thresholds.class_count != self.params.class_count:
                raise ValueError("fixed_thresholds must cover every traffic class")
        elif self.fixed_thresholds is not None:
            raise ValueError("fixed_thresholds only applies to the FIXED_GUARD scheme")
        if self.smoothing is not None and not 0 < self.smoothing <= 1:
            raise ValueError(f"smoothing must be in (0, 1], got {self.smoothing!r}")


def blocking_stderr(blocked: int, offered: int) -> float | None:
    """Binomial standard error of a blocking estimate; None when nothing was offered."""
    if offered < 0 or blocked < 0:
        raise ValueError("counts must be non-negative")
    if blocked > offered:
        raise ValueError(f"blocked count {blocked} exceeds offered count {offered}")
    if offered == 0:
        return None
    p = blocked / offered
    return math.sqrt(p * (1.0 - p) / offered)


@dataclass(frozen=True)
class SegmentStats:
    """Post-warmup statistics restricted to one schedule segment."""

    start: float
    end: float
    offered: tuple[int, ...]
    blocked: tuple[int, ...]
    utilization: float
    measured_time: float

    def blocking(self, cls: int) -> float | None:
        if self.offered[cls - 1] == 0:
            return None
        return self.blocked[cls - 1] / self.offered[cls - 1]

    def blocking_stderr(self, cls: int) -> float | None:
        return blocking_stderr(self.blocked[cls - 1], self.offered[cls - 1])


@dataclass(frozen=True)
class SimReport:
    """Aggregate statistics of one run (post-warmup unless noted).

    ``blocking`` entries are None for classes that saw no offered calls.
    ``light_time_fraction`` / ``high_time_fraction`` split the measured time
    by which admission regime was in effect. ``event_count`` covers every
    processed event including warmup. ``trace`` is present only when the
    scenario asked for it and lists all arrivals, warmup included.
    """

    offered: tuple[int, ...]
    blocked: tuple[int, ...]
    blocking: tuple[float | None, ...]
    blocking_stderr: tuple[float | None, ...]
    utilization: float
    light_time_fraction: float
    high_time_fraction: float
    event_count: int
    segments: tuple[SegmentStats, ...]
    trace: tuple[tuple[float, int, bool], ...] | None = None


def _exponentials(rng: np.random.Generator):
    """Endless unit-mean exponential draws from ``rng``, fetched in blocks.

    ``standard_exponential(n)[i] * scale`` is bitwise equal to the i-th of n
    successive ``exponential(scale)`` calls, across block refills too, so
    block draws reproduce the per-call streams exactly.
    """
    while True:
        yield from rng.standard_exponential(_DRAW_BLOCK).tolist()


def _arrival_chunks(rng: np.random.Generator, scales, seg_ends):
    """One class's arrival times as ``(times, known)`` chunks, in order.

    ``scales[k]`` is the class's mean gap in segment k (None while silent)
    and ``seg_ends[k]`` the segment's end. Inside a segment each draw x
    gives the next arrival t + x*scale; the first one at or past the
    segment end is discarded and the walk restarts at that end, which is
    exact for piecewise-constant Poisson input (memorylessness). So every
    time lies in [start, end) of the segment that drew it. Silent
    segments consume no draws. Draws come in blocks of ``_DRAW_BLOCK``,
    fetched only when needed, and a block's times are one cumulative sum:
    ``cumsum`` is a sequential ``add.accumulate``, so every time is bitwise
    equal to the per-draw additions. No later chunk holds a time before
    ``known``: the segment end for the chunk that closes a segment (which
    may be empty), else the chunk's last time.
    """
    t = 0.0
    block = np.empty(0)
    pos = 0
    for scale, end in zip(scales, seg_ends):
        while scale is not None:
            if pos == len(block):
                block = rng.standard_exponential(_DRAW_BLOCK)
                pos = 0
            acc = block[pos:] * scale
            acc[0] += t
            np.cumsum(acc, out=acc)
            n = int(np.searchsorted(acc, end, side="left"))
            if n < len(acc):
                pos += n + 1  # the overshoot draw is consumed
                yield acc[:n], end
                break
            yield acc, acc[-1]
            pos = len(block)
            t = acc[-1]
        t = end


def _arrival_windows(streams, horizon: float):
    """Merge per-class chunk streams into time-ordered arrival windows.

    Each window is every pending arrival up to the earliest ``known`` time
    among the classes' pending chunks, as plain ``(times, classes)`` lists
    sorted by time, ties in class order; so about one chunk per class is
    pending at once. The last window ends with an end-of-run marker at the
    horizon with class -1.
    """
    pending = [next(stream, None) for stream in streams]
    while any(p is not None for p in pending):
        w = min(p[1] for p in pending if p is not None)
        times, classes = [], []
        for idx, p in enumerate(pending):
            if p is None:
                continue
            chunk, known = p
            n = int(np.searchsorted(chunk, w, side="right"))
            if n == len(chunk) and known <= w:
                pending[idx] = next(streams[idx], None)
            elif n:
                pending[idx] = (chunk[n:], known)
            if n:
                times.append(chunk[:n])
                classes.append(np.full(n, idx))
        if not times:
            continue
        times = np.concatenate(times)
        order = np.argsort(times, kind="stable")
        yield times[order].tolist(), np.concatenate(classes)[order].tolist()
    yield [horizon], [-1]


def run_simulation(scenario: Scenario) -> SimReport:
    """Run one scenario to its horizon and report blocking and utilization."""
    params = scenario.params
    m_count = params.class_count
    capacity = params.capacity
    pool = params.reservable_pool
    high_rate = params.high_load_rate
    horizon = scenario.horizon
    warmup = scenario.warmup
    smoothing = scenario.smoothing
    dynamic = scenario.scheme is Scheme.DYNAMIC

    # Segment table: end times, and each class's mean gap per segment (None
    # while silent).
    starts = [s for s, _ in scenario.schedule]
    seg_ends = starts[1:] + [horizon]
    class_gaps = [
        [1.0 / rates[idx] if rates[idx] > 0.0 else None for _, rates in scenario.schedule]
        for idx in range(m_count)
    ]

    seed_seq = np.random.SeedSequence(scenario.seed)
    child_seqs = seed_seq.spawn(m_count + 1)
    arrivals = _arrival_windows(
        [
            _arrival_chunks(np.random.default_rng(s), gaps, seg_ends)
            for s, gaps in zip(child_seqs, class_gaps)
        ],
        horizon,
    )
    holding_draws = _exponentials(np.random.default_rng(child_seqs[m_count]))
    holding_scale = 1.0 / params.service_rate
    # Pending departure times; the infinite sentinel keeps deps[0] defined.
    deps = [math.inf]

    # The schemes differ only in the limits in force: the shared pool, fixed
    # guards, or (DYNAMIC) whatever the latest estimate implies.
    if scenario.scheme is Scheme.FIXED_GUARD:
        limits = scenario.fixed_thresholds.limits
        mode_high = True
    else:
        limits = (capacity,) * m_count
        mode_high = False
    # DYNAMIC estimator state for _observe_gap: each class's last arrival
    # time, its 1/gap estimate, and how many classes have no gap yet.
    last_seen: list[float | None] = [None] * m_count
    estimates: list[float | None] = [None] * m_count
    missing = m_count

    seg_offered = [[0] * m_count for _ in seg_ends]
    seg_blocked = [[0] * m_count for _ in seg_ends]
    seg_busy = [0.0] * len(seg_ends)
    busy_time = 0.0
    light_time = 0.0
    high_time = 0.0
    occupied = 0
    admitted_total = 0
    departed_total = 0
    arrived = 0  # window entries, the end marker included
    trace: list[tuple[float, int, bool]] | None = [] if scenario.record_trace else None

    prev_t = 0.0
    # Segment of the latest arrival; every later event time is at or past its start.
    seg = 0

    for times, classes in arrivals:
        arrived += len(times)
        for na, idx in zip(times, classes):
            # Departures at or before the next arrival go first; the end
            # marker sits at the horizon, so departures there still count.
            while True:
                departing = deps[0] <= na
                t = heappop(deps) if departing else na
                # Accumulate occupancy-time over (prev_t, t] clipped to the
                # measurement window, split across schedule segments.
                lo = prev_t if prev_t > warmup else warmup
                if t > lo:
                    span = t - lo
                    busy_time += occupied * span
                    if mode_high:
                        high_time += span
                    else:
                        light_time += span
                    if t <= seg_ends[seg]:
                        # lo lies in segment seg too, so the walk below
                        # would add this same product.
                        seg_busy[seg] += occupied * span
                    else:
                        x = lo
                        k = seg
                        while x < t:
                            while seg_ends[k] <= x:
                                k += 1
                            upto = t if t < seg_ends[k] else seg_ends[k]
                            seg_busy[k] += occupied * (upto - x)
                            x = upto
                prev_t = t
                if not departing:
                    break
                occupied -= 1
                departed_total += 1
                assert occupied >= 0
            if idx < 0:  # end-of-run marker
                break
            while seg_ends[seg] <= t:
                seg += 1

            # Arrival of class idx+1 inside segment seg.
            limit = limits[idx]
            if dynamic:
                if _observe_gap(last_seen, estimates, idx, t, smoothing):
                    missing -= 1
                # Until every class has two arrivals the gap estimates are
                # undefined; the scheme stays on the shared pool. Only this
                # arrival's own limit decides its admission, and class 1's
                # is always the capacity.
                if not missing:
                    lam_total = math.fsum(estimates)
                    mode_high = lam_total >= high_rate
                    if mode_high and idx:
                        limit = _class_limit(estimates, lam_total, capacity, pool, idx)

            admitted = occupied < limit
            measured = t >= warmup
            if measured:
                seg_offered[seg][idx] += 1
            if admitted:
                occupied += 1
                admitted_total += 1
                assert occupied <= capacity
                heappush(deps, t + next(holding_draws) * holding_scale)
            elif measured:
                seg_blocked[seg][idx] += 1
            if trace is not None:
                trace.append((t, idx + 1, admitted))

    assert admitted_total - departed_total == occupied

    measured_time = horizon - warmup
    seg_stats = []
    for k, (start, end) in enumerate(zip(starts, seg_ends)):
        win = max(0.0, end - max(start, warmup))
        seg_stats.append(
            SegmentStats(
                start=start,
                end=end,
                offered=tuple(seg_offered[k]),
                blocked=tuple(seg_blocked[k]),
                utilization=seg_busy[k] / (capacity * win) if win > 0 else 0.0,
                measured_time=win,
            )
        )
    offered = tuple(map(sum, zip(*seg_offered)))
    blocked = tuple(map(sum, zip(*seg_blocked)))

    return SimReport(
        offered=offered,
        blocked=blocked,
        blocking=tuple(b / o if o > 0 else None for b, o in zip(blocked, offered)),
        blocking_stderr=tuple(blocking_stderr(b, o) for b, o in zip(blocked, offered)),
        utilization=busy_time / (capacity * measured_time),
        light_time_fraction=light_time / measured_time,
        high_time_fraction=high_time / measured_time,
        event_count=arrived - 1 + departed_total,
        segments=tuple(seg_stats),
        trace=tuple(trace) if trace is not None else None,
    )
