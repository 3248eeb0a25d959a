"""Event-driven simulator of the dynamic guard-channel scheme.

Calls of each class arrive as Poisson streams whose rates follow a
piecewise-constant schedule; admitted calls hold a channel for an
exponential time. Under the dynamic scheme every arrival first updates the
rate estimator, re-classifies the load, and rebuilds the availability
limits before its own admission is decided, so the simulator exercises the
live adaptation that the frozen-threshold chain cannot. Fixed-guard and
shared-pool baselines run through the same stages for comparison.

A run is deterministic for a given scenario and seed: each class draws its
inter-arrival times from its own seeded stream and holding times come from
one more, so changing one class's traffic never perturbs the others.
Arrival times never depend on admission decisions, so one array pass
walks every class through each segment ahead of the admissions and cuts
the arrivals into bounded time windows (:func:`_arrival_windows`). Each
window then goes through three stages:

1. Policy, in numpy (:func:`_admission_policy`): every arrival's admission
   limit and the load mode after it. They depend only on the arrivals, so
   the whole window is computed at once; this is the one place where the
   schemes differ.
2. Occupancy, in Python: the only per-arrival loop. It pops the departures
   due by the arrival, admits it while fewer channels than its limit are
   busy, pushes its departure time, and records the decision.
3. Statistics, in numpy (:class:`_Tally`): the window's departures and
   arrivals merged in event order, departures first on ties and arrivals
   in class order, give the occupancy and the mode over every span between
   events, clipped at the warmup. Busy time, time per mode and each
   segment's busy time are sequential cumulative sums of the same products
   a per-event loop would add, in the same order, so every float is bitwise
   the one that loop gives. An arrival counts toward the segment whose
   [start, end) holds its time, and run totals sum the segments.

Scenarios that differ only in their scheme take the same windows of one
walk in :func:`_run_schemes`; :func:`run_simulation` is that runner with one.
A traced run keeps each window's arrivals as arrays, joined once into the
report's :class:`ArrivalTrace`.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from enum import Enum
from heapq import heappop, heappush

import numpy as np

from .traffic import (
    _FLOOR_SLACK,
    MIN_GAP,
    RateVector,
    SystemParams,
    ThresholdVector,
    _check_fit,
    _class_index,
    as_rate_vector,
)

# Exponential draws fetched from a random stream at a time, and the most
# draws of one class in a round of the arrival walk.
_DRAW_BLOCK = 1024
# Arrivals walked ahead before an arrival window is cut, so a window holds
# at most this many plus one round of the walk. Wide windows spread the
# fixed cost of each window's numpy calls over many arrivals.
_WINDOW_ARRIVALS = 4096
# Share of a run's horizon that is warmup by default, excluded from statistics.
_WARMUP_SHARE = 0.1


def _check_seed(field: str, seed) -> None:
    """ValueError unless ``seed`` is an int a random stream accepts: one at least 0."""
    if not (isinstance(seed, int) and seed >= 0):
        raise ValueError(f"{field} must be non-negative: a seed is an int >= 0, got {seed!r}")


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
    warmup: leading time span excluded from statistics; defaults to
        ``_WARMUP_SHARE`` of the horizon.
    fixed_thresholds: availability limits for the FIXED_GUARD scheme.
    record_trace: when set, the report carries every arrival, warmup
        included, as an :class:`ArrivalTrace` of (time, class, admitted)
        for exact run-to-run comparisons. It costs about 10 bytes per
        arrival.
    """

    params: SystemParams
    schedule: tuple[tuple[float, RateVector], ...]
    horizon: float
    seed: int
    scheme: Scheme = Scheme.DYNAMIC
    warmup: float | None = None
    fixed_thresholds: ThresholdVector | None = None
    record_trace: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.horizon <= sys.float_info.max:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        _check_seed("seed", self.seed)
        if not self.schedule:
            raise ValueError("schedule must have at least one segment")
        normalized = []
        prev_start = None
        for start, rates in self.schedule:
            if not abs(start) <= sys.float_info.max:  # float() raises OverflowError beyond it
                raise ValueError(f"segment start {start} is not inside [0, horizon)")
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
            object.__setattr__(self, "warmup", _WARMUP_SHARE * self.horizon)
        if not 0.0 <= self.warmup < self.horizon:
            raise ValueError(f"warmup must lie in [0, horizon), got {self.warmup!r}")
        if self.scheme is Scheme.FIXED_GUARD:
            if self.fixed_thresholds is None:
                raise ValueError("FIXED_GUARD needs explicit fixed_thresholds")
            _check_fit("fixed_thresholds", self.fixed_thresholds.limits, self.params)
        elif self.fixed_thresholds is not None:
            raise ValueError("fixed_thresholds only applies to the FIXED_GUARD scheme")


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
        idx = _class_index(cls, len(self.offered))
        if self.offered[idx] == 0:
            return None
        return self.blocked[idx] / self.offered[idx]

    def blocking_stderr(self, cls: int) -> float | None:
        idx = _class_index(cls, len(self.offered))
        return blocking_stderr(self.blocked[idx], self.offered[idx])


@dataclass(frozen=True, eq=False, repr=False)
class ArrivalTrace:
    """Every arrival of a run in event order, as three read-only arrays.

    ``times`` (float64), ``classes`` (1-based, in the smallest integer type
    that holds M) and ``admitted`` (bool), one entry per arrival. The trace
    reads as the tuple of ``(time, class, admitted)`` tuples of Python
    scalars it stands for: ``len``, iteration, int indexing and ``repr``
    give what that tuple gives, and a slice is a trace. Traces are equal
    when their arrivals are, and hashable. A trace marks the arrays it is
    given read-only.
    """

    times: np.ndarray
    classes: np.ndarray
    admitted: np.ndarray

    def __post_init__(self) -> None:
        if not self.times.ndim == self.classes.ndim == self.admitted.ndim == 1:
            raise ValueError("a trace's times, classes and admitted must be 1-D arrays")
        if not len(self.times) == len(self.classes) == len(self.admitted):
            raise ValueError("a trace's times, classes and admitted must have one entry per arrival")
        for column in (self.times, self.classes, self.admitted):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return zip(self.times.tolist(), self.classes.tolist(), self.admitted.tolist())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ArrivalTrace(self.times[key], self.classes[key], self.admitted[key])
        i = operator.index(key)
        return self.times[i].item(), self.classes[i].item(), self.admitted[i].item()

    def __eq__(self, other):
        if not isinstance(other, ArrivalTrace):
            return NotImplemented
        return (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.classes, other.classes)
            and np.array_equal(self.admitted, other.admitted)
        )

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0, which equals 0.0, into 0.0.
        return hash((self.times + 0.0).tobytes())

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class SimReport:
    """Aggregate statistics of one run (post-warmup unless noted).

    ``blocking`` entries are None for classes that saw no offered calls.
    ``light_time_fraction`` / ``high_time_fraction`` split the measured time
    by which admission regime was in effect. ``event_count`` covers every
    processed event including warmup. ``trace`` is present only when the
    scenario asked for it: an :class:`ArrivalTrace` of all arrivals, warmup
    included.
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
    trace: ArrivalTrace | None = None


def _arrival_windows(rngs, class_gaps, seg_ends, horizon: float):
    """Walk every class through each segment at once and yield the arrivals
    in time-ordered windows.

    ``class_gaps[c][k]`` is class c's mean gap in segment k (None while
    silent) and ``seg_ends[k]`` the segment's end. Inside a segment each
    draw x from ``rngs[c]`` gives the class's next arrival t + x*gap; the
    first at or past the end is spent and the walk restarts at the end,
    which is exact for piecewise-constant Poisson input (memorylessness).
    So every time lies in [start, end) of the segment that drew it, and
    silent segments consume no draws.

    A segment is walked in rounds over the classes still inside it. The
    busiest one sets how far a round reaches: the segment end, or one block
    of its gaps if that comes first. Each class not past the reach takes
    its expected draws up to it, with room for the spread, as one row of a
    matrix, so the classes keep pace. A row never holds more than what is
    left of the class's block, and a class fetches ``_DRAW_BLOCK`` draws
    only when it has none left, so its stream advances as a per-draw walk's
    would. The rows are scaled by the gaps, each class's time is added to
    column 0, and one row-wise ``cumsum``, a sequential ``add.accumulate``,
    gives every time bitwise equal to the per-draw additions. A time beyond
    the float range reads inf, as a float addition gives it, and lies past
    the finite end like any other overshoot. A row that reaches the end
    leaves the segment; the others go on from their last time.

    Once a round leaves at least ``_WINDOW_ARRIVALS`` arrivals pending, a
    window is cut: every pending arrival up to the earliest time some class
    has not walked past, as ``(times, classes)`` arrays sorted by time, ties
    in class order. The last window is an end-of-run marker at the horizon
    with class -1.
    """
    blocks = [np.empty(0) for _ in rngs]
    used = [0] * len(rngs)  # draws spent from each class's block
    pending = [[np.empty(0)] for _ in rngs]  # each class's walked, unmerged time arrays
    count = 0

    def cut(upto):
        # The pending arrivals up to ``upto`` as a list of at most one window;
        # a list, not a generator, so that only the window outlives the call.
        nonlocal count
        parts = []
        for c, arrays in enumerate(pending):
            joined = np.concatenate(arrays)
            n = int(np.searchsorted(joined, upto, side="right"))
            pending[c] = [joined[n:].copy()]  # a copy, so the part cut off is freed
            parts.append(joined[:n])
        times = np.concatenate(parts)
        count -= len(times)
        order = np.argsort(times, kind="stable")
        classes = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
        return [(times[order], classes[order])] if len(times) else []

    for start, end, seg_gaps in zip([0.0, *seg_ends], seg_ends, zip(*class_gaps)):
        gaps = {c: g for c, g in enumerate(seg_gaps) if g is not None}
        at = dict.fromkeys(gaps, start)  # each class still in the segment, and its time
        while at:
            busiest = min(at, key=gaps.__getitem__)
            reach = min(end, at[busiest] + _DRAW_BLOCK * gaps[busiest])
            rows = []  # (class, draws) in this round
            for c, t in at.items():
                expected = (reach - t) / gaps[c]
                if expected < 0.0:  # already past the reach: sits this round out
                    continue
                if used[c] == len(blocks[c]):
                    blocks[c] = rngs[c].standard_exponential(_DRAW_BLOCK)
                    used[c] = 0
                # Four standard deviations of room; a share past the block,
                # inf included, takes its rest and never reaches ceil().
                share = expected + 4.0 * math.sqrt(expected) + 2.0
                left = _DRAW_BLOCK - used[c]
                rows.append((c, math.ceil(share) if share < left else left))
            acc = np.full((len(rows), max(n for _, n in rows)), math.inf)
            for r, (c, n) in enumerate(rows):
                acc[r, :n] = blocks[c][used[c]:used[c] + n]
            with np.errstate(over="ignore"):
                acc *= [[gaps[c]] for c, _ in rows]
                acc[:, 0] += [at[c] for c, _ in rows]
                np.cumsum(acc, axis=1, out=acc)
            inside = np.count_nonzero(acc < end, axis=1).tolist()
            for r, ((c, n), got) in enumerate(zip(rows, inside)):
                pending[c].append(acc[r, :got])
                count += got
                if got < n:
                    used[c] += got + 1  # the overshoot draw is spent
                    del at[c]
                else:
                    used[c] += n
                    at[c] = float(acc[r, n - 1])
            if count >= _WINDOW_ARRIVALS:
                yield from cut(min(at.values(), default=end))
    yield from cut(math.inf)
    yield np.array([horizon]), np.array([-1])


def _two_sum(a, b):
    """``a + b`` rounded, and the exact error of that rounding (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _exact_sums(addends: np.ndarray) -> np.ndarray:
    """``math.fsum`` down every column of a 2-D array, bit for bit.

    The rows go in order into a running sum with ``_two_sum``, and each
    rounding error goes the same way into a compensation term. Where every
    one of those second additions is exact as well, the sum plus the
    compensation is the column's exact sum, and rounding it once gives the
    correctly rounded result that ``math.fsum`` returns. The columns where
    one is not exact are left to ``math.fsum``.
    """
    total = addends[0]
    comp = np.zeros_like(total)
    certified = np.ones(len(total), dtype=bool)
    for k, row in enumerate(addends[1:]):
        total, err = _two_sum(total, row)
        if k:
            comp, residue = _two_sum(comp, err)
            certified &= residue == 0.0
        else:
            comp = err
    total = total + comp
    for i in np.flatnonzero(~certified):
        total[i] = math.fsum(addends[:, i].tolist())
    return total


def _admission_policy(scenario: Scenario):
    """The admission policy, as a function applied to successive arrival windows.

    ``policy(times, classes)`` takes one window's arrays and returns
    ``(limits, high)``: arrival j is admitted only while fewer than
    ``limits[j]`` channels are busy, and ``high[j]`` says whether the
    high-load mode is in force just before arrival j (``high[n]`` after the
    window's last arrival). Neither depends on an admission, so a whole
    window is computed ahead of the occupancy loop. The end-of-run marker,
    class -1, gets limit 0 and is never admitted.

    FIXED_GUARD always holds its fixed limits in the high-load mode, and
    NON_PRIORITY the shared pool in light load. DYNAMIC replays the rate
    estimator of :class:`~dynguard.traffic.RateEstimator` on every arrival,
    with the same float operations in the same order: 1/gap clamped at
    ``MIN_GAP``, the exact total rate, and the cumulative-quota floor of
    :func:`~dynguard.traffic.availability_thresholds` for the arriving
    class. Until every class has an estimate the scheme stays on the shared
    pool in light load.
    """
    params = scenario.params
    m_count = params.class_count
    capacity = params.capacity
    fixed = scenario.scheme is Scheme.FIXED_GUARD
    by_class = np.array((scenario.fixed_thresholds.limits if fixed else (capacity,) * m_count) + (0,))
    if scenario.scheme is not Scheme.DYNAMIC:
        return lambda times, classes: (by_class[classes], np.full(len(classes) + 1, fixed))

    pool = params.reservable_pool
    high_rate = params.high_load_rate
    # Estimator state carried across windows, as _observe_gap keeps it: each
    # class's latest arrival time and rate estimate, NaN until it has one.
    last_seen = np.full(m_count, np.nan)
    estimates = np.full(m_count, np.nan)
    high_now = False

    def policy(times, classes):
        nonlocal high_now
        n = len(classes)
        missing = np.isnan(estimates).any()  # some class starts the window without an estimate
        rates = np.empty((m_count, n))  # each class's estimate after each arrival
        for c in range(m_count):
            mine = classes == c
            arrived = times[mine]
            # 1/gap after each of the class's arrivals, NaN after its first ever,
            # forward-filled from the carried estimate.
            inst = 1.0 / np.maximum(arrived - np.concatenate((last_seen[c:c + 1], arrived[:-1])), MIN_GAP)
            after = np.concatenate((estimates[c:c + 1], inst))
            rates[c] = after[np.cumsum(mine)]
            estimates[c] = after[-1]
            if len(arrived):
                last_seen[c] = arrived[-1]
        # Until every class has an estimate the total stays NaN, so the mode
        # reads light. Those columns lead the window, since an estimate once
        # made stays, and are kept from _exact_sums, which would fsum each one.
        total = np.full(n, np.nan)
        ready = np.count_nonzero(np.isnan(rates).any(axis=0)) if missing else 0
        total[ready:] = _exact_sums(rates[:, ready:])
        high = np.empty(n + 1, dtype=bool)
        high[0] = high_now
        high[1:] = total >= high_rate
        high_now = bool(high[n])
        limits = by_class[classes]
        # A high-load arrival of class 2..M loses the floor of the quotas
        # reserved by the classes above it, summed in class order.
        cut = high[1:] & (classes > 0)
        if cut.any():
            cum = np.zeros(n)
            reserved = np.zeros(n)
            for c in range(1, m_count):
                cum += rates[c - 1] / total * pool
                np.copyto(reserved, cum, where=classes == c)
            np.copyto(limits, capacity - np.floor(reserved + _FLOOR_SLACK), casting="unsafe", where=cut)
        return limits, high

    return policy


def _add_in_order(total: float, values: np.ndarray) -> float:
    """``total + values[0] + values[1] + ...``, one rounding per addition, in order.

    ``cumsum`` is a sequential ``add.accumulate``; ``np.sum`` adds pairwise
    and would round differently.
    """
    if not len(values):
        return total
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


class _Tally:
    """Post-warmup statistics, added up window by window.

    Every float is the sum the per-event loop would build: the same
    products and differences, added with :func:`_add_in_order` in event
    order, with occupancy-time split at segment ends exactly where a walk
    from event to event splits it. A span that lies before the warmup or
    between simultaneous events counts as zero, and adding zero to a sum
    leaves it bitwise unchanged, so no event needs to be dropped.
    """

    def __init__(self, scenario: Scenario):
        self.capacity = scenario.params.capacity
        self.m_count = scenario.params.class_count
        self.horizon = scenario.horizon
        self.warmup = scenario.warmup
        starts = [s for s, _ in scenario.schedule]
        self.starts = np.array(starts)
        self.ends = np.array(starts[1:] + [scenario.horizon])
        # Post-warmup offered and blocked counts per segment and class.
        self.offered = np.zeros((len(starts), self.m_count), dtype=np.int64)
        self.blocked = np.zeros_like(self.offered)
        self.seg_busy = [0.0] * len(starts)
        self.busy_time = 0.0
        self.light_time = 0.0
        self.high_time = 0.0
        self.prev_t = 0.0
        self.occupied = 0
        self.events = 0  # window entries and departures, the end marker included
        # Each window's (times, classes, admitted) arrays, classes 1-based.
        self.trace = [] if scenario.record_trace else None
        self.class_type = np.min_scalar_type(self.m_count)

    def count_keys(self, times, classes):
        """A window's measured arrivals (post-warmup, not the end marker) and
        each one's count key, 2 * (segment * M + class).

        They read only the warmup and the segment table, not what was
        admitted, so tallies of scenarios equal in those can share them.
        """
        measured = times >= self.warmup
        measured &= classes >= 0
        seg = np.searchsorted(self.ends, times[measured], side="right")
        return measured, (seg * self.m_count + classes[measured]) * 2

    def add(self, times, classes, admitted, departures, high, keyed=None):
        """Account for one window and return its :meth:`count_keys`.

        ``times``/``classes`` are the window's arrivals, ``admitted`` their
        decisions, ``departures`` the departure times processed during the
        window, in order, and ``high`` the modes from the admission policy.
        ``keyed`` is the window's :meth:`count_keys` when another tally has
        made it.
        """
        d = len(departures)
        joined = np.concatenate((departures, times))
        # A stable merge of two sorted runs, departures first on ties.
        order = np.argsort(joined, kind="stable")
        t = joined[order]
        step = np.concatenate((np.full(d, -1.0), admitted))[order]
        occ = np.cumsum(step)
        occ -= step
        occ += self.occupied  # occupancy before each event, a whole float
        self.occupied = int(occ[-1] + step[-1])
        lo = np.empty_like(t)
        lo[0] = self.prev_t
        lo[1:] = t[:-1]
        self.prev_t = float(t[-1])
        np.maximum(lo, self.warmup, out=lo)
        span = t - lo
        np.maximum(span, 0.0, out=span)
        busy = occ * span
        self.busy_time = _add_in_order(self.busy_time, busy)
        if high.all():
            self.high_time = _add_in_order(self.high_time, span)
        elif not high.any():
            self.light_time = _add_in_order(self.light_time, span)
        else:
            # The mode in force up to each event is the one after the
            # arrivals ahead of it.
            is_arr = order >= d
            ahead = np.cumsum(is_arr) - is_arr
            high_span = span * high[ahead]
            self.high_time = _add_in_order(self.high_time, high_span)
            self.light_time = _add_in_order(self.light_time, span - high_span)

        ends = self.ends
        if len(ends) > 1:  # else the one segment's busy time is busy_time
            self._split_at_segment_ends(t, lo, occ, busy)

        if keyed is None:
            keyed = self.count_keys(times, classes)
        measured, keys = keyed
        if len(keys):
            # Per segment and class: [blocked, admitted] counts.
            counts = np.bincount(keys + admitted[measured], minlength=2 * self.offered.size)
            counts = counts.reshape(*self.offered.shape, 2)
            self.offered += counts.sum(axis=2)
            self.blocked += counts[:, :, 0]

        self.events += len(joined)
        if self.trace is not None:
            self.trace.append((times, (classes + 1).astype(self.class_type), admitted))
        return keyed

    def _split_at_segment_ends(self, t, lo, occ, busy):
        """Add each event's occupancy-time over (lo, t] to the segments it spans.

        ``busy`` is overwritten. A span that passes the end of the segment
        holding lo keeps the piece up to that end, and each later segment
        it reaches gets its piece ahead of its own events, as a walk from
        event to event splits it.
        """
        ends = self.ends.tolist()
        last = len(ends) - 1
        seg = np.minimum(np.searchsorted(self.ends, lo, side="right"), last)
        leading: dict[int, list[float]] = {}
        for i in np.flatnonzero(t > self.ends[seg]).tolist():
            k, end, held = int(seg[i]), float(t[i]), float(occ[i])
            busy[i] = held * (ends[k] - float(lo[i]))
            while end > ends[k]:
                k += 1
                upto = end if end < ends[k] else ends[k]
                leading.setdefault(k, []).append(held * (upto - ends[k - 1]))
        heads = np.flatnonzero(np.diff(seg, prepend=-1))  # where each segment's events start
        runs = dict(zip(seg[heads].tolist(), np.split(busy, heads[1:])))
        for k in range(int(seg[0]), max(int(seg[-1]), max(leading, default=0)) + 1):
            values = np.concatenate((leading.get(k, ()), runs.get(k, ())))
            self.seg_busy[k] = _add_in_order(self.seg_busy[k], values)

    def report(self) -> SimReport:
        capacity = self.capacity
        measured_time = self.horizon - self.warmup
        seg_busy = self.seg_busy if len(self.seg_busy) > 1 else [self.busy_time]
        seg_stats = []
        for k, (start, end) in enumerate(zip(self.starts.tolist(), self.ends.tolist())):
            win = max(0.0, end - max(start, self.warmup))
            seg_stats.append(
                SegmentStats(
                    start=start,
                    end=end,
                    offered=tuple(self.offered[k].tolist()),
                    blocked=tuple(self.blocked[k].tolist()),
                    utilization=seg_busy[k] / (capacity * win) if win > 0 else 0.0,
                    measured_time=win,
                )
            )
        offered = tuple(self.offered.sum(axis=0).tolist())
        blocked = tuple(self.blocked.sum(axis=0).tolist())
        trace = None
        if self.trace is not None:
            # One join per column; its last entry is the end-of-run marker.
            trace = ArrivalTrace(*(np.concatenate(column)[:-1] for column in zip(*self.trace)))
        return SimReport(
            offered=offered,
            blocked=blocked,
            blocking=tuple(b / o if o > 0 else None for b, o in zip(blocked, offered)),
            blocking_stderr=tuple(blocking_stderr(b, o) for b, o in zip(blocked, offered)),
            utilization=self.busy_time / (capacity * measured_time),
            light_time_fraction=self.light_time / measured_time,
            high_time_fraction=self.high_time / measured_time,
            event_count=self.events - 1,
            segments=tuple(seg_stats),
            trace=trace,
        )


class _Lane:
    """One scheme's part of a shared run: its admission policy, its own copy
    of the holding-time stream, its pending departures and its tally."""

    def __init__(self, scenario: Scenario, holding_seq):
        self.policy = _admission_policy(scenario)
        self.holding_rng = np.random.default_rng(holding_seq)
        self.holding_scale = 1.0 / scenario.params.service_rate
        # Holding times, fetched in blocks and scaled in numpy, and how many
        # are used: ``standard_exponential(n)[i] * scale`` is bitwise equal
        # to the i-th of n successive ``exponential(scale)`` calls.
        self.holds: list[float] = []
        self.used = 0
        # Pending departure times. The infinite sentinel is never popped and
        # keeps deps[0] defined, so len(deps) - 1 channels are busy.
        self.deps = [math.inf]
        self.tally = _Tally(scenario)

    def advance(self, times, classes, tlist, keyed):
        """Take one arrival window through the policy, the occupancy loop and
        the tally; ``keyed`` and the return value are as in :meth:`_Tally.add`."""
        limits, high = self.policy(times, classes)
        # Admission needs fewer busy channels than the limit, so no limit
        # above the capacity means the occupancy never exceeds it.
        assert limits.max() <= self.tally.capacity
        # Enough holding times for every arrival of the window to be admitted.
        holds, used = self.holds, self.used
        while len(holds) - used < len(tlist):
            # A mean holding time near the float limit overflows to inf, a valid time.
            with np.errstate(over="ignore", invalid="ignore"):
                block = self.holding_rng.standard_exponential(_DRAW_BLOCK) * self.holding_scale
            holds = holds[used:] + block.tolist()
            used = 0
        deps = self.deps
        decisions = bytearray()  # one 0/1 byte per arrival
        departures = []
        for t, limit in zip(tlist, limits.tolist()):
            # Departures at or before this arrival go first; the end marker
            # sits at the horizon, so departures there still count.
            while deps[0] <= t:
                departures.append(heappop(deps))
            if len(deps) <= limit:  # fewer than limit channels busy
                heappush(deps, t + holds[used])
                used += 1
                decisions.append(1)
            else:
                decisions.append(0)
        self.holds, self.used = holds, used
        return self.tally.add(
            times, classes, np.frombuffer(decisions, dtype=bool),
            np.fromiter(departures, float, len(departures)), high, keyed,
        )


def _run_schemes(scenarios) -> list[SimReport]:
    """Run scenarios equal but for ``scheme`` and ``fixed_thresholds`` on the same arrivals.

    The arrivals are drawn and cut into windows once, and every scheme
    takes each window in turn through its own three stages, so memory
    stays bounded by a window. Each scheme draws holding times from its own
    copy of the holding stream, so every report is bitwise its scenario's
    run alone. Any other difference between the scenarios is a ValueError.
    """
    first = scenarios[0]
    for other in scenarios[1:]:
        if replace(other, scheme=first.scheme, fixed_thresholds=first.fixed_thresholds) != first:
            raise ValueError("scenarios run together may differ only in scheme and fixed_thresholds")
    m_count = first.params.class_count
    horizon = first.horizon

    # Segment ends, and each segment's mean gap per class (None while silent).
    seg_ends = [s for s, _ in first.schedule[1:]] + [horizon]
    seg_gaps = [[1.0 / r if r > 0.0 else None for r in rates] for _, rates in first.schedule]

    child_seqs = np.random.SeedSequence(first.seed).spawn(m_count + 1)
    rngs = [np.random.default_rng(s) for s in child_seqs[:m_count]]
    windows = _arrival_windows(rngs, list(zip(*seg_gaps)), seg_ends, horizon)
    lanes = [_Lane(scenario, child_seqs[m_count]) for scenario in scenarios]
    for times, classes in windows:
        tlist = times.tolist()
        # The first tally makes the count keys after its loop, not ahead of
        # it, so a run alone allocates in the order it always did (its peak
        # resident memory depends on that order).
        keyed = None
        for lane in lanes:
            keyed = lane.advance(times, classes, tlist, keyed)

    for lane in lanes:
        # The tally's admissions minus departures must leave the loop's occupancy.
        assert lane.tally.occupied == len(lane.deps) - 1
    return [lane.tally.report() for lane in lanes]


def run_simulation(scenario: Scenario) -> SimReport:
    """Run one scenario to its horizon and report blocking and utilization."""
    return _run_schemes([scenario])[0]
