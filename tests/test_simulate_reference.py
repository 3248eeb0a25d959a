"""The windowed simulator against a per-event reference loop, bit for bit.

``reference_run`` is the simulator as one Python loop over every event,
on arrivals it draws one at a time with ``per_draw_walk``: each departure
and arrival updates the time integrals, the segment walk and
the DYNAMIC estimator in turn. ``run_simulation`` splits that work into a
vectorised admission policy, an occupancy-only loop and vectorised
statistics; the tests here require ``repr`` of both reports to be equal,
which pins every count, every float and the trace.
"""

import math
import random
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynguard import Scenario, Scheme, SystemParams, ThresholdVector, availability_thresholds, run_simulation
from dynguard.markov import _exact_sums
from dynguard.simulate import SegmentStats, SimReport, _admission_policy, blocking_stderr
from dynguard.traffic import MIN_GAP, _class_limit, _observe_gap
from walks import exponentials, per_draw_walk


def reference_run(scenario: Scenario) -> SimReport:
    """The per-event simulator loop, kept as the reference for run_simulation."""
    params = scenario.params
    m_count = params.class_count
    capacity = params.capacity
    pool = params.reservable_pool
    high_rate = params.high_load_rate
    horizon = scenario.horizon
    warmup = scenario.warmup
    dynamic = scenario.scheme is Scheme.DYNAMIC

    starts = [s for s, _ in scenario.schedule]
    seg_ends = starts[1:] + [horizon]
    class_gaps = [
        [1.0 / rates[idx] if rates[idx] > 0.0 else None for _, rates in scenario.schedule]
        for idx in range(m_count)
    ]

    seed_seq = np.random.SeedSequence(scenario.seed)
    child_seqs = seed_seq.spawn(m_count + 1)
    # Every class's arrivals, drawn one at a time, in time order with ties
    # in class order, then the end-of-run marker.
    arrivals = sorted(
        (t, idx)
        for idx, (s, gaps) in enumerate(zip(child_seqs, class_gaps))
        for t, _ in per_draw_walk(np.random.default_rng(s), gaps, seg_ends)
    )
    arrivals.append((horizon, -1))
    holding_draws = exponentials(np.random.default_rng(child_seqs[m_count]))
    holding_scale = 1.0 / params.service_rate
    deps = [math.inf]

    if scenario.scheme is Scheme.FIXED_GUARD:
        limits = scenario.fixed_thresholds.limits
        mode_high = True
    else:
        limits = (capacity,) * m_count
        mode_high = False
    last_seen = [None] * m_count
    estimates = [None] * m_count
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
    trace = [] if scenario.record_trace else None

    prev_t = 0.0
    seg = 0

    for na, idx in arrivals:
        while True:
            departing = deps[0] <= na
            t = heappop(deps) if departing else na
            lo = prev_t if prev_t > warmup else warmup
            if t > lo:
                span = t - lo
                busy_time += occupied * span
                if mode_high:
                    high_time += span
                else:
                    light_time += span
                if t <= seg_ends[seg]:
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
        if idx < 0:
            break
        while seg_ends[seg] <= t:
            seg += 1

        limit = limits[idx]
        if dynamic:
            if _observe_gap(last_seen, estimates, idx, t):
                missing -= 1
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
        event_count=len(arrivals) - 1 + departed_total,
        segments=tuple(seg_stats),
        trace=tuple(trace) if trace is not None else None,
    )


def random_scenario(seed: int, scheme: Scheme) -> Scenario:
    """A small random scenario: up to 6 segments, silent phases, any warmup."""
    rnd = random.Random(seed)
    m_count = rnd.randint(1, 5)
    capacity = rnd.randint(2, 16)
    params = SystemParams(capacity, rnd.randint(0, capacity), class_count=m_count)
    horizon = rnd.uniform(5.0, 60.0)
    starts = sorted({0.0} | {round(rnd.uniform(0.0, horizon), 1) for _ in range(rnd.randint(0, 5))})
    starts = [s for s in starts if s < horizon]
    schedule = tuple(
        (s, tuple(0.0 if rnd.random() < 0.25 else rnd.uniform(0.1, 3.0) * capacity / m_count
                  for _ in range(m_count)))
        for s in starts
    )
    # Warmup anywhere, exactly at a segment start, or none.
    warmup = rnd.choice([rnd.uniform(0.0, horizon), rnd.choice(starts), 0.0])
    fixed = None
    if scheme is Scheme.FIXED_GUARD:
        fixed = ThresholdVector(tuple(sorted(
            [capacity] + [rnd.randint(0, capacity) for _ in range(m_count - 1)], reverse=True
        )))
    return Scenario(
        params=params, schedule=schedule, horizon=horizon, seed=seed, scheme=scheme,
        warmup=warmup, fixed_thresholds=fixed, record_trace=rnd.random() < 0.5,
    )


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("seed", range(40))
def test_random_scenarios_match_the_reference(scheme, seed):
    scenario = random_scenario(seed, scheme)
    assert repr(run_simulation(scenario)) == repr(reference_run(scenario))


N40 = SystemParams(40, 20)
FIXED40 = ThresholdVector((40, 32, 26))


@pytest.mark.parametrize(
    "scenario",
    [
        # About 30k arrivals per class: several windows of several chunks each.
        Scenario(params=N40, schedule=((0.0, (19.2, 14.4, 14.4)),), horizon=2000.0, seed=21),
        Scenario(params=N40, schedule=((0.0, (19.2, 14.4, 14.4)),), horizon=2000.0, seed=22,
                 record_trace=True),
        Scenario(params=N40, schedule=((0.0, (19.2, 14.4, 14.4)),), horizon=1000.0, seed=23,
                 scheme=Scheme.FIXED_GUARD, fixed_thresholds=FIXED40, record_trace=True),
        Scenario(params=N40, schedule=((0.0, (19.2, 14.4, 14.4)),), horizon=1000.0, seed=24,
                 scheme=Scheme.NON_PRIORITY),
        # 80 alternating segments with silent phases; the warmup sits exactly
        # on a segment start, and many spans cross segment ends.
        Scenario(
            params=SystemParams(40, 20, class_count=5),
            schedule=tuple(
                (k * 5.0, (0.0,) * 5 if k % 4 == 3 else tuple(p * (20.0, 60.0)[k % 2]
                                                             for p in (0.3, 0.25, 0.2, 0.15, 0.1)))
                for k in range(80)
            ),
            horizon=400.0, seed=25, warmup=35.0, record_trace=True,
        ),
        # Mean holding time 1e308: most holding times overflow to inf.
        Scenario(params=SystemParams(4, 2, service_rate=1e-308), schedule=((0.0, (1.0, 1.0, 1.0)),),
                 horizon=50.0, seed=26, record_trace=True),
    ],
    ids=["dynamic", "dynamic-trace", "fixed-trace", "nonpriority", "schedule", "overflowing-holds"],
)
def test_long_runs_match_the_reference(scenario):
    assert repr(run_simulation(scenario)) == repr(reference_run(scenario))


def _fsum_bitwise(rows):
    got = _exact_sums(np.array(rows, dtype=float).reshape(len(rows), -1).T)
    return [float(x).hex() for x in got] == [math.fsum(r).hex() for r in rows]


# Rates the estimator can produce: positive, at most 1/MIN_GAP.
_rates = st.floats(min_value=1e-6, max_value=1.0 / MIN_GAP, allow_nan=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(st.lists(_rates, min_size=m, max_size=m),
                                                   min_size=1, max_size=20)))
def test_exact_sums_equal_fsum(rows):
    assert _fsum_bitwise(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 1.0, 1.0]],  # exact ties
        [[0.1, 0.1, 0.1, 0.1, 0.1, 0.1]],
        [[1.0, 2.0 ** -53, 2.0 ** -53], [2.0 ** -53, 2.0 ** -53, 1.0]],  # a rounding tie
        [[1.5, 0.75, 0.375, 3.0]],  # addends one binade apart
        [[1.0 / MIN_GAP, 1.0 / MIN_GAP, 0.3], [1.0 / MIN_GAP, 1e-6, 1e-6]],  # the MIN_GAP clamp
        # No certificate: the compensation cannot hold the last error, and
        # only math.fsum rounds the first row up.
        [[1.0, 2.0 ** -53, 2.0 ** -106], [1.0, 1e-30, 1e-60]],
        [[7.0]],
    ],
)
def test_exact_sums_edge_cases(rows):
    assert _fsum_bitwise(rows)


def test_dynamic_mode_takes_the_exact_total_rate():
    # Gaps of 2**-12, 2**41 and 2**41 give estimates whose exact sum is the
    # HIGH boundary 2**12 + 2**-40; added one at a time they round down to
    # 2**12, one ulp below it. Only the exact total turns the mode HIGH after
    # the last arrival and cuts that class-3 arrival's limit.
    boundary = 2.0**12 + 2.0**-40
    params = SystemParams(10, 5, load_threshold=10 / boundary)
    estimates = (2.0**12, 2.0**-41, 2.0**-41)
    assert params.high_load_rate == boundary == math.fsum(estimates)
    assert (estimates[0] + estimates[1]) + estimates[2] < boundary
    scenario = Scenario(
        params=params, schedule=((0.0, (1.0, 1.0, 1.0)),), horizon=2.0**42, seed=0, scheme=Scheme.DYNAMIC
    )
    times = np.array([0.0, 0.0, 1.0, 1.0 + 2.0**-12, 2.0**41, 2.0**41])
    classes = np.array([1, 2, 0, 0, 1, 2])
    limits, high = _admission_policy(scenario)(times, classes)
    assert high.tolist() == [False] * 6 + [True]
    assert limits.tolist() == [10] * 5 + [availability_thresholds(estimates, params).limits[2]]
    assert limits[5] < 10
