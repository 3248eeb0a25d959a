"""Per-layer timings taken from outside, through each module's public functions.

``traffic`` is timed by replaying recorded arrival traces through the
public ``RateEstimator.observe``/``rates`` and ``availability_thresholds``
in the order the simulator recomputes them. The simulator's own recompute
calls the private ``_threshold_limits``, so the thresholds figure also
holds the rate validation, per-class quotas and ``ThresholdVector`` build
that its path skips. ``markov`` and ``simulate`` are timed by calls on the
sizes the ROADMAP baselines quote (N=40 and N=5000, lambda=48).
"""

from __future__ import annotations

import math
import statistics
import time

from dynguard import (
    RateEstimator,
    Scenario,
    Scheme,
    SystemParams,
    ThresholdVector,
    availability_thresholds,
    blocking_report,
    build_chain,
    erlang_b,
    load_config,
    quasi_stationary_curve,
    run_simulation,
    steady_state,
)

MIX3 = (0.4, 0.3, 0.3)
N40 = SystemParams(capacity=40, common_floor=20)
N5000 = SystemParams(capacity=5000, common_floor=2500)
REGRESSION_GRID = tuple(20.0 + 4.0 * k for k in range(16))
FIXED40 = ThresholdVector((40, 32, 26))
SIM_ARRIVALS = 30_000
REPLAY_CHUNK = 10_000


def per_call_s(fn, min_total_s: float = 0.15, min_reps: int = 5) -> float:
    """Median seconds of one ``fn()`` over enough repetitions."""
    times = []
    while len(times) < min_reps or sum(times) < min_total_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def replay(trace, params: SystemParams, priors) -> dict:
    """Feed an arrival trace to the public traffic functions, one recompute per arrival.

    Returns mean ns per ``observe``, per ``rates`` and per
    ``availability_thresholds`` call (the last only where the estimated
    load is high, as in the simulator), and how many arrivals changed the
    limits in effect.
    """
    high_rate = params.high_load_rate
    est = RateEstimator(priors=tuple(priors))
    ns = {"observe": 0, "rates": 0, "thresholds": 0}
    n_thresholds = 0
    limits_now = None
    changes = 0
    for lo in range(0, len(trace), REPLAY_CHUNK):
        chunk = trace[lo : lo + REPLAY_CHUNK]
        states = []
        t0 = time.perf_counter_ns()
        for t, cls, _ in chunk:
            est = est.observe(cls, t)
            states.append(est)
        t1 = time.perf_counter_ns()
        rates = [s.rates() if s.ready else None for s in states]
        t2 = time.perf_counter_ns()
        high = [r for r in rates if r is not None and math.fsum(r) >= high_rate]
        t3 = time.perf_counter_ns()
        limits = [availability_thresholds(r, params).limits for r in high]
        t4 = time.perf_counter_ns()
        ns["observe"] += t1 - t0
        ns["rates"] += t2 - t1
        ns["thresholds"] += t4 - t3
        n_thresholds += len(high)
        it = iter(limits)
        for r in rates:
            if r is None:
                continue
            new = next(it) if math.fsum(r) >= high_rate else None
            changes += new != limits_now
            limits_now = new
    n = len(trace)
    return {
        "observe_ns": ns["observe"] / n,
        "rates_ns": ns["rates"] / n,
        "thresholds_ns": ns["thresholds"] / max(n_thresholds, 1),
        "changes_per_arrival": changes / n,
    }


def _sim(params, rates, scheme, seed, record_trace=False, fixed=None):
    horizon = SIM_ARRIVALS / (0.9 * math.fsum(rates))
    return Scenario(
        params=params, schedule=((0.0, rates),), horizon=horizon, seed=seed,
        scheme=scheme, fixed_thresholds=fixed, record_trace=record_trace,
    )


def _events_per_s(scenario: Scenario, reps: int = 3) -> float:
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        report = run_simulation(scenario)
        rates.append(report.event_count / (time.perf_counter() - t0))
    return statistics.median(rates)


def simulate_and_traffic(seed: int, schedule: Scenario) -> dict:
    """Event-loop throughput per scheme, plus the traffic replays of two traces."""
    rates48 = tuple(p * 48.0 for p in MIX3)
    out = {
        "simulate.events_per_s.dynamic": _events_per_s(_sim(N40, rates48, Scheme.DYNAMIC, seed)),
        "simulate.events_per_s.fixed": _events_per_s(
            _sim(N40, rates48, Scheme.FIXED_GUARD, seed, fixed=FIXED40)
        ),
        "simulate.events_per_s.nonpriority": _events_per_s(
            _sim(N40, rates48, Scheme.NON_PRIORITY, seed)
        ),
    }
    t0 = time.perf_counter()
    sched = run_simulation(schedule)
    out["simulate.events_per_s.schedule"] = sched.event_count / (time.perf_counter() - t0)

    m3 = run_simulation(_sim(N40, rates48, Scheme.DYNAMIC, seed, record_trace=True))
    r3 = replay(m3.trace, N40, rates48)
    r5 = replay(sched.trace, schedule.params, schedule.schedule[0][1])
    out.update(
        {
            "traffic.observe_ns.m3": r3["observe_ns"],
            "traffic.observe_ns.m5": r5["observe_ns"],
            "traffic.rates_ns.m5": r5["rates_ns"],
            "traffic.thresholds_ns.m3": r3["thresholds_ns"],
            "traffic.thresholds_ns.m5": r5["thresholds_ns"],
            "traffic.threshold_changes_per_arrival.m5": r5["changes_per_arrival"],
        }
    )
    return out


def markov_and_config(config_path) -> dict:
    """Chain build, solve and report at N=40 and N=5000, the 16-point curve, config load."""
    rates48 = tuple(p * 48.0 for p in MIX3)
    thr40 = availability_thresholds(rates48, N40)
    chain40 = build_chain(thr40, rates48, 1.0)
    rates7500 = tuple(p * 7500.0 for p in MIX3)
    thr5000 = availability_thresholds(rates7500, N5000)
    chain5000 = build_chain(thr5000, rates7500, 1.0)
    dist5000 = steady_state(chain5000)
    return {
        "markov.build_chain_ms.n40": 1e3 * per_call_s(lambda: build_chain(thr40, rates48, 1.0)),
        "markov.build_chain_ms.n5000": 1e3 * per_call_s(lambda: build_chain(thr5000, rates7500, 1.0)),
        "markov.steady_state_ms.n40": 1e3 * per_call_s(lambda: steady_state(chain40)),
        "markov.steady_state_ms.n5000": 1e3 * per_call_s(lambda: steady_state(chain5000)),
        "markov.blocking_report_ms.n5000": 1e3 * per_call_s(
            lambda: blocking_report(dist5000, thr5000, rates7500, 1.0)
        ),
        "markov.erlang_b_us.n5000": 1e6 * per_call_s(lambda: erlang_b(5000, 7500.0)),
        "markov.curve_ms.n40x16": 1e3 * per_call_s(
            lambda: quasi_stationary_curve(N40, MIX3, REGRESSION_GRID)
        ),
        "config.load_config_ms": 1e3 * per_call_s(lambda: load_config(config_path)),
    }
