"""Acceptance gates.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them) and enforces both
its numeric tolerance and its runtime budget.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dynguard import (
    Scenario,
    Scheme,
    SystemParams,
    ThresholdVector,
    availability_thresholds,
    blocking_report,
    build_chain,
    erlang_b,
    quasi_stationary_curve,
    run_simulation,
    steady_state,
    steady_state_oracle,
)


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({name}): FAIL [{time.perf_counter() - start:.1f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {num} ({name}): PASS [{elapsed:.1f}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on the exhaustive small grid", 10.0):
        rate_values = (0.0, 0.5, 1.0, 3.0)
        checked = 0
        for n in range(1, 9):
            for n2 in range(n + 1):
                for n3 in range(n2 + 1):
                    tv = ThresholdVector((n, n2, n3))
                    for rates in itertools.product(rate_values, repeat=3):
                        chain = build_chain(tv, rates, 1.0)
                        fast = steady_state(chain).probabilities
                        dense = steady_state_oracle(chain).probabilities
                        assert max(
                            abs(a - b) for a, b in zip(fast, dense)
                        ) < 1e-10
                        checked += 1
        assert checked == 10496


def test_criterion_2_derived_benchmark():
    with criterion(2, "derived benchmark chain", 1.0):
        tv = ThresholdVector((4, 3, 2))
        rates = (1.0, 1.0, 1.0)
        # recompute the expectations from the dense solve before trusting them
        dense = steady_state_oracle(build_chain(tv, rates, 1.0))
        reference = blocking_report(dense, tv, rates, 1.0)
        assert reference.blocking == pytest.approx(
            (0.061224489795918, 0.306122448979592, 0.673469387755102), abs=1e-9
        )
        assert reference.utilization == pytest.approx(0.489795918367347, abs=1e-9)

        rep = blocking_report(steady_state(build_chain(tv, rates, 1.0)), tv, rates, 1.0)
        assert rep.blocking == pytest.approx(reference.blocking, abs=1e-9)
        assert rep.utilization == pytest.approx(reference.utilization, abs=1e-9)


def test_criterion_3_erlang_b_degeneracy():
    with criterion(3, "degenerate thresholds reproduce the shared pool", 1.0):
        assert abs(erlang_b(1, 1.0) - 0.5) < 1e-12
        assert abs(erlang_b(2, 1.0) - 0.2) < 1e-12
        tv1 = ThresholdVector((1,))
        dist = steady_state(build_chain(tv1, (1.0,), 1.0))
        assert abs(dist.tail(1) - 0.5) < 1e-12
        tv2 = ThresholdVector((2,))
        dist = steady_state(build_chain(tv2, (1.0,), 1.0))
        assert abs(dist.tail(2) - 0.2) < 1e-12

        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 101))
            m = int(rng.integers(1, 6))
            offered = float(rng.uniform(0.05, 2.0 * n))
            shares = rng.dirichlet(np.ones(m))
            rates = tuple(float(s * offered) for s in shares)
            tv = ThresholdVector((n,) * m)
            rep = blocking_report(
                steady_state(build_chain(tv, rates, 1.0)), tv, rates, 1.0
            )
            expected = erlang_b(n, offered)
            for b in rep.blocking:
                assert abs(b - expected) < 1e-12
            assert max(rep.blocking) - min(rep.blocking) < 1e-12


def test_criterion_4_priority_monotonicity_on_regression_grid():
    with criterion(4, "priority order and top-class gain on the default grid", 5.0):
        params = SystemParams(40, 20, service_rate=1.0, load_threshold=0.925)
        mix = (0.4, 0.3, 0.3)
        grid = [20.0 + k * 60.0 / 15 for k in range(16)]
        reports = quasi_stationary_curve(params, mix, grid)
        for lam_total, rep in zip(grid, reports):
            b1, b2, b3 = rep.blocking
            assert b1 <= b2 <= b3
            if lam_total >= params.high_load_rate:
                assert b1 < erlang_b(40, lam_total)


def test_criterion_5_simulator_matches_analytic_chain():
    with criterion(5, "frozen-guard simulation vs analytic chain", 60.0):
        params = SystemParams(4, 0, class_count=3)
        tv = ThresholdVector((4, 3, 2))
        rates = (1.0, 1.0, 1.0)
        analytic = blocking_report(
            steady_state(build_chain(tv, rates, 1.0)), tv, rates, 1.0
        )
        scenario = Scenario(
            params=params,
            schedule=((0.0, rates),),
            horizon=1_000_000 / 3.0 / 0.9,
            seed=2,
            scheme=Scheme.FIXED_GUARD,
            fixed_thresholds=tv,
        )
        rep = run_simulation(scenario)
        assert sum(rep.offered) >= 1_000_000
        for m in range(3):
            assert (
                abs(rep.blocking[m] - analytic.blocking[m])
                <= 3 * rep.blocking_stderr[m]
            )
        assert abs(rep.utilization - analytic.utilization) < 0.01


def test_criterion_6_light_mode_transparency():
    with criterion(6, "light-load trace identical to the shared pool", 10.0):
        params = SystemParams(10, 5)
        rates = (4.0, 3.0, 0.0)  # total 7 < 10/0.925 throughout
        assert math.fsum(rates) < params.high_load_rate
        base = dict(
            params=params,
            schedule=((0.0, rates),),
            horizon=3_000.0,
            seed=42,
            record_trace=True,
        )
        dyn = run_simulation(Scenario(scheme=Scheme.DYNAMIC, **base))
        shared = run_simulation(Scenario(scheme=Scheme.NON_PRIORITY, **base))
        assert dyn.light_time_fraction == 1.0
        assert dyn.trace == shared.trace  # exact, event by event
        assert any(not admitted for _, _, admitted in dyn.trace)


def test_criterion_7_dynamic_adaptation_beats_frozen_guards():
    with criterion(7, "adaptation to a traffic-mix reversal", 120.0):
        params = SystemParams(40, 20)
        lam_total = 48.0  # above 40/0.925 in both phases
        assert lam_total >= params.high_load_rate
        phase1 = tuple(p * lam_total for p in (0.5, 0.3, 0.2))
        phase2 = tuple(p * lam_total for p in (0.1, 0.3, 0.6))
        frozen = availability_thresholds(phase1, params)

        schedule = ((0.0, phase1), (5050.0, phase2))
        horizon, warmup = 9217.0, 880.0
        runs = {}
        for scheme, tv in (
            (Scheme.DYNAMIC, None),
            (Scheme.FIXED_GUARD, frozen),
        ):
            rep = run_simulation(
                Scenario(
                    params=params,
                    schedule=schedule,
                    horizon=horizon,
                    warmup=warmup,
                    seed=11,
                    scheme=scheme,
                    fixed_thresholds=tv,
                )
            )
            for seg in rep.segments:
                assert sum(seg.offered) >= 200_000
            runs[scheme] = rep.segments[1]

        dyn, fixed = runs[Scheme.DYNAMIC], runs[Scheme.FIXED_GUARD]
        gap = fixed.blocking(3) - dyn.blocking(3)
        combined_se = math.hypot(fixed.blocking_stderr(3), dyn.blocking_stderr(3))
        assert gap > 3 * combined_se
        assert dyn.blocking(1) < erlang_b(40, lam_total)


def test_criterion_8_randomized_invariant_battery():
    with criterion(8, "invariants across 1000 random configurations", 30.0):
        rng = np.random.default_rng(88)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            m = int(rng.integers(1, 6))
            floor = int(rng.integers(0, n + 1))
            mu = float(rng.uniform(0.25, 4.0))
            params = SystemParams(n, floor, service_rate=mu, class_count=m)
            rates = rng.uniform(0.0, 2.0 * n * mu / m, m)
            if rates.sum() == 0.0:
                rates[0] = 1.0
            rates = tuple(float(r) for r in rates)
            lam_total = math.fsum(rates)

            tv = availability_thresholds(rates, params)
            assert tv.limits[0] == n
            assert all(a >= b for a, b in zip(tv.limits, tv.limits[1:]))
            assert tv.limits[-1] >= floor
            expected_quota = (lam_total - rates[-1]) / lam_total * (n - floor)
            assert math.fsum(tv.quotas) == pytest.approx(
                expected_quota, rel=1e-12, abs=1e-12
            )
            scale = float(10.0 ** rng.uniform(-3, 3))
            scaled_tv = availability_thresholds(tuple(scale * r for r in rates), params)
            assert scaled_tv.limits == tv.limits

            chain = build_chain(tv, rates, mu)
            dist = steady_state(chain)
            probs = dist.probabilities
            assert abs(math.fsum(probs) - 1.0) < 1e-12
            for i in range(n):
                up = chain.birth_rates[i] * probs[i]
                down = (i + 1) * mu * probs[i + 1]
                scale_ref = max(up, down)
                if scale_ref > 1e-250:  # below that both sides are denormal dust
                    assert abs(up - down) <= 1e-10 * scale_ref
            rep = blocking_report(dist, tv, rates, mu)
            if rep.mean_occupancy > 0:
                admitted = math.fsum(lam * (1.0 - b) for lam, b in zip(rates, rep.blocking)) / mu
                assert admitted == pytest.approx(rep.mean_occupancy, rel=1e-9)
