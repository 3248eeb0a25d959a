"""Chain construction, the two steady-state solvers, and blocking reports."""

import math

import numpy as np
import pytest

from dynguard import (
    BirthDeathChain,
    SystemParams,
    ThresholdVector,
    blocking_report,
    build_chain,
    erlang_b,
    nonpriority_report,
    quasi_stationary_curve,
    steady_state,
    steady_state_oracle,
)

# Benchmark configuration: N=4, limits (4,3,2), unit rates. The stationary
# weights are exactly (1, 3, 4.5, 3, 0.75)/12.25, so everything below is an
# exact rational.
BENCH_TV = ThresholdVector((4, 3, 2))
BENCH_RATES = (1.0, 1.0, 1.0)
BENCH_B = (3 / 49, 15 / 49, 33 / 49)
BENCH_UTIL = 24 / 49

# Frozen from the dense global-balance solve: N=10, floor 5, rates (4,4,4),
# limits (10, 9, 7).
HIGH_EXAMPLE_B = (0.082813728828694, 0.289848050900430, 0.755675275561837)
HIGH_EXAMPLE_UTIL = 0.748665177883616


def random_chain(rng, max_capacity=64):
    n = int(rng.integers(1, max_capacity + 1))
    m = int(rng.integers(1, 5))
    limits = tuple(sorted((int(rng.integers(0, n + 1)) for _ in range(m - 1)), reverse=True))
    tv = ThresholdVector((n,) + limits)
    rates = tuple(float(r) for r in rng.uniform(0.0, 3.0, m))
    mu = float(rng.uniform(0.25, 4.0))
    return build_chain(tv, rates, mu), tv, rates, mu


class TestBuildChain:
    def test_segment_pattern(self):
        chain = build_chain(BENCH_TV, BENCH_RATES, 1.0)
        assert chain.birth_rates == (3.0, 3.0, 2.0, 1.0)

    def test_all_limits_at_capacity_gives_constant_rate(self):
        tv = ThresholdVector((5, 5, 5))
        chain = build_chain(tv, (1.0, 2.0, 0.5), 1.0)
        assert chain.birth_rates == (3.5,) * 5

    def test_empty_top_segment(self):
        # second class admitted everywhere: no stretch served by class 1 alone
        tv = ThresholdVector((4, 4, 2))
        chain = build_chain(tv, (1.0, 1.0, 1.0), 1.0)
        assert chain.birth_rates == (3.0, 3.0, 2.0, 2.0)

    def test_rate_count_must_match_limits(self):
        with pytest.raises(ValueError):
            build_chain(BENCH_TV, (1.0, 1.0), 1.0)

    def test_chain_rejects_increasing_births(self):
        with pytest.raises(ValueError):
            BirthDeathChain((1.0, 2.0), 1.0)


class TestSteadyState:
    def test_two_state_balance(self):
        chain = build_chain(ThresholdVector((1,)), (1.0,), 1.0)
        assert steady_state(chain).probabilities == pytest.approx((0.5, 0.5))

    def test_benchmark_weights(self):
        dist = steady_state(build_chain(BENCH_TV, BENCH_RATES, 1.0))
        expected = tuple(w / 12.25 for w in (1.0, 3.0, 4.5, 3.0, 0.75))
        assert dist.probabilities == pytest.approx(expected, abs=1e-15)

    def test_idle_system(self):
        chain = build_chain(BENCH_TV, (0.0, 0.0, 0.0), 1.0)
        assert steady_state(chain).probabilities == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_oracle_two_state(self):
        chain = build_chain(ThresholdVector((1,)), (1.0,), 1.0)
        assert steady_state_oracle(chain).probabilities == pytest.approx((0.5, 0.5))

    def test_oracle_idle_system(self):
        chain = build_chain(BENCH_TV, (0.0, 0.0, 0.0), 1.0)
        assert steady_state_oracle(chain).probabilities[0] == pytest.approx(1.0)

    def test_oracle_budget(self):
        with pytest.raises(ValueError):
            steady_state_oracle(BirthDeathChain((1.0,) * 2500, 1.0))

    def test_solvers_agree_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            chain, *_ = random_chain(rng)
            a = steady_state(chain).probabilities
            b = steady_state_oracle(chain).probabilities
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10

    def test_rate_scale_leaves_distribution_unchanged(self):
        # Scaling every birth rate and mu by s keeps each ratio birth/(i*mu),
        # so the distribution stays put. At s up to 1e250 a weight near the
        # rescale limit times a birth rate overflows, so this pins the
        # divide-first order of the recursion.
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 401))
            m = int(rng.integers(1, 5))
            limits = tuple(sorted((int(rng.integers(0, n + 1)) for _ in range(m - 1)), reverse=True))
            load = float(rng.uniform(0.1, 2.0 * n))
            rates = tuple(float(x) * load for x in rng.dirichlet(np.ones(m)))
            chain = build_chain(ThresholdVector((n,) + limits), rates, 1.0)
            s = float(10.0 ** rng.uniform(-250, 250))
            scaled = steady_state(BirthDeathChain(tuple(b * s for b in chain.birth_rates), s))
            assert all(math.isfinite(p) for p in scaled.probabilities)
            a = steady_state(chain).probabilities
            assert max(abs(x - y) for x, y in zip(a, scaled.probabilities)) < 1e-9

    def test_rescaling_keeps_large_chains_finite(self):
        # weights along the way exceed any double if materialized naively
        tv = ThresholdVector((600, 450, 300))
        chain = build_chain(tv, (500.0, 400.0, 300.0), 1.0)
        dist = steady_state(chain)
        assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert all(math.isfinite(p) for p in dist.probabilities)


class TestBlockingReport:
    def test_benchmark_values(self):
        dist = steady_state(build_chain(BENCH_TV, BENCH_RATES, 1.0))
        rep = blocking_report(dist, BENCH_TV, BENCH_RATES, 1.0)
        assert rep.blocking == pytest.approx(BENCH_B, abs=1e-12)
        assert rep.utilization == pytest.approx(BENCH_UTIL, abs=1e-12)
        assert rep.mean_occupancy == pytest.approx(96 / 49, abs=1e-12)
        assert rep.carried_load == pytest.approx(96 / 49, abs=1e-12)

    def test_degenerate_limits_reproduce_shared_pool(self):
        tv = ThresholdVector((2, 2, 2))
        rates = (0.5, 0.25, 0.25)
        dist = steady_state(build_chain(tv, rates, 1.0))
        rep = blocking_report(dist, tv, rates, 1.0)
        assert rep.blocking == pytest.approx((0.2, 0.2, 0.2), abs=1e-12)

    def test_idle_system(self):
        dist = steady_state(build_chain(BENCH_TV, (0.0, 0.0, 0.0), 1.0))
        rep = blocking_report(dist, BENCH_TV, (0.0, 0.0, 0.0), 1.0)
        assert rep.blocking == (0.0, 0.0, 0.0)
        assert rep.utilization == 0.0

    def test_capacity_mismatch_rejected(self):
        dist = steady_state(build_chain(BENCH_TV, BENCH_RATES, 1.0))
        with pytest.raises(ValueError):
            blocking_report(dist, ThresholdVector((5, 3, 2)), BENCH_RATES, 1.0)

    def test_priority_order_and_flow_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            chain, tv, rates, mu = random_chain(rng)
            rep = blocking_report(steady_state(chain), tv, rates, mu)
            assert all(a <= b for a, b in zip(rep.blocking, rep.blocking[1:]))
            if rep.mean_occupancy > 0:
                assert rep.carried_load == pytest.approx(rep.mean_occupancy, rel=1e-9)

    def test_load_scale_invariance(self):
        # same offered erlangs, different absolute time scale
        rng = np.random.default_rng(9)
        for _ in range(100):
            chain, tv, rates, mu = random_chain(rng)
            c = float(10.0 ** rng.uniform(-3, 3))
            scaled = build_chain(tv, tuple(c * r for r in rates), c * mu)
            a = blocking_report(steady_state(chain), tv, rates, mu)
            b = blocking_report(steady_state(scaled), tv, tuple(c * r for r in rates), c * mu)
            assert a.blocking == pytest.approx(b.blocking, abs=1e-12)
            assert a.utilization == pytest.approx(b.utilization, abs=1e-12)


class TestErlangB:
    def test_single_channel(self):
        assert erlang_b(1, 1.0) == pytest.approx(0.5)

    def test_two_channels(self):
        assert erlang_b(2, 1.0) == pytest.approx(0.2)

    def test_four_channels_three_erlangs(self):
        assert erlang_b(4, 3.0) == pytest.approx(0.206106870229008, abs=1e-12)

    def test_matches_uniform_chain_tail(self):
        tv = ThresholdVector((4, 4, 4))
        dist = steady_state(build_chain(tv, (1.0, 1.0, 1.0), 1.0))
        assert dist.tail(4) == pytest.approx(erlang_b(4, 3.0), abs=1e-12)

    def test_edge_cases(self):
        assert erlang_b(0, 2.0) == 1.0
        assert erlang_b(5, 0.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_b(3, -0.5)

    def test_nonpriority_utilization_saturates_at_huge_load(self):
        # offered * (1 - B) cancels to 0 once B rounds to 1; the report must
        # still see a full pool
        params = SystemParams(40, 20)
        for lam_total in (1e17, 1e308):
            rep = nonpriority_report(params, (0.4 * lam_total, 0.3 * lam_total, 0.3 * lam_total))
            assert rep.blocking == (erlang_b(40, lam_total),) * 3
            assert 0.999 <= rep.utilization <= 1.0


class TestQuasiStationaryCurve:
    PARAMS = SystemParams(10, 5)
    MIX = (1 / 3, 1 / 3, 1 / 3)

    def test_light_point_equals_shared_pool(self):
        (rep,) = quasi_stationary_curve(self.PARAMS, self.MIX, [4.0])
        expected = erlang_b(10, 4.0)
        assert rep.blocking == (expected,) * 3
        # bit-identical to the baseline helper by construction
        assert rep == nonpriority_report(self.PARAMS, tuple(m * 4.0 for m in self.MIX))

    def test_high_point_uses_recomputed_thresholds(self):
        (rep,) = quasi_stationary_curve(self.PARAMS, self.MIX, [12.0])
        assert rep.blocking == pytest.approx(HIGH_EXAMPLE_B, abs=1e-12)
        assert rep.utilization == pytest.approx(HIGH_EXAMPLE_UTIL, abs=1e-12)

    def test_empty_grid(self):
        assert quasi_stationary_curve(self.PARAMS, self.MIX, []) == []

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            quasi_stationary_curve(self.PARAMS, (0.5, 0.3, 0.3), [4.0])

    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError):
            quasi_stationary_curve(self.PARAMS, self.MIX, [4.0, 0.0])

    def test_top_class_beats_shared_pool_under_high_load(self):
        params = SystemParams(20, 10)
        mix = (0.4, 0.3, 0.3)
        grid = [26.0, 30.0, 40.0]
        for lam_total, rep in zip(grid, quasi_stationary_curve(params, mix, grid)):
            assert rep.blocking[0] < erlang_b(20, lam_total)
