"""Chain construction, the two steady-state solvers, and blocking reports."""

import math
import re
import sys

import numpy as np
import pytest

from dynguard import (
    BirthDeathChain,
    SteadyStateDistribution,
    SystemParams,
    ThresholdVector,
    availability_thresholds,
    blocking_report,
    build_chain,
    erlang_b,
    nonpriority_report,
    quasi_stationary_curve,
    steady_state,
    steady_state_oracle,
)
from dynguard import markov
from dynguard.markov import _exact_sum, _point_report, _pool_reports

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


def per_state_recursion(limits, rates, mu):
    """Reference chain solve: one fsum per state, weights rescaled in place."""
    births = tuple(
        math.fsum(lam for lam, lim in zip(rates, limits) if i < lim) for i in range(limits[0])
    )
    w = [1.0] + [0.0] * len(births)
    rescales = 0
    for i in range(1, len(w)):
        w[i] = w[i - 1] * (births[i - 1] / (i * mu))
        if w[i] > 1e100:
            rescales += 1
            scale = 1.0 / w[i]
            for j in range(i + 1):
                w[j] *= scale
    total = math.fsum(w)
    return births, tuple(x / total for x in w), rescales


def rescale_states(births, mu):
    """The states at which :func:`per_state_recursion` rescales this chain."""
    w, states = 1.0, []
    for i, b in enumerate(births, 1):
        w *= b / (i * mu)
        if w > 1e100:
            states.append(i)
            w *= 1.0 / w
    return states


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

    @pytest.mark.parametrize(
        "births, mu, message",
        [
            ((1.0, math.nan), 1.0, "birth rates must be finite and non-negative, got nan"),
            ((math.inf, 1.0), 1.0, "birth rates must be finite and non-negative, got inf"),
            ((1.0, -0.5), 1.0, "birth rates must be finite and non-negative, got -0.5"),
            ((3.0, -1.0, math.nan), 1.0, "birth rates must be finite and non-negative, got -1.0"),
            ((1.0, 2.0), 1.0, "birth rates must be non-increasing in occupancy"),
            ((1.0, 1.0), math.nan, "service_rate must be positive and finite, got nan"),
            ((1.0, 1.0), math.inf, "service_rate must be positive and finite, got inf"),
            ((1.0, 1.0), 0.0, "service_rate must be positive and finite, got 0.0"),
            ((1.0,), 10**400, f"service_rate must be positive and finite, got {10**400}"),
        ],
    )
    def test_chain_rejections_name_the_value(self, births, mu, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BirthDeathChain(births, mu)


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

    @pytest.mark.parametrize(
        "probabilities, message",
        [
            ((0.5, 1.5), "state probability out of range: 1.5"),
            ((math.nan, 1.0), "state probability out of range: nan"),
            ((1.0, -0.25, 2.0), "state probability out of range: -0.25"),
            ((), "a distribution needs at least one state"),
        ],
    )
    def test_distribution_rejections_name_the_value(self, probabilities, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SteadyStateDistribution(probabilities)

    def test_matches_reference_recursion(self):
        # Run-wise births and the restarted accumulate must give the very
        # floats of the per-state recursion. Rates and mu share a scale of
        # 10^U(-250, 250); above 300 states the offered load of 10-1000
        # erlangs per channel makes every chain rescale several times.
        rng = np.random.default_rng(13)
        for k in range(120):
            n = int(rng.integers(300, 6001)) if k % 5 == 0 else int(rng.integers(1, 300))
            m = int(rng.integers(1, 6))
            lower = sorted((int(rng.integers(0, n + 1)) for _ in range(m - 1)), reverse=True)
            limits = (n, *lower)
            s = float(10.0 ** rng.uniform(-250, 250))
            load = n * float(10.0 ** rng.uniform(1 if n >= 300 else -1, 3))
            rates = tuple(float(x) * load * s for x in rng.dirichlet(np.ones(m)))
            chain = build_chain(ThresholdVector(limits), rates, s)
            births, probabilities, rescales = per_state_recursion(limits, rates, s)
            assert chain.birth_rates == births
            assert steady_state(chain).probabilities == probabilities
            assert n < 300 or rescales >= 2
        # An int service rate, past int64 too, takes its float's path.
        for mu in (3, 2**70):
            births, probabilities, _ = per_state_recursion((3, 2), (4.0, 1.0), mu)
            assert steady_state(BirthDeathChain(births, mu)).probabilities == probabilities

    def test_rescaling_keeps_large_chains_finite(self):
        # weights along the way exceed any double if materialized naively
        tv = ThresholdVector((600, 450, 300))
        chain = build_chain(tv, (500.0, 400.0, 300.0), 1.0)
        dist = steady_state(chain)
        assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert all(math.isfinite(p) for p in dist.probabilities)


class TestAccumulateBlocks:
    """The ratio recursion accumulates in blocks, and a rescale restarts only
    the rest of its block; every weight must stay that of the per-state loop."""

    @staticmethod
    def check(limits, rates, mu=1.0):
        births, probabilities, _ = per_state_recursion(limits, rates, mu)
        chain = build_chain(ThresholdVector(limits), rates, mu)
        assert chain.birth_rates == births
        assert steady_state(chain).probabilities == probabilities
        return births

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("block", [16, markov._ACCUMULATE_BLOCK])
    def test_rescale_at_a_block_edge(self, monkeypatch, block, offset):
        # Block k holds weights k*block+1 .. (k+1)*block, so a rescale at state
        # `block` ends the first block and one at `block + 1` starts the second.
        # The scan finds the lightest constant-rate chain that rescales at that
        # state: with block 16 it is the chain's first rescale, with the
        # module's block a later one.
        monkeypatch.setattr(markov, "_ACCUMULATE_BLOCK", block)
        state = block + offset
        n = state + 20
        lam = next(x for x in np.geomspace(1e3, 1e12, 4000).tolist() if state in rescale_states((x,) * n, 1.0))
        if block == 16:
            assert rescale_states((lam,) * n, 1.0)[0] == state
        self.check((n,), (lam,))

    @pytest.mark.parametrize("block", [16, markov._ACCUMULATE_BLOCK])
    def test_short_chains_and_repeated_rescales(self, monkeypatch, block):
        monkeypatch.setattr(markov, "_ACCUMULATE_BLOCK", block)
        # Shorter than one block, rescaling on the way.
        births = self.check((block // 2,), (1e40,))
        assert rescale_states(births, 1.0)
        # Two or more rescales inside the first block.
        births = self.check((block, block // 2), (1e30, 1e30))
        assert len([i for i in rescale_states(births, 1.0) if i <= block]) >= 2

    def test_births_reach_zero_after_the_weights_overflow(self):
        # Births are 1e200 below state 20 and 0 above it. Before its first
        # rescale the block's product overflows to inf and then meets the zero
        # births as inf * 0 = nan; all of it is overwritten by the restarts.
        limits, rates = (40, 20), (0.0, 1e200)
        births = self.check(limits, rates)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = np.multiply.accumulate(np.array(births) / np.arange(1.0, 41))
        assert np.isinf(raw).any() and np.isnan(raw[20:]).all()
        # Stretched to two blocks, so the zero births start the second one.
        self.check((2 * markov._ACCUMULATE_BLOCK, markov._ACCUMULATE_BLOCK), rates)


class TestRunByRun:
    """The ratio recursion accumulates from one rescale to the next only while
    the ratios are >= 1, then once to the end; every weight must stay that of
    the per-state loop."""

    check = staticmethod(TestAccumulateBlocks.check)

    @staticmethod
    def rescaling_at(state, rescales=1):
        """Rates (0.5, x) whose births x + 0.5 below ``state`` rescale there, the
        last of at least ``rescales``; from ``state`` on the births are 0.5, so
        the ratios fall below 1."""
        for x in np.geomspace(1e3, 1e12, 4000).tolist():
            states = rescale_states((x + 0.5,) * state, 1.0)
            if state in states and len(states) >= rescales:
                return (0.5, x)

    @pytest.mark.parametrize("block", [16, markov._ACCUMULATE_BLOCK])
    def test_rescale_at_the_last_growth_state(self, monkeypatch, block):
        monkeypatch.setattr(markov, "_ACCUMULATE_BLOCK", block)
        births = self.check((260, 200), self.rescaling_at(200))
        assert rescale_states(births, 1.0)[-1] == 200

    def test_ratio_of_exactly_one_ends_the_growth(self):
        # lambda = k * mu at k = 1000: that weight repeats the one before it.
        births = self.check((1500,), (1000.0,))
        assert births[999] / 1000 == 1.0 and len(rescale_states(births, 1.0)) >= 2

    @pytest.mark.parametrize("block", [16, markov._ACCUMULATE_BLOCK])
    def test_run_between_rescales_longer_than_a_block(self, monkeypatch, block):
        monkeypatch.setattr(markov, "_ACCUMULATE_BLOCK", block)
        births = self.check((6000,), (5000.0,))
        assert max(np.diff(rescale_states(births, 1.0))) > markov._ACCUMULATE_BLOCK

    @pytest.mark.parametrize("limits, rates", [((6000,), (5000.0,)), ((460, 400), None)], ids=["long", "ends-at-rescale"])
    def test_weights_ahead_of_the_fifth_latest_rescale_are_zero(self, limits, rates):
        # A rescale scales, and the normalising sum adds, only from the
        # fifth-latest earlier rescale on. In the per-state loop every weight
        # up to it is already exactly 0, at each rescale and at the end. When
        # the growth ends at a rescale the total is small, so a weight left
        # out of a rescale would still show in the distribution.
        births = self.check(limits, rates or self.rescaling_at(limits[1], rescales=6))
        w, states = [1.0], []
        for i, b in enumerate(births, 1):
            w.append(w[-1] * (b / i))
            if w[-1] > 1e100:
                assert len(states) < 5 or not any(w[: states[-5] + 1])
                states.append(i)
                scale = 1.0 / w[-1]
                w = [x * scale for x in w]
        assert len(states) >= 6 and not any(w[: states[-5] + 1])


class TestBlockingReport:
    def test_benchmark_values(self):
        dist = steady_state(build_chain(BENCH_TV, BENCH_RATES, 1.0))
        rep = blocking_report(dist, BENCH_TV, BENCH_RATES, 1.0)
        assert rep.blocking == pytest.approx(BENCH_B, abs=1e-12)
        assert rep.utilization == pytest.approx(BENCH_UTIL, abs=1e-12)
        assert rep.mean_occupancy == pytest.approx(96 / 49, abs=1e-12)

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
                admitted = math.fsum(lam * (1.0 - b) for lam, b in zip(rates, rep.blocking)) / mu
                assert admitted == pytest.approx(rep.mean_occupancy, rel=1e-9)
        # Up to 1e20 erlangs on 40 channels. The admitted flow sum(lam * (1 - B))
        # still matches at 1e6; from 1e9 on it cancels as every B nears 1.
        params, mix = SystemParams(40, 20), (0.4, 0.3, 0.3)
        for lam_total in [1e3, 1e6, 1e9, 1e12, 1e17, 1e20]:
            rep = quasi_stationary_curve(params, mix, [lam_total])[0]
            assert 39 < rep.mean_occupancy <= 40
            if lam_total <= 1e6:
                admitted = math.fsum(m * lam_total * (1.0 - b) for m, b in zip(mix, rep.blocking))
                assert admitted == pytest.approx(rep.mean_occupancy, rel=1e-9)
            if lam_total >= 1e17:
                assert rep.blocking == pytest.approx((1.0,) * 3, rel=1e-12)

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
        with pytest.raises(ValueError, match="offered load must be finite and non-negative"):
            erlang_b(3, 10**400)

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

    def test_reservation_trades_utilization_for_class_1_blocking(self):
        # N=40, mix 0.4/0.3/0.3, high load throughout: a larger common floor C
        # reserves less, so utilization and class-1 blocking both rise with C,
        # up to the shared pool at C = N (equal to the last ulp or two).
        mix = (0.4, 0.3, 0.3)
        for lam_total in range(44, 81, 2):
            curve = [quasi_stationary_curve(SystemParams(40, c), mix, [lam_total])[0] for c in range(41)]
            pool = nonpriority_report(SystemParams(40, 40), tuple(m * lam_total for m in mix))
            for field in (lambda r: r.utilization, lambda r: r.blocking[0]):
                values = [field(r) for r in curve]
                assert all(a <= b for a, b in zip(values, values[1:]))
                assert values[-1] == pytest.approx(field(pool), rel=1e-12)

    def test_top_class_beats_shared_pool_under_high_load(self):
        params = SystemParams(20, 10)
        mix = (0.4, 0.3, 0.3)
        grid = [26.0, 30.0, 40.0]
        for lam_total, rep in zip(grid, quasi_stationary_curve(params, mix, grid)):
            assert rep.blocking[0] < erlang_b(20, lam_total)


def reference_recursion_chains():
    """The 120 (limits, rates, mu) cases that test_matches_reference_recursion draws."""
    rng = np.random.default_rng(13)
    for k in range(120):
        n = int(rng.integers(300, 6001)) if k % 5 == 0 else int(rng.integers(1, 300))
        m = int(rng.integers(1, 6))
        lower = sorted((int(rng.integers(0, n + 1)) for _ in range(m - 1)), reverse=True)
        limits = (n, *lower)
        s = float(10.0 ** rng.uniform(-250, 250))
        load = n * float(10.0 ** rng.uniform(1 if n >= 300 else -1, 3))
        yield limits, tuple(float(x) * load * s for x in rng.dirichlet(np.ones(m))), s


def same_float(got, want):
    """Bitwise equality, the sign of zero included."""
    return float(got).hex() == float(want).hex()


class TestExactSums:
    """Every sum in the chain layer is the float an index-order fsum gives."""

    @staticmethod
    def random_terms(rng):
        n = int(rng.integers(0, 400))
        top = float(rng.uniform(-323, 100))
        x = 10.0 ** rng.uniform(-324, top, n)  # 5e-324 up to 10**top; some round to 0
        kind = rng.integers(0, 4, n)
        x[kind == 1] = 0.0
        x[kind == 2] = np.ldexp(1.0, rng.integers(-1074, 333, n))[kind == 2]
        return x

    def test_helper_matches_index_order_fsum(self):
        rng = np.random.default_rng(21)
        for _ in range(3000):
            x = self.random_terms(rng)
            assert same_float(_exact_sum(x), math.fsum(x.tolist()))

    @pytest.mark.parametrize(
        "terms",
        [
            [1.0, 2**-53],  # a half-even tie, which rounds down to 1.0
            [1.0, 2**-53, 2**-1074],  # the smallest subnormal breaks the tie upward
            [2**-53, 1.0, 2**-1074],
            [],
            [0.0, 0.0, 0.0],
            [-0.0],
            [-0.0, -0.0, 0.0],
            [5e-324] * 7,
            [1.0, -1e-9, 0.0, -1e-9, 1e-300],  # a hand-built distribution allows -1e-9
            [-1e-9, -5e-10, 0.0],
            [1e-9, -1e-9],
        ],
    )
    def test_helper_edge_cases(self, terms):
        assert same_float(_exact_sum(np.asarray(terms, dtype=float)), math.fsum(terms))

    def test_helper_with_slightly_negative_entries(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            x = self.random_terms(rng) * 1e-300
            neg = rng.random(x.size) < 0.3
            x[neg] = -rng.uniform(0.0, 1e-9, int(neg.sum()))
            assert same_float(_exact_sum(x), math.fsum(x.tolist()))

    @staticmethod
    def check_distribution(dist, thresholds, rates, mu):
        p = dist.probabilities
        for start in (*thresholds.limits, 0, 1, len(p) - 1, len(p)):
            assert same_float(dist.tail(start), math.fsum(p[start:]))
        for start in (-1, -len(p), 1.0):
            with pytest.raises(ValueError, match=f"tail start must be an int >= 0, got {start!r}"):
                dist.tail(start)
        mean = math.fsum(i * x for i, x in enumerate(p))
        assert same_float(dist.mean_occupancy(), mean)
        rep = blocking_report(dist, thresholds, rates, mu)
        assert all(same_float(b, math.fsum(p[lim:])) for b, lim in zip(rep.blocking, thresholds.limits))
        assert same_float(rep.mean_occupancy, mean)
        assert same_float(rep.utilization, mean / dist.capacity)

    def test_distribution_sums_match_index_order_fsum(self):
        for limits, rates, mu in reference_recursion_chains():
            tv = ThresholdVector(limits)
            self.check_distribution(steady_state(build_chain(tv, rates, mu)), tv, rates, mu)

    def test_wide_sweep_chain(self):
        # perfbench's analytic_wide high point: N=5000, floor 2500, lambda=7500.
        # Rescales leave many weights between 1e-30 and 5e-324, and many exact zeros.
        params = SystemParams(5000, 2500)
        rates = (0.4 * 7500, 0.3 * 7500, 0.3 * 7500)
        tv = availability_thresholds(rates, params)
        dist = steady_state(build_chain(tv, rates, 1.0))
        p = np.asarray(dist.probabilities)
        assert (p == 0).sum() > 2000 and ((p > 0) & (p < 1e-30)).sum() > 1000
        self.check_distribution(dist, tv, rates, 1.0)

    def test_hand_built_distribution(self):
        p = (0.25, -1e-9, 0.5, 0.0, 0.25 + 1e-9, 1e-310)
        dist = SteadyStateDistribution(p)
        self.check_distribution(dist, ThresholdVector((5, 3, 1)), (1.0, 1.0, 1.0), 1.0)


def largest_first_fsum(x):
    """Nonzero terms to fsum largest first through numpy: the reference where the
    order fsum sees matters (inf, nan, intermediate overflow)."""
    return math.fsum(np.sort(x[x != 0])[::-1].tolist())


class TestCertifiedSums:
    """Long exact sums take an exact head plus a bounded rest, and fall back only
    when the rest's slack straddles a rounding boundary."""

    LONG = markov._SHORT_SUM + 44

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        real = markov._largest_first_fsum

        def spy(a):  # short arrays take the largest-first sum directly
            if a.size > markov._SHORT_SUM:
                calls.append(a.size)
            return real(a)

        monkeypatch.setattr(markov, "_largest_first_fsum", spy)
        return calls

    @classmethod
    def padded(cls, terms, n=None):
        x = np.zeros(n or cls.LONG)
        x[: len(terms)] = terms
        return x

    @pytest.mark.parametrize("n", [LONG, 1000, 6000])
    @pytest.mark.parametrize(
        "terms, rounds",
        [
            # 2**-1000 has ulp 2**-1052; every term below it lands in the rest, all subnormal,
            # so the slack underflows to 0 and s is exact: the certificate decides the tie.
            ([2.0**-1000, 2.0**-1053], "down"),  # a tie, to the even 2**-1000
            ([2.0**-1000, 2.0**-1053, 2.0**-1074], "up"),  # the rest breaks it upward
            ([2.0**-1000 + 2.0**-1052, 2.0**-1053], "up"),  # a tie, to the even neighbour above
            ([2.0**-1000 + 2.0**-1052, 2.0**-1053, -(2.0**-1074)], "down"),  # the rest breaks it downward
        ],
    )
    def test_subnormal_rest_decides_a_tie(self, fallbacks, n, terms, rounds):
        x = self.padded(terms, n)
        got = _exact_sum(x)
        assert same_float(got, math.fsum(x.tolist()))
        assert (got > terms[0]) == (rounds == "up")
        assert fallbacks == []

    @pytest.mark.parametrize(
        "terms",
        [
            [1.0, 2.0**-53],  # the rest holds the tie's half ulp; its slack straddles it
            [1.0, 2.0**-53, 2.0**-1074],
            [1.0 + 2.0**-52, 2.0**-53, -(2.0**-1074)],
            [1.0, 2.0**-53, 1e-300, -1e-300, 3e-200, -3e-200],  # a mixed-sign rest that cancels
        ],
    )
    def test_rest_at_a_tie_falls_back(self, fallbacks, terms):
        x = self.padded(terms)
        assert same_float(_exact_sum(x), math.fsum(terms))
        assert fallbacks == [x.size]

    def test_slack_covers_numpy_rounding_of_the_rest(self):
        # Every term but 1.0 is rest. The exact total sits just below the midpoint
        # 1 + 2**-53, and numpy's pairwise sum of the rest rounds up by about
        # 4 * 2**-106, more than sum|r| * (n + 2) * 2**-60 covers: a slack 2**10 times
        # tighter would certify 1 + 2**-52.
        x = np.full(self.LONG, 2.0**-107 * (1 + 2.0**-5))
        x[:2] = 1.0, 2.0**-53 - 154 * 2.0**-106
        assert same_float(_exact_sum(x), math.fsum(x.tolist()))
        assert same_float(_exact_sum(x), 1.0)

    def test_empty_rest(self, fallbacks):
        # Every term is a multiple of the head's grid, so the rest is all zeros and the slack 0.
        x = np.tile([1.0, 0.5, -0.25, 3.0, 0.0], 200)
        x[9] = 2.0**-30
        assert same_float(_exact_sum(x), math.fsum(x.tolist()))
        assert same_float(_exact_sum(x), 850.0 + 2.0**-30)
        assert fallbacks == []

    @pytest.mark.parametrize("n", [LONG, 6000])
    @pytest.mark.parametrize("fill", [[0.0], [-0.0], [0.0, -0.0]])
    def test_long_zero_arrays_sum_to_positive_zero(self, n, fill):
        assert same_float(_exact_sum(np.resize(np.array(fill), n)), 0.0)

    @pytest.mark.parametrize("n", [3, LONG, 6000])
    @pytest.mark.parametrize(
        "terms",
        [
            [1.0, math.inf],
            [math.inf, -1.0, 1e308],
            [math.nan, 1.0],
            [math.inf, math.nan],
            [math.inf, -math.inf],  # fsum's ValueError
            [math.inf, 1e308, 1e308],  # fsum's intermediate OverflowError
            [1e308, 1e308, 1e-300],  # finite terms whose sum leaves the float range
            [1e300] * 3,  # past the bound on max|a| * len(a): the largest-first path
        ],
    )
    def test_non_finite_and_huge_terms_match_the_largest_first_sum(self, n, terms):
        x = self.padded(terms, max(n, len(terms)))
        try:
            want = largest_first_fsum(x)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _exact_sum(x)
        else:
            assert same_float(_exact_sum(x), want)

    @staticmethod
    def random_terms(rng, n):
        top = float(rng.uniform(-323, 300))
        x = 10.0 ** rng.uniform(-324, top, n)
        kind = rng.integers(0, 5, n)
        x[kind == 1] = 0.0
        x[kind == 2] = np.ldexp(1.0, rng.integers(-1074, 333, n))[kind == 2]
        x[kind == 3] *= -1.0
        return x

    def test_random_terms_around_the_cutoff_and_up_to_6000(self, fallbacks):
        rng = np.random.default_rng(31)
        cut = markov._SHORT_SUM
        sizes = [cut - 1, cut, cut + 1, cut + 2, 2 * cut, 6000]
        sizes += [int(s) for s in rng.integers(cut - 20, 6001, 300)]
        for n in sizes:
            x = self.random_terms(rng, n)
            if rng.random() < 0.5:
                x = np.abs(x)
            assert same_float(_exact_sum(x), math.fsum(x.tolist()))
        assert len(fallbacks) < len(sizes) // 10

    def test_chain_sums_take_no_fallback(self, fallbacks):
        # perfbench's analytic_wide high point, whose values TestExactSums checks:
        # the total, the mean occupancy and the long tails are all certified.
        params = SystemParams(5000, 2500)
        rates = (0.4 * 7500, 0.3 * 7500, 0.3 * 7500)
        tv = availability_thresholds(rates, params)
        blocking_report(steady_state(build_chain(tv, rates, 1.0)), tv, rates, 1.0)
        assert fallbacks == []


def test_an_offered_load_beyond_the_float_range_is_named():
    # births[0] / mu overflows; the ratio recursion rejects it as the shared pool does.
    for call in (
        lambda: steady_state(BirthDeathChain((1e308, 1e308), 0.5)),
        lambda: _point_report(SystemParams(10, 5, service_rate=0.5), (10, 8, 6), (5e307, 3e307, 2e307)),
        lambda: nonpriority_report(SystemParams(10, 5, service_rate=0.5), (5e307, 3e307, 2e307)),
    ):
        with pytest.raises(ValueError, match=r"^offered load must be finite and non-negative, got inf$"):
            call()


def test_batched_shared_pool_matches_per_point_reports():
    # One recursion over 64 loads, 0 and 1e300 among them, against one call
    # per load; capacity 1 runs the recursion over no channel at all.
    rng = np.random.default_rng(29)
    for params in (SystemParams(5000, 2500), SystemParams(40, 20, service_rate=0.7), SystemParams(1, 0, class_count=2)):
        m = params.class_count
        loads = [0.0, 1e300, *(10.0 ** rng.uniform(-3, 5, 62)).tolist()]
        vectors = [tuple(x * load for x in rng.dirichlet(np.ones(m)).tolist()) for load in loads]
        for rates, batched in zip(vectors, _pool_reports(params, vectors), strict=True):
            single = nonpriority_report(params, rates)
            for got, want in zip((*batched.blocking, batched.utilization, batched.mean_occupancy),
                                 (*single.blocking, single.utilization, single.mean_occupancy)):
                assert same_float(got, want)
    assert _pool_reports(SystemParams(1, 0), []) == []


@pytest.mark.parametrize("limits", [(8, 5), (10, 5, 2), (10,)])
def test_point_report_rejects_limits_that_do_not_fit(limits):
    # The chain these limits freeze would not have the system's capacity or classes.
    with pytest.raises(ValueError, match=r"^limits .*" + re.escape(f"got {limits}")):
        _point_report(SystemParams(10, 5, class_count=2), limits, (6.0, 6.0))


def test_erlang_b_matches_the_textbook_form():
    # The recursion forms a*B(k-1) once per step; the product is the same
    # IEEE operation, so the result is bitwise that of the textbook form.
    def textbook(n, a):
        b = 1.0
        for k in range(1, n + 1):
            b = a * b / (k + a * b)
        return b

    rng = np.random.default_rng(23)
    cases = [(int(rng.integers(0, 300)), float(10.0 ** rng.uniform(-3, 4))) for _ in range(500)]
    cases += [(40, 1e-300), (40, 1e300), (5000, 7500.0), (3, 0.0)]
    for n, a in cases:
        assert same_float(erlang_b(n, a), textbook(n, a))


_HUGE_RATES = (0.5 * sys.float_info.max, (0.5 + 1e-10) * sys.float_info.max)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: quasi_stationary_curve(SystemParams(40, 20), (0.4, 0.3, 0.3), [10**400]), str(10**400)),
        (lambda: quasi_stationary_curve(SystemParams(40, 20, class_count=2), (0.5, 0.5 + 1e-10),
                                        [sys.float_info.max]), str(_HUGE_RATES)),
        (lambda: nonpriority_report(SystemParams(40, 20), (1e308,) * 3), str((1e308,) * 3)),
        (lambda: build_chain(ThresholdVector((4, 3, 2)), (1e308,) * 3, 1.0), str((1e308,) * 3)),
        (lambda: build_chain(ThresholdVector((4, 3, 2)), (1.0,) * 3, 10**400), str(10**400)),
        (lambda: build_chain(ThresholdVector((4, 3, 2)), (1.0,) * 3, -(10**400)), str(-(10**400))),
    ],
    ids=["grid-int", "rates-sum", "pool-sum", "births-sum", "service-rate-int", "negative-service-rate-int"],
)
def test_values_beyond_the_float_range_raise_value_error(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


@pytest.mark.parametrize("make", [lambda v: BirthDeathChain((v,), 1.0), lambda v: SteadyStateDistribution((v,))])
@pytest.mark.parametrize("value", [10**400, -(10**400)])
def test_int_beyond_float_range_is_named(make, value):
    with pytest.raises(ValueError, match=re.escape(str(value))):
        make(value)
