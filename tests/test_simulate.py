"""Event-loop behavior: admission, determinism, and statistical agreement."""

import hashlib
import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from dynguard import (
    ArrivalTrace,
    LoadCondition,
    RateEstimator,
    Scenario,
    Scheme,
    SimReport,
    SystemParams,
    ThresholdVector,
    availability_thresholds,
    blocking_stderr,
    classify_load,
    erlang_b,
    run_simulation,
)
from dynguard.simulate import _DRAW_BLOCK, _WINDOW_ARRIVALS, _arrival_windows, _run_schemes
from test_simulate_reference import reference_run
from walks import per_draw_walk

PARAMS_SMALL = SystemParams(4, 0, class_count=3)
TV_SMALL = ThresholdVector((4, 3, 2))


def small_scenario(**overrides):
    base = dict(
        params=PARAMS_SMALL,
        schedule=((0.0, (1.0, 1.0, 1.0)),),
        horizon=500.0,
        seed=1,
        scheme=Scheme.FIXED_GUARD,
        fixed_thresholds=TV_SMALL,
    )
    base.update(overrides)
    return Scenario(**base)


class TestBlockingStderr:
    def test_half_blocked(self):
        assert blocking_stderr(50, 100) == pytest.approx(0.05)

    def test_nothing_blocked(self):
        assert blocking_stderr(0, 100) == 0.0

    def test_nothing_offered(self):
        assert blocking_stderr(0, 0) is None

    def test_blocked_exceeding_offered(self):
        with pytest.raises(ValueError):
            blocking_stderr(5, 0)
        with pytest.raises(ValueError):
            blocking_stderr(11, 10)


class TestAdmissionBoundary:
    # With a mean holding time of 1e9 no call departs before the horizon, so
    # the occupancy an arrival sees is the number admitted before it.
    PARAMS = SystemParams(4, 0, service_rate=1e-9, class_count=3)

    def decisions(self, scheme, seed):
        """(occupancy, class, admitted) for every arrival, each checked against the limits."""
        fixed = scheme is Scheme.FIXED_GUARD
        limits = TV_SMALL.limits if fixed else (4, 4, 4)
        rep = run_simulation(
            Scenario(
                params=self.PARAMS,
                schedule=((0.0, (1.0, 1.0, 1.0)),),
                horizon=20.0,
                seed=seed,
                scheme=scheme,
                fixed_thresholds=TV_SMALL if fixed else None,
                record_trace=True,
            )
        )
        assert rep.event_count == len(rep.trace)  # no departures
        seen = set()
        occupied = 0
        for _, cls, admitted in rep.trace:
            assert admitted == (occupied < limits[cls - 1])
            seen.add((occupied, cls, admitted))
            occupied += admitted
        return seen

    def test_shared_pool_admits_lowest_class_at_last_channel(self):
        seen = self.decisions(Scheme.NON_PRIORITY, 3)
        assert (3, 3, True) in seen

    def test_full_capacity_blocks_everyone(self):
        assert (4, 1, False) in self.decisions(Scheme.NON_PRIORITY, 3)
        assert (4, 1, False) in self.decisions(Scheme.FIXED_GUARD, 12)

    def test_threshold_blocks_at_limit(self):
        seen = self.decisions(Scheme.FIXED_GUARD, 12)
        assert {(2, 3, False), (2, 2, True), (3, 2, False), (3, 1, True)} <= seen

    def test_dynamic_replays_the_library_estimator(self):
        # N=400, C=200 and no departures. The HIGH boundary, 400/0.925 = 432,
        # sits near the offered 480, so the 1/gap noise flips the mode. Each
        # traced admission must match RateEstimator plus the public threshold
        # functions replayed over the same arrivals.
        params = SystemParams(400, 200, service_rate=1e-9, load_threshold=0.925)
        shared = (params.capacity,) * 3
        modes = set()
        for seed in (1, 2, 3):
            rep = run_simulation(
                Scenario(
                    params=params,
                    schedule=((0.0, (192.0, 144.0, 144.0)),),
                    horizon=3.0,
                    seed=seed,
                    record_trace=True,
                )
            )
            assert rep.event_count == len(rep.trace)  # no departures
            est = RateEstimator(priors=(1.0, 1.0, 1.0))
            occupied = 0
            for t, cls, admitted in rep.trace:
                est = est.observe(cls, t)
                high = est.ready and classify_load(est.rates(), params) is LoadCondition.HIGH
                limits = availability_thresholds(est.rates(), params).limits if high else shared
                assert admitted == (occupied < limits[cls - 1])
                modes.add(high)
                occupied += admitted
        assert modes == {False, True}


class TestScenarioValidation:
    def test_schedule_must_start_at_zero(self):
        with pytest.raises(ValueError):
            small_scenario(schedule=((1.0, (1.0, 1.0, 1.0)),))

    def test_segment_starts_must_increase(self):
        with pytest.raises(ValueError):
            small_scenario(
                schedule=((0.0, (1.0, 1.0, 1.0)), (0.0, (2.0, 1.0, 1.0)))
            )

    def test_horizon_must_be_positive_and_finite(self):
        # 10**400, an int beyond the float range, gets the ValueError, not an OverflowError.
        for horizon in (0.0, math.inf, math.nan, 10**400):
            with pytest.raises(ValueError, match="^horizon "):
                small_scenario(horizon=horizon)

    def test_segment_must_lie_inside_horizon(self):
        # Only constructed, never run: a run whose schedule let a NaN start
        # through would not end.
        for start in (600.0, math.nan, 10**400):
            with pytest.raises(ValueError):
                small_scenario(
                    schedule=((0.0, (1.0, 1.0, 1.0)), (start, (2.0, 1.0, 1.0)))
                )

    def test_rates_must_match_class_count(self):
        with pytest.raises(ValueError):
            small_scenario(schedule=((0.0, (1.0, 1.0)),))

    def test_warmup_within_horizon(self):
        for warmup in (500.0, 10**400):
            with pytest.raises(ValueError):
                small_scenario(warmup=warmup)

    def test_fixed_guard_needs_thresholds(self):
        with pytest.raises(ValueError):
            small_scenario(fixed_thresholds=None)

    def test_thresholds_only_for_fixed_guard(self):
        with pytest.raises(ValueError):
            small_scenario(scheme=Scheme.NON_PRIORITY)

    def test_threshold_capacity_must_match(self):
        with pytest.raises(ValueError):
            small_scenario(fixed_thresholds=ThresholdVector((5, 3, 2)))

    def test_default_warmup_is_ten_percent(self):
        assert small_scenario().warmup == pytest.approx(50.0)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = run_simulation(small_scenario(record_trace=True))
        b = run_simulation(small_scenario(record_trace=True))
        assert a == b

    def test_different_seed_differs(self):
        a = run_simulation(small_scenario())
        b = run_simulation(small_scenario(seed=2))
        assert a != b

    def test_added_class_does_not_perturb_others(self):
        # per-class arrival streams: silencing class 3 leaves the class-1/2
        # arrival instants untouched
        a = run_simulation(small_scenario(record_trace=True))
        b = run_simulation(
            small_scenario(record_trace=True, schedule=((0.0, (1.0, 1.0, 0.0)),))
        )
        times_12_a = [t for t, cls, _ in a.trace if cls != 3]
        times_12_b = [t for t, cls, _ in b.trace if cls != 3]
        assert times_12_a[:50] == times_12_b[:50]


class TestEmptyAndAccounting:
    def test_all_rates_zero(self):
        rep = run_simulation(small_scenario(schedule=((0.0, (0.0, 0.0, 0.0)),)))
        assert rep.event_count == 0
        assert rep.utilization == 0.0
        assert rep.blocking == (None, None, None)
        assert rep.offered == (0, 0, 0)

    def test_every_admission_gets_exactly_one_departure(self):
        rep = run_simulation(small_scenario(record_trace=True, warmup=0.0))
        arrivals = len(rep.trace)
        admitted = sum(1 for _, _, adm in rep.trace if adm)
        departures = rep.event_count - arrivals
        # calls still in service at the horizon have no processed departure
        assert 0 <= admitted - departures <= PARAMS_SMALL.capacity

    def test_mode_fractions_partition_measured_time(self):
        rep = run_simulation(small_scenario())
        assert rep.light_time_fraction + rep.high_time_fraction == pytest.approx(1.0)
        assert rep.high_time_fraction == 1.0  # fixed guard is always reserving

    def test_nonpriority_reports_light_mode(self):
        rep = run_simulation(
            small_scenario(scheme=Scheme.NON_PRIORITY, fixed_thresholds=None)
        )
        assert rep.light_time_fraction == 1.0


class TestStatisticalAgreement:
    def test_nonpriority_converges_to_shared_pool_blocking(self):
        # one-million-arrival gate: every class matches the shared-pool
        # blocking within 3 SE and the classes are indistinguishable
        params = SystemParams(10, 5)
        scenario = Scenario(
            params=params,
            schedule=((0.0, (2.0, 2.0, 2.0)),),
            horizon=1_000_000 / 6.0 / 0.9,
            seed=3,
            scheme=Scheme.NON_PRIORITY,
        )
        rep = run_simulation(scenario)
        expected = erlang_b(10, 6.0)
        assert sum(rep.offered) >= 1_000_000
        for m in range(3):
            assert abs(rep.blocking[m] - expected) <= 3 * rep.blocking_stderr[m]
        for i in range(3):
            for j in range(i + 1, 3):
                combined = math.hypot(rep.blocking_stderr[i], rep.blocking_stderr[j])
                assert abs(rep.blocking[i] - rep.blocking[j]) <= 3 * combined

    def test_fixed_guard_tracks_analytic_blocking(self):
        # coarse convergence check; the acceptance suite runs the full gate
        scenario = small_scenario(horizon=40_000.0, seed=5)
        rep = run_simulation(scenario)
        analytic = (3 / 49, 15 / 49, 33 / 49)
        for m in range(3):
            assert abs(rep.blocking[m] - analytic[m]) <= 4 * rep.blocking_stderr[m]
        assert rep.blocking[0] < rep.blocking[1] < rep.blocking[2]


class TestDynamicScheme:
    def test_light_trace_matches_nonpriority_with_headroom(self):
        # far more channels than load: the estimate never classifies high,
        # so the dynamic machinery must be fully transparent
        params = SystemParams(100_000, 50_000)
        base = dict(
            params=params,
            schedule=((0.0, (2.0, 1.0, 1.0)),),
            horizon=300.0,
            seed=6,
            record_trace=True,
        )
        dyn = run_simulation(Scenario(scheme=Scheme.DYNAMIC, **base))
        base_run = run_simulation(Scenario(scheme=Scheme.NON_PRIORITY, **base))
        assert dyn.light_time_fraction == 1.0
        assert dyn.trace == base_run.trace

    def test_silent_class_keeps_bootstrap_light(self, monkeypatch):
        # a class that never produces two arrivals pins the scheme to the
        # shared pool no matter how high the load estimate would be; its
        # total stays NaN, and no such column goes to math.fsum
        params = SystemParams(10, 5)
        base = dict(
            params=params,
            schedule=((0.0, (8.0, 6.0, 0.0)),),
            horizon=2_000.0,
            seed=9,
            record_trace=True,
        )
        dyn_scenario = Scenario(scheme=Scheme.DYNAMIC, **base)
        fsum, calls = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or fsum(values))
        dyn = run_simulation(dyn_scenario)
        monkeypatch.undo()
        assert not calls
        np_run = run_simulation(Scenario(scheme=Scheme.NON_PRIORITY, **base))
        for field in fields(SimReport):
            assert getattr(dyn, field.name) == getattr(np_run, field.name), field.name
        assert dyn.light_time_fraction == 1.0
        assert dyn.trace == np_run.trace
        assert any(not adm for _, _, adm in dyn.trace)  # real blocking compared

    def test_sustained_overload_classifies_high(self):
        params = SystemParams(10, 5)
        scenario = Scenario(
            params=params,
            schedule=((0.0, (12.0, 9.0, 9.0)),),  # 30 >> 10/0.925
            horizon=2_000.0,
            seed=4,
            scheme=Scheme.DYNAMIC,
        )
        rep = run_simulation(scenario)
        assert rep.high_time_fraction > 0.8
        assert rep.blocking[0] < rep.blocking[2]

    def test_two_phase_segment_stats(self):
        params = SystemParams(10, 5)
        scenario = Scenario(
            params=params,
            schedule=((0.0, (9.0, 6.0, 5.0)), (500.0, (2.0, 6.0, 12.0))),
            horizon=1_000.0,
            seed=8,
            warmup=100.0,
            scheme=Scheme.DYNAMIC,
        )
        rep = run_simulation(scenario)
        assert len(rep.segments) == 2
        first, second = rep.segments
        assert first.measured_time == pytest.approx(400.0)
        assert second.measured_time == pytest.approx(500.0)
        assert rep.offered == tuple(
            a + b for a, b in zip(first.offered, second.offered)
        )
        # phase mixes show up in the per-phase offered counts
        assert first.offered[0] > first.offered[2] / 2
        assert second.offered[2] > second.offered[0]
        assert 0.0 <= second.utilization <= 1.0

    @pytest.mark.parametrize("warmup", [5.0, 40.0])  # 40 is a segment start
    def test_segment_counts_recount_from_the_trace(self, warmup):
        rep = run_simulation(
            Scenario(
                params=SystemParams(10, 5),
                schedule=(
                    (0.0, (8.0, 6.0, 5.0)),
                    (30.0, (0.0, 0.0, 0.0)),
                    (40.0, (0.0, 10.0, 4.0)),
                    (70.0, (12.0, 0.0, 9.0)),
                ),
                horizon=100.0, seed=12, warmup=warmup, record_trace=True,
            )
        )
        assert sum(rep.blocked) > 0
        for seg in rep.segments:
            # An arrival counts toward the segment whose [start, end) holds it.
            calls = [(c, ok) for t, c, ok in rep.trace if seg.start <= t < seg.end and t >= warmup]
            assert seg.offered == tuple(sum(c == m for c, _ in calls) for m in (1, 2, 3))
            assert seg.blocked == tuple(sum(c == m and not ok for c, ok in calls) for m in (1, 2, 3))


class TestEstimatorBias:
    """The paper's 1/gap estimator over-estimates every class's rate.

    At half the HIGH boundary (lambda = 20 against 43.2) the load is light,
    yet DYNAMIC spends about half the measured time in HIGH mode. These
    bounds record the bias; a sound estimator would stay near 0.
    """

    @staticmethod
    def high_fraction(seed):
        return run_simulation(
            Scenario(
                params=SystemParams(40, 20), schedule=((0.0, (8.0, 6.0, 6.0)),),
                horizon=500.0, seed=seed,
            )
        ).high_time_fraction

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gap_estimator_reads_high_half_the_time(self, seed):
        assert 0.4 <= self.high_fraction(seed) <= 0.7


class TestArrivalStreams:
    @pytest.mark.parametrize(
        "scales, seg_ends",
        [
            ([0.1, None, 0.2], [30.0, 40.0, 70.0]),  # silent segment
            ([0.1, 10.0, 0.1], [5.0, 5.5, 9.0]),  # middle segment shorter than a gap
            ([0.01, 0.5], [40.0, 45.0]),  # about 4000 arrivals: over 3 blocks
            ([None, None], [10.0, 20.0]),  # zero-rate class
            # Times beyond the float range: the cumulative sum and the
            # products overflow to inf, past the end, with no warning.
            ([1e306], [1e307]),
            ([1e308], [1.5e308]),
        ],
    )
    def test_chunks_match_per_draw_walk(self, scales, seg_ends):
        expected = per_draw_walk(np.random.default_rng(5), scales, seg_ends)
        rng = np.random.default_rng(5)
        windows = list(_arrival_windows([rng], [scales], seg_ends, seg_ends[-1]))
        assert windows[-1][0].tolist() == [seg_ends[-1]] and windows[-1][1].tolist() == [-1]
        assert [t for times, _ in windows[:-1] for t in times.tolist()] == [t for t, _ in expected]
        reference_rng = np.random.default_rng(5)
        per_draw_walk(reference_rng, scales, seg_ends)
        assert rng.standard_exponential() == reference_rng.standard_exponential()

    def test_walk_covers_each_case(self):
        def counts(scales, seg_ends):
            walk = per_draw_walk(np.random.default_rng(5), scales, seg_ends)
            return [sum(1 for _, k in walk if k == seg) for seg in range(len(seg_ends))]

        assert counts([0.1, None, 0.2], [30.0, 40.0, 70.0])[1] == 0
        assert counts([0.1, 10.0, 0.1], [5.0, 5.5, 9.0])[1] == 0
        assert counts([0.01, 0.5], [40.0, 45.0])[0] > 3 * 1024

    def test_windows_merge_in_time_then_class_order(self):
        # Class 0 is silent in the first segment and 1000 times busier than
        # the others in the second; classes 1 and 2 share a seed and their
        # gaps, so every arrival of theirs is a tie.
        seg_ends = [3.0, 60.0]
        class_gaps = [[None, 0.001], [0.5, 1.0], [0.5, 1.0]]
        seeds = [7, 8, 8]
        expected = sorted(
            (t, c)
            for c, (seed, gaps) in enumerate(zip(seeds, class_gaps))
            for t, _ in per_draw_walk(np.random.default_rng(seed), gaps, seg_ends)
        )
        rngs = [np.random.default_rng(seed) for seed in seeds]
        windows = list(_arrival_windows(rngs, class_gaps, seg_ends, 60.0))
        *arrivals, (end_times, end_classes) = windows
        assert end_times.tolist() == [60.0] and end_classes.tolist() == [-1]
        assert len(arrivals) > 10
        # One round walks at most a block of each class.
        assert all(len(times) < _WINDOW_ARRIVALS + 3 * _DRAW_BLOCK for times, _ in arrivals)
        got = [pair for times, classes in arrivals for pair in zip(times.tolist(), classes.tolist())]
        assert got == expected
        for seed, gaps, rng in zip(seeds, class_gaps, rngs):
            reference_rng = np.random.default_rng(seed)
            per_draw_walk(reference_rng, gaps, seg_ends)
            assert rng.standard_exponential() == reference_rng.standard_exponential()


class TestArrivalTrace:
    """A report's trace: three read-only arrays that read as the tuple of arrivals."""

    # 30 alternating segments at N=40: several windows, segment ends and blocking.
    SCENARIO = Scenario(
        params=SystemParams(40, 20),
        schedule=tuple((k * 10.0, (8.0, 6.0, 6.0) if k % 2 else (24.0, 18.0, 18.0)) for k in range(30)),
        horizon=300.0, seed=3, record_trace=True,
    )

    def test_reads_as_the_reference_tuple(self):
        trace = run_simulation(self.SCENARIO).trace
        expected = reference_run(self.SCENARIO).trace  # a tuple of (float, int, bool)
        assert isinstance(trace, ArrivalTrace)
        assert tuple(trace) == expected
        assert repr(trace) == repr(expected)
        assert len(trace) == len(expected) > 2 * _WINDOW_ARRIVALS
        assert not all(admitted for _, _, admitted in trace)
        for k in (0, 1, 4321, -1, -len(expected)):
            assert trace[k] == expected[k]
            assert [type(x) for x in trace[k]] == [float, int, bool]
        assert [type(x) for x in next(iter(trace))] == [float, int, bool]
        for key in (slice(10, 20), slice(None, None, -7), slice(-5, None), slice(3, 3)):
            part = trace[key]
            assert isinstance(part, ArrivalTrace)
            assert tuple(part) == expected[key]
            assert repr(part) == repr(expected[key])
        with pytest.raises(IndexError):
            trace[len(expected)]
        with pytest.raises(TypeError):
            trace[1.0]

    def test_arrays(self):
        trace = run_simulation(self.SCENARIO).trace
        assert trace.times.dtype == np.float64
        assert trace.classes.dtype == np.uint8  # M = 3
        assert trace.admitted.dtype == bool
        assert trace.classes.min() == 1 and trace.classes.max() == 3
        assert np.all(np.diff(trace.times) >= 0.0)
        assert trace.times[-1] < self.SCENARIO.horizon  # no end-of-run marker
        many = SystemParams(300, 0, class_count=300)
        wide = run_simulation(
            Scenario(params=many, schedule=((0.0, (1.0,) * 300),), horizon=2.0, seed=1, record_trace=True)
        ).trace
        assert wide.classes.dtype == np.uint16 and wide.classes.max() == 300

    def test_equality_hash_and_read_only(self):
        report = run_simulation(self.SCENARIO)
        again = run_simulation(self.SCENARIO)
        other = run_simulation(replace(self.SCENARIO, seed=4)).trace
        trace = report.trace
        assert trace == again.trace and trace is not again.trace
        assert hash(trace) == hash(again.trace)
        assert hash(report) == hash(again) and report == again  # SimReport stays hashable
        assert trace != other and trace[:100] != trace[1:101]
        assert trace[:100] == again.trace[:100] and hash(trace[:100]) == hash(again.trace[:100])
        assert trace != tuple(trace)  # equal only to another trace
        for part in (trace, trace[5:50]):
            for column in (part.times, part.classes, part.admitted):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[1]
        with pytest.raises(FrozenInstanceError):
            trace.times = trace.times.copy()

    def test_empty(self):
        silent = replace(self.SCENARIO, schedule=((0.0, (0.0, 0.0, 0.0)),))
        trace = run_simulation(silent).trace
        assert len(trace) == 0 and not trace
        assert repr(trace) == "()" and tuple(trace) == ()
        assert trace == trace[:0]

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="one entry per arrival"):
            ArrivalTrace(np.zeros(3), np.ones(2, dtype=np.uint8), np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="1-D"):
            ArrivalTrace(np.zeros((1, 3)), np.ones(3, dtype=np.uint8), np.ones(3, dtype=bool))

    def test_footprint_is_the_arrays_and_one_join(self):
        """A trace costs its columns, and at most one more copy of them at the peak.

        A traced run keeps each window's times (8 bytes per arrival), classes
        (1 byte for M = 3) and decisions (1 byte, plus the slack of the buffer
        they are read from; 2 bytes allowed), then joins each column once.
        So against the untraced run, tracemalloc's count of what the report
        holds grows by at most 8 + 1 + 2 bytes per arrival, and its peak by
        at most twice that.
        """
        scenario = replace(
            self.SCENARIO,
            schedule=tuple((k * 25.0, (8.0, 6.0, 6.0) if k % 2 else (24.0, 18.0, 18.0)) for k in range(40)),
            horizon=1000.0,
        )

        def measure(s):
            tracemalloc.start()
            try:
                report = run_simulation(s)
                held, peak = tracemalloc.get_traced_memory()
                return held, peak, report
            finally:
                tracemalloc.stop()

        run_simulation(scenario)  # one-time allocations outside the measured runs
        held_untraced, peak_untraced, _ = measure(replace(scenario, record_trace=False))
        held, peak, report = measure(scenario)
        arrivals = len(report.trace)
        assert arrivals > 8 * _WINDOW_ARRIVALS
        assert (held - held_untraced) / arrivals <= 8 + 1 + 2
        assert (peak - peak_untraced) / arrivals <= 2 * (8 + 1 + 2)


class TestPinnedStreams:
    """SHA-256 digests of full traced reports.

    They pin every random stream, the event order and the statistics, so a
    change meant to leave the output alone must leave them unchanged.
    """

    N40 = SystemParams(40, 20)
    RATES48 = (19.2, 14.4, 14.4)  # over 1024 arrivals per class: block refills

    @staticmethod
    def digest(rep):
        fields = (
            rep.offered, rep.blocked, rep.blocking_stderr, rep.event_count,
            rep.utilization, rep.light_time_fraction, rep.high_time_fraction,
            tuple((s.offered, s.blocked, s.utilization, s.measured_time) for s in rep.segments),
            rep.trace,
        )
        return hashlib.sha256(repr(fields).encode()).hexdigest()

    @pytest.mark.parametrize(
        "scheme, fixed, digest",
        [
            (Scheme.DYNAMIC, None,
             "17d7a282c50f0c4ef2d41c9dab80f14b3c8ca0a1712faac9d7ffb9844f0d4596"),
            (Scheme.FIXED_GUARD, ThresholdVector((40, 32, 26)),
             "543bd1f98eac20cb2b7fcc78298ad8cf14e05f2daeb29aa6e9422e8ac264c4bc"),
            (Scheme.NON_PRIORITY, None,
             "6a841c5b39f7289aea43a899b631281bf4612a078b9e61240c6297e50f2a9f32"),
        ],
    )
    def test_each_scheme(self, scheme, fixed, digest):
        rep = run_simulation(
            Scenario(
                params=self.N40, schedule=((0.0, self.RATES48),), horizon=100.0, seed=11,
                scheme=scheme, fixed_thresholds=fixed, record_trace=True,
            )
        )
        assert min(rep.offered) > 1024
        assert self.digest(rep) == digest

    def test_segments_with_silent_phase(self):
        rep = run_simulation(
            Scenario(
                params=SystemParams(10, 5),
                schedule=(
                    (0.0, (8.0, 6.0, 5.0)),
                    (30.0, (0.0, 0.0, 0.0)),
                    (40.0, (0.0, 10.0, 4.0)),
                    (70.0, (12.0, 0.0, 9.0)),
                ),
                horizon=100.0, seed=12, warmup=5.0, record_trace=True,
            )
        )
        assert rep.segments[1].offered == (0, 0, 0)
        assert self.digest(rep) == (
            "b21b77a7c646e3011b013eb731debaec246b797bcb4ee551cd07e38c10f313a6"
        )


class TestSharedRuns:
    """Schemes run together on one arrival walk report what each reports alone."""

    N40 = SystemParams(40, 20)  # high load from a total rate of 40 / 0.925, about 43.2

    @classmethod
    def group(cls, **base):
        return [
            Scenario(scheme=Scheme.DYNAMIC, **base),
            Scenario(scheme=Scheme.FIXED_GUARD, fixed_thresholds=ThresholdVector((40, 32, 26)), **base),
            Scenario(scheme=Scheme.NON_PRIORITY, **base),
        ]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("lam_total", [20.0, 48.0], ids=["light", "heavy"])
    def test_each_report_is_its_solo_run(self, lam_total, seed):
        # 4000 to 9600 arrivals: several windows and holding-draw refills.
        rates = tuple(m * lam_total for m in (0.4, 0.3, 0.3))
        scenarios = self.group(params=self.N40, schedule=((0.0, rates),), horizon=200.0, seed=seed)
        solo = [repr(run_simulation(s)) for s in scenarios]
        assert [repr(r) for r in _run_schemes(scenarios)] == solo
        assert [repr(r) for r in _run_schemes(scenarios[::-1])] == solo[::-1]

    def test_multi_segment_schedule_with_trace(self):
        schedule = tuple((k * 10.0, (8.0, 6.0, 6.0) if k % 2 else (24.0, 18.0, 18.0)) for k in range(10))
        scenarios = self.group(params=self.N40, schedule=schedule, horizon=100.0, seed=3, record_trace=True)
        reports = _run_schemes(scenarios)
        assert [repr(r) for r in reports] == [repr(run_simulation(s)) for s in scenarios]
        assert all(r.trace for r in reports)

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=2),
            dict(horizon=120.0),
            dict(schedule=((0.0, (8.0, 6.0, 6.0)), (50.0, (4.0, 3.0, 3.0)))),
            dict(warmup=5.0),
            dict(record_trace=True),
        ],
        ids=["seed", "horizon", "schedule", "warmup", "record_trace"],
    )
    def test_scenarios_must_differ_only_in_scheme(self, change):
        base = dict(params=self.N40, schedule=((0.0, (8.0, 6.0, 6.0)),), horizon=100.0, seed=1)
        first, fixed, _ = self.group(**base)
        with pytest.raises(ValueError, match="differ only in scheme"):
            _run_schemes([first, replace(fixed, **change)])
