"""Rate arithmetic, thresholds, and the online estimator."""

import math
import re

import numpy as np
import pytest

from dynguard import (
    LoadCondition,
    RateEstimator,
    SystemParams,
    ThresholdVector,
    ZeroTotalRateError,
    as_rate_vector,
    availability_thresholds,
    classify_load,
    total_arrival_rate,
)


def random_params(rng, max_capacity=200, max_classes=6):
    n = int(rng.integers(1, max_capacity + 1))
    return SystemParams(
        capacity=n,
        common_floor=int(rng.integers(0, n + 1)),
        service_rate=float(rng.uniform(0.25, 4.0)),
        class_count=int(rng.integers(1, max_classes + 1)),
    )


def random_rates(rng, class_count, scale=10.0):
    rates = rng.uniform(0.0, scale, class_count)
    if rates.sum() == 0.0:
        rates[0] = 1.0
    return tuple(float(r) for r in rates)


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams(capacity=40)
        assert p.common_floor == 20
        assert p.load_threshold == pytest.approx(0.925)
        assert p.reservable_pool == 20

    def test_gamma_tracks_service_rate(self):
        p = SystemParams(capacity=10, service_rate=2.0)
        assert p.load_threshold == pytest.approx(0.4625)
        assert p.high_load_rate == pytest.approx(10 / 0.4625)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(capacity=0),
            dict(capacity=-3),
            dict(capacity=10, common_floor=11),
            dict(capacity=10, common_floor=-1),
            dict(capacity=10, service_rate=0.0),
            dict(capacity=10, load_threshold=-1.0),
            dict(capacity=10, service_rate=math.inf),
            dict(capacity=10, load_threshold=math.inf),
            dict(capacity=10, service_rate=5e-324),  # default load_threshold overflows
            dict(capacity=4, service_rate=10**400, load_threshold=1.0),  # beyond the float range
            dict(capacity=4, service_rate=10**400),
            dict(capacity=4, load_threshold=10**400),
            dict(capacity=10, class_count=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestTotalRate:
    def test_sums_classes(self):
        assert total_arrival_rate((2, 1, 1)) == 4.0

    def test_zero_entries(self):
        assert total_arrival_rate((5, 0, 0)) == 5.0

    def test_idle_system(self):
        assert total_arrival_rate((0, 0, 0)) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_rate_vector((1.0, -0.5))
        # an int beyond the float range gets the same message, not OverflowError
        message = f"class 2 rate must be finite and non-negative, got {10**400}"
        for call in (as_rate_vector, total_arrival_rate):
            with pytest.raises(ValueError, match=re.escape(message)):
                call([1, 10**400])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            total_arrival_rate(())


class TestClassifyLoad:
    def test_light(self):
        p = SystemParams(10, 5, load_threshold=0.9)
        assert classify_load((2, 1, 1), p) is LoadCondition.LIGHT

    def test_high(self):
        p = SystemParams(10, 5, load_threshold=0.9)
        assert classify_load((6, 4, 2), p) is LoadCondition.HIGH

    def test_boundary_counts_as_high(self):
        # threshold rate is exactly representable: 10 / 0.8 = 12.5
        p = SystemParams(10, 5, load_threshold=0.8)
        assert p.high_load_rate == 12.5
        assert classify_load((6.5, 3.0, 3.0), p) is LoadCondition.HIGH
        assert classify_load((6.5, 3.0, 2.9), p) is LoadCondition.LIGHT


class TestAvailabilityThresholds:
    def test_floor_rule(self):
        p = SystemParams(10, 5)
        tv = availability_thresholds((2, 1, 1), p)
        assert tv.limits == (10, 8, 7)
        assert tv.quotas == pytest.approx((2.5, 1.25))

    def test_full_reservation_pins_at_floor(self):
        p = SystemParams(10, 5)
        assert availability_thresholds((4, 0, 0), p).limits == (10, 5, 5)

    def test_floor_equal_capacity_disables_reservation(self):
        p = SystemParams(10, 10)
        tv = availability_thresholds((2, 1, 1), p)
        assert tv.limits == (10, 10, 10)
        assert tv.quotas == (0.0, 0.0)

    def test_zero_total_rate(self):
        p = SystemParams(10, 5)
        with pytest.raises(ZeroTotalRateError):
            availability_thresholds((0, 0, 0), p)

    def test_single_class_keeps_full_pool(self):
        p = SystemParams(10, 5, class_count=1)
        tv = availability_thresholds((3.0,), p)
        assert tv.limits == (10,)
        assert tv.quotas == ()

    def test_threshold_vector_rejects_increasing_limits(self):
        with pytest.raises(ValueError):
            ThresholdVector((4, 5, 3))

    def test_limit_accessor_is_one_based(self):
        tv = ThresholdVector((10, 8, 7))
        assert (tv.limit(1), tv.limit(2), tv.limit(3)) == (10, 8, 7)


class TestThresholdProperties:
    """Randomized invariants of the quota/threshold arithmetic."""

    def test_ordering_and_floor(self):
        rng = np.random.default_rng(101)
        for _ in range(400):
            p = random_params(rng)
            rates = random_rates(rng, p.class_count)
            tv = availability_thresholds(rates, p)
            assert tv.limits[0] == p.capacity
            assert all(a >= b for a, b in zip(tv.limits, tv.limits[1:]))
            assert tv.limits[-1] >= p.common_floor

    def test_quota_conservation(self):
        rng = np.random.default_rng(102)
        for _ in range(400):
            p = random_params(rng)
            rates = random_rates(rng, p.class_count)
            tv = availability_thresholds(rates, p)
            lam_total = math.fsum(rates)
            expected = (lam_total - rates[-1]) / lam_total * p.reservable_pool
            got = math.fsum(tv.quotas)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert got <= p.reservable_pool * (1 + 1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(103)
        for _ in range(400):
            p = random_params(rng)
            rates = random_rates(rng, p.class_count)
            c = float(10.0 ** rng.uniform(-6, 6))
            scaled = tuple(c * r for r in rates)
            assert (
                availability_thresholds(rates, p).limits
                == availability_thresholds(scaled, p).limits
            )

    def test_monotone_reservation(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            p = random_params(rng)
            if p.class_count < 2:
                continue
            rates = list(random_rates(rng, p.class_count))
            before = availability_thresholds(rates, p).limits[1]
            rates[0] += float(rng.uniform(0.0, 20.0))
            after = availability_thresholds(rates, p).limits[1]
            assert after <= before


class TestRateEstimator:
    def test_two_arrivals_define_the_rate(self):
        est = RateEstimator(priors=(1.0, 1.0))
        est = est.observe(1, 2.0).observe(1, 2.5)
        assert est.rate(1) == pytest.approx(2.0)

    def test_falls_back_to_prior(self):
        est = RateEstimator(priors=(0.7, 0.3)).observe(1, 5.0)
        assert est.rate(1) == 0.7
        assert est.rate(2) == 0.3
        assert not est.ready

    def test_zero_gap_is_clamped(self):
        est = RateEstimator(priors=(1.0,)).observe(1, 3.0).observe(1, 3.0)
        assert est.rate(1) == pytest.approx(1e9)

    def test_decreasing_timestamp_rejected(self):
        est = RateEstimator(priors=(1.0,)).observe(1, 3.0)
        with pytest.raises(ValueError):
            est.observe(1, 2.0)

    def test_non_finite_timestamp_rejected(self):
        est = RateEstimator(priors=(1.0,)).observe(1, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                est.observe(1, bad)

    def test_observe_is_functional(self):
        est = RateEstimator(priors=(1.0,))
        est2 = est.observe(1, 1.0)
        assert est.last_seen == (None,)
        assert est2.last_seen == (1.0,)
        # the successor is a full frozen estimator, equal to one built directly
        assert est2 == RateEstimator(priors=(1.0,), last_seen=(1.0,), estimates=(None,))
        with pytest.raises(AttributeError):
            est2.priors = (2.0,)
        with pytest.raises(ValueError):
            est2.observe(2, 1.5)
    def test_ready_needs_every_class(self):
        est = RateEstimator(priors=(1.0, 1.0))
        est = est.observe(1, 0.0).observe(1, 1.0)
        assert not est.ready
        est = est.observe(2, 0.5).observe(2, 1.5)
        assert est.ready

    def test_smoothing_blends_instantaneous_rates(self):
        est = RateEstimator(priors=(1.0,), smoothing=0.5)
        est = est.observe(1, 0.0).observe(1, 1.0)  # inst 1.0
        est = est.observe(1, 1.25)  # inst 4.0 -> 0.5*4 + 0.5*1
        assert est.rate(1) == pytest.approx(2.5)

    def test_smoothing_validated(self):
        with pytest.raises(ValueError):
            RateEstimator(priors=(1.0,), smoothing=1.5)

    def test_estimate_sanity_over_poisson_stream(self):
        # The harmonic time-average of the per-arrival estimates recovers the
        # empirical rate; the arithmetic mean of 1/gap diverges (heavy tail)
        # and is deliberately not the gate.
        rng = np.random.default_rng(3)
        true_rate = 2.0
        est = RateEstimator(priors=(true_rate,))
        t = 0.0
        inverse_sum = 0.0
        count = 0
        for _ in range(10_000):
            t += float(rng.exponential(1.0 / true_rate))
            est = est.observe(1, t)
            if est.estimates[0] is not None:
                inverse_sum += 1.0 / est.estimates[0]
                count += 1
        harmonic = count / inverse_sum
        assert abs(harmonic - true_rate) / true_rate < 0.20

    def test_thresholds_from_estimates_match_explicit_rates(self):
        # Feeding gaps whose 1/gap values equal an explicit rate vector must
        # give identical thresholds either way.
        rng = np.random.default_rng(105)
        p = SystemParams(capacity=24, common_floor=9, class_count=3)
        for _ in range(100):
            rates = random_rates(rng, 3, scale=8.0)
            rates = tuple(max(r, 1e-3) for r in rates)
            est = RateEstimator(priors=(1.0, 1.0, 1.0))
            for cls, r in enumerate(rates, start=1):
                est = est.observe(cls, 10.0).observe(cls, 10.0 + 1.0 / r)
            assert est.ready
            assert (
                availability_thresholds(est.rates(), p).limits
                == availability_thresholds(rates, p).limits
            )
