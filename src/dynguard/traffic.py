"""Traffic arithmetic for dynamic guard-channel reservation.

Everything here is plain rate algebra: total arrival rate, the light/high
load classification, per-class reservation quotas over the reservable pool
N - C, the integer availability thresholds derived from them, and an online
rate estimator fed by inter-arrival gaps.

Classes are numbered 1..M, class 1 being the highest priority. All
operations are pure; ``RateEstimator.observe`` returns a new estimator
instead of mutating.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

# A per-class arrival-rate vector (calls per unit time), index 0 = class 1.
RateVector = tuple[float, ...]

# Clamp for zero inter-arrival gaps so 1/gap stays finite.
MIN_GAP = 1e-9

# Slack added before flooring cumulative quotas, so that quotas which are
# mathematically integral but carry float noise do not flip the threshold.
_FLOOR_SLACK = 1e-9


class ZeroTotalRateError(ValueError):
    """Raised when an operation needs a positive total arrival rate."""


class LoadCondition(Enum):
    """Load regime: reservation is active only under HIGH."""

    LIGHT = "light"
    HIGH = "high"


@dataclass(frozen=True)
class SystemParams:
    """Static description of the channel pool.

    capacity: total number of channels N.
    common_floor: channels never reserved away from the lowest class (C).
        Defaults to half the capacity, rounded down.
    service_rate: per-call service rate mu; mean holding time is 1/mu.
    load_threshold: time constant used by the load classification. The
        system counts as highly loaded once the total arrival rate reaches
        capacity / load_threshold. Defaults to 0.925 / service_rate, the
        midpoint of the recommended 0.90..0.95 of the mean holding time.
    class_count: number of traffic classes M.
    """

    capacity: int
    common_floor: int | None = None
    service_rate: float = 1.0
    load_threshold: float | None = None
    class_count: int = 3

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise ValueError(f"capacity must be a positive integer, got {self.capacity!r}")
        if self.common_floor is None:
            object.__setattr__(self, "common_floor", self.capacity // 2)
        if not isinstance(self.common_floor, int) or not 0 <= self.common_floor <= self.capacity:
            raise ValueError(
                f"common_floor must be an integer in [0, {self.capacity}], got {self.common_floor!r}"
            )
        if not (isinstance(self.service_rate, (int, float)) and 0 < self.service_rate <= sys.float_info.max):
            raise ValueError(f"service_rate must be positive and finite, got {self.service_rate!r}")
        if self.load_threshold is None:
            object.__setattr__(self, "load_threshold", 0.925 / self.service_rate)
        if not (isinstance(self.load_threshold, (int, float)) and 0 < self.load_threshold <= sys.float_info.max):
            raise ValueError(f"load_threshold must be positive and finite, got {self.load_threshold!r}")
        if not isinstance(self.class_count, int) or self.class_count < 1:
            raise ValueError(f"class_count must be a positive integer, got {self.class_count!r}")

    @property
    def high_load_rate(self) -> float:
        """Total arrival rate at or above which reservation activates."""
        return self.capacity / self.load_threshold

    @property
    def reservable_pool(self) -> int:
        """Channels available for reservation (capacity minus the floor)."""
        return self.capacity - self.common_floor


@dataclass(frozen=True)
class ThresholdVector:
    """Per-class availability limits plus the fractional quotas behind them.

    ``limits[m-1]`` is the occupancy at or above which class-m arrivals are
    blocked; class m is admitted only while fewer channels are busy. The
    first limit equals the capacity and the sequence never increases.
    ``quotas`` keeps the fractional reservations (one per class except the
    last) for diagnostics; it may be empty for hand-built threshold sets.
    """

    limits: tuple[int, ...]
    quotas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.limits:
            raise ValueError("at least one availability limit is required")
        for lim in self.limits:
            if not isinstance(lim, int) or lim < 0:
                raise ValueError(f"limits must be non-negative integers, got {self.limits!r}")
        if any(a < b for a, b in zip(self.limits, self.limits[1:])):
            raise ValueError(f"limits must be non-increasing, got {self.limits!r}")
        if self.quotas:
            if len(self.quotas) != len(self.limits) - 1:
                raise ValueError("expected one quota per class except the last")
            if any(q < 0 for q in self.quotas):
                raise ValueError(f"quotas must be non-negative, got {self.quotas!r}")

    @property
    def capacity(self) -> int:
        return self.limits[0]

    @property
    def class_count(self) -> int:
        return len(self.limits)

    def limit(self, cls: int) -> int:
        """Availability limit for 1-based class ``cls``."""
        return self.limits[cls - 1]


def as_rate_vector(rates, class_count: int | None = None) -> RateVector:
    """Validate and normalize a per-class rate sequence to a tuple."""
    vec = tuple(rates)
    if not vec:
        raise ValueError("at least one traffic class is required")
    if class_count is not None and len(vec) != class_count:
        raise ValueError(f"expected {class_count} class rates, got {len(vec)}")
    for i, r in enumerate(vec):
        if not 0 <= r <= sys.float_info.max:
            raise ValueError(f"class {i + 1} rate must be finite and non-negative, got {r}")
    return tuple(map(float, vec))


def total_arrival_rate(rates) -> float:
    """Sum of all per-class arrival rates."""
    return math.fsum(as_rate_vector(rates))


def classify_load(rates, params: SystemParams) -> LoadCondition:
    """HIGH once the total rate reaches capacity / load_threshold, else LIGHT."""
    if total_arrival_rate(rates) >= params.high_load_rate:
        return LoadCondition.HIGH
    return LoadCondition.LIGHT


def _threshold_limits(
    vec: RateVector, lam_total: float, capacity: int, pool: int
) -> tuple[int, ...]:
    """Integer availability limits from a validated rate vector and its fsum.

    Shared by :func:`availability_thresholds` and the simulator's per-arrival
    recomputation so both always agree.
    """
    limits = [capacity]
    cum = 0.0
    for lam in vec[:-1]:
        cum += lam / lam_total * pool
        limits.append(capacity - math.floor(cum + _FLOOR_SLACK))
    return tuple(limits)


def availability_thresholds(rates, params: SystemParams) -> ThresholdVector:
    """Availability limits for every class under the current rates.

    Class 1 may always use the full capacity. Each lower class loses the
    floor of the cumulative quotas reserved by the classes above it, so the
    limits never increase with class index and never drop below the common
    floor. Flooring the cumulative quota (rather than rounding up) leaves
    the fractional remainder available to lower classes.
    """
    vec = as_rate_vector(rates, params.class_count)
    lam_total = math.fsum(vec)
    if lam_total == 0.0:
        raise ZeroTotalRateError("availability thresholds undefined at zero total rate")
    pool = params.reservable_pool
    quotas = tuple(lam / lam_total * pool for lam in vec[:-1])
    return ThresholdVector(_threshold_limits(vec, lam_total, params.capacity, pool), quotas)


def _observe_gap(
    last_seen: list, estimates: list, idx: int, t: float, smoothing: float | None
) -> bool:
    """Record an arrival of class ``idx + 1`` at ``t`` in the per-class lists.

    Both lists are updated in place; the estimate changes from the second
    arrival on. Returns True when this arrival gives the class its first
    estimate. :class:`RateEstimator` and the simulator's event loop both
    call this, so the gap clamp and the smoothing blend live only here.
    """
    prev = last_seen[idx]
    last_seen[idx] = t
    if prev is None:
        return False
    gap = t - prev
    inst = 1.0 / (gap if gap > MIN_GAP else MIN_GAP)
    old = estimates[idx]
    if old is not None and smoothing is not None:
        inst = smoothing * inst + (1.0 - smoothing) * old
    estimates[idx] = inst
    return old is None


@dataclass(frozen=True)
class RateEstimator:
    """Online per-class rate estimates from the last two arrivals.

    A class's estimate becomes 1/gap once two arrivals have been seen; until
    then queries fall back to the configured prior. Gaps of zero (discrete
    timestamps colliding) are clamped to ``MIN_GAP``. With ``smoothing`` set
    to a factor s in (0, 1], an estimate is an exponentially weighted average
    of the instantaneous rates, not of the gaps: new = s*(1/gap) + (1 - s)*old.
    The simulator's event loop calls the same update function on plain lists.
    """

    priors: tuple[float, ...]
    smoothing: float | None = None
    last_seen: tuple[float | None, ...] = ()
    estimates: tuple[float | None, ...] = ()

    def __post_init__(self) -> None:
        as_rate_vector(self.priors)
        if self.smoothing is not None and not 0 < self.smoothing <= 1:
            raise ValueError(f"smoothing must be in (0, 1], got {self.smoothing}")
        if not self.last_seen:
            object.__setattr__(self, "last_seen", (None,) * len(self.priors))
        if not self.estimates:
            object.__setattr__(self, "estimates", (None,) * len(self.priors))
        if len(self.last_seen) != len(self.priors) or len(self.estimates) != len(self.priors):
            raise ValueError("per-class state must match the prior vector length")

    @property
    def class_count(self) -> int:
        return len(self.priors)

    @property
    def ready(self) -> bool:
        """True once every class has two observed arrivals (a defined gap)."""
        return all(e is not None for e in self.estimates)

    def observe(self, cls: int, timestamp: float) -> "RateEstimator":
        """Record an arrival of 1-based class ``cls``; returns the updated estimator."""
        if not 1 <= cls <= self.class_count:
            raise ValueError(f"class must be in 1..{self.class_count}, got {cls}")
        if not math.isfinite(timestamp):
            raise ValueError(f"arrival timestamps must be finite, got {timestamp}")
        prev = self.last_seen[cls - 1]
        if prev is not None and timestamp < prev:
            raise ValueError(
                f"arrival timestamps must be non-decreasing per class: {timestamp} < {prev}"
            )
        last_seen = list(self.last_seen)
        estimates = list(self.estimates)
        _observe_gap(last_seen, estimates, cls - 1, timestamp, self.smoothing)
        # The state stays consistent, so the successor skips __post_init__
        # and its re-validation of the unchanged priors.
        successor = object.__new__(type(self))
        vars(successor).update(vars(self), last_seen=tuple(last_seen), estimates=tuple(estimates))
        return successor

    def rate(self, cls: int) -> float:
        """Current estimate for 1-based class ``cls`` (prior until two arrivals)."""
        est = self.estimates[cls - 1]
        return self.priors[cls - 1] if est is None else est

    def rates(self) -> RateVector:
        """Current per-class estimates as a rate vector."""
        return tuple(p if e is None else e for p, e in zip(self.priors, self.estimates))
