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
from dataclasses import dataclass, replace
from enum import Enum

# Clamp for zero inter-arrival gaps so 1/gap stays finite.
MIN_GAP = 1e-9

# Slack added before flooring cumulative quotas, so that quotas which are
# mathematically integral but carry float noise do not flip the threshold.
_FLOOR_SLACK = 1e-9


def _class_index(cls: int, class_count: int) -> int:
    """The 0-based index of 1-based class ``cls``; ValueError outside 1..M."""
    if not 1 <= cls <= class_count:
        raise ValueError(f"class must be in 1..{class_count}, got {cls}")
    return cls - 1


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
        return self.limits[_class_index(cls, self.class_count)]


# The checks below are each rule's one home. Every message starts with the
# field at fault, so the config loader can name that field's line.


def _check_fit(field: str, limits: tuple[int, ...], params: SystemParams) -> None:
    """ValueError unless ``limits`` give one limit per class, the first the capacity."""
    if len(limits) != params.class_count or limits[0] != params.capacity:
        raise ValueError(
            f"{field} must give one limit for each of the {params.class_count} classes, "
            f"and the first must equal the capacity {params.capacity}, got {limits}"
        )


def _check_mix(mix, class_count: int) -> None:
    """ValueError unless ``mix`` gives ``class_count`` proportions in [0, 1] summing to 1."""
    if len(mix) != class_count:
        raise ValueError(f"mix gives {len(mix)} proportions for {class_count} classes")
    for m in mix:
        if not 0 <= m <= 1:
            raise ValueError(f"mix proportions must be non-negative and at most 1, got {m!r}")
    if abs(math.fsum(mix) - 1.0) > 1e-9:
        raise ValueError(f"mix proportions must sum to 1, got {math.fsum(mix)!r}")


def _check_grid(grid) -> None:
    """ValueError unless every total rate in ``grid`` is positive and finite."""
    for g in grid:
        if not 0 < g <= sys.float_info.max:
            raise ValueError(f"grid points must be positive and finite, got {g!r}")


def as_rate_vector(rates, class_count: int | None = None) -> tuple[float, ...]:
    """Validate and normalize a per-class rate sequence (calls per unit time,
    index 0 = class 1) to a tuple of floats."""
    vec = tuple(rates)
    if not vec:
        raise ValueError("at least one traffic class is required")
    if class_count is not None and len(vec) != class_count:
        raise ValueError(f"expected {class_count} class rates, got {len(vec)}")
    for i, r in enumerate(vec):
        if not 0 <= r <= sys.float_info.max:
            raise ValueError(f"class {i + 1} rate must be finite and non-negative, got {r}")
    return tuple(map(float, vec))


def _rate_sum(vec: tuple[float, ...]) -> float:
    """``math.fsum`` of validated rates, with the ValueError that names them
    where a sum beyond the float range makes fsum raise OverflowError."""
    try:
        return math.fsum(vec)
    except OverflowError:
        raise ValueError(f"the sum of {vec} is beyond the float range") from None


def total_arrival_rate(rates) -> float:
    """Sum of all per-class arrival rates."""
    return _rate_sum(as_rate_vector(rates))


def classify_load(rates, params: SystemParams) -> LoadCondition:
    """HIGH once the total rate reaches capacity / load_threshold, else LIGHT."""
    if total_arrival_rate(rates) >= params.high_load_rate:
        return LoadCondition.HIGH
    return LoadCondition.LIGHT


def _class_limit(vec, lam_total: float, capacity: int, pool: int, idx: int) -> int:
    """Availability limit of class ``idx + 1`` from validated rates and their fsum.

    The classes above it reserve the running sum of their quotas, floored.
    The simulator's admission policy repeats these float operations on
    whole arrays, and a test replays its decisions through
    :func:`availability_thresholds`.
    """
    cum = 0.0
    for lam in vec[:idx]:
        cum += lam / lam_total * pool
    return capacity - math.floor(cum + _FLOOR_SLACK)


def availability_thresholds(rates, params: SystemParams) -> ThresholdVector:
    """Availability limits for every class under the current rates.

    Class 1 may always use the full capacity. Each lower class loses the
    floor of the cumulative quotas reserved by the classes above it, so the
    limits never increase with class index and never drop below the common
    floor. Flooring the cumulative quota (rather than rounding up) leaves
    the fractional remainder available to lower classes.
    """
    vec = as_rate_vector(rates, params.class_count)
    lam_total = _rate_sum(vec)
    if lam_total == 0.0:
        raise ZeroTotalRateError("availability thresholds undefined at zero total rate")
    pool = params.reservable_pool
    quotas = tuple(lam / lam_total * pool for lam in vec[:-1])
    limits = tuple(_class_limit(vec, lam_total, params.capacity, pool, idx) for idx in range(len(vec)))
    return ThresholdVector(limits, quotas)


def _observe_gap(last_seen: list, estimates: list, idx: int, t: float) -> bool:
    """Record an arrival of class ``idx + 1`` at ``t`` in the per-class lists.

    Both lists are updated in place; the estimate changes from the second
    arrival on. Returns True when this arrival gives the class its first
    estimate. The simulator's admission policy repeats the gap clamp on
    whole arrays, and a test replays its decisions through
    :class:`RateEstimator`.
    """
    prev = last_seen[idx]
    last_seen[idx] = t
    if prev is None:
        return False
    gap = t - prev
    first = estimates[idx] is None
    estimates[idx] = 1.0 / (gap if gap > MIN_GAP else MIN_GAP)
    return first


@dataclass(frozen=True)
class RateEstimator:
    """Online per-class rate estimates from the last two arrivals.

    A class's estimate becomes 1/gap once two arrivals have been seen; until
    then queries fall back to the configured prior. Gaps of zero (discrete
    timestamps colliding) are clamped to ``MIN_GAP``.
    """

    priors: tuple[float, ...]
    last_seen: tuple[float | None, ...] = ()
    estimates: tuple[float | None, ...] = ()

    def __post_init__(self) -> None:
        as_rate_vector(self.priors)
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
        idx = _class_index(cls, self.class_count)
        if not math.isfinite(timestamp):
            raise ValueError(f"arrival timestamps must be finite, got {timestamp}")
        prev = self.last_seen[idx]
        if prev is not None and timestamp < prev:
            raise ValueError(
                f"arrival timestamps must be non-decreasing per class: {timestamp} < {prev}"
            )
        last_seen = list(self.last_seen)
        estimates = list(self.estimates)
        _observe_gap(last_seen, estimates, idx, timestamp)
        return replace(self, last_seen=tuple(last_seen), estimates=tuple(estimates))

    def rate(self, cls: int) -> float:
        """Current estimate for 1-based class ``cls`` (prior until two arrivals)."""
        idx = _class_index(cls, self.class_count)
        est = self.estimates[idx]
        return self.priors[idx] if est is None else est

    def rates(self) -> tuple[float, ...]:
        """Current per-class estimates as a rate vector."""
        return tuple(p if e is None else e for p, e in zip(self.priors, self.estimates))
