"""Steady-state analysis of the guard-channel birth-death chain.

With thresholds frozen, the number of busy channels is a birth-death chain
on 0..N: the birth rate at occupancy i is the summed arrival rate of every
class still admitted there, and the death rate is i*mu. This module builds
that chain, solves it two independent ways (a stable ratio recursion and a
dense linear solve used as a cross-check), and turns the distribution into
per-class blocking probabilities and utilization. The classic single-rate
loss formula is included as the non-priority baseline.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .traffic import (
    LoadCondition,
    SystemParams,
    ThresholdVector,
    as_rate_vector,
    availability_thresholds,
    classify_load,
)

# Dense-solve budget for the cross-check oracle.
_ORACLE_MAX_STATES = 2000

# Rescale trigger for the ratio recursion; keeps weights finite for any N.
_RESCALE_LIMIT = 1e100


@dataclass(frozen=True)
class BirthDeathChain:
    """Occupancy chain: ``birth_rates[i]`` applies at state i, deaths are i*mu.

    Birth rates never increase with occupancy because thresholds only remove
    classes as the system fills.
    """

    birth_rates: tuple[float, ...]
    service_rate: float

    def __post_init__(self) -> None:
        if not 0 < self.service_rate <= sys.float_info.max:
            raise ValueError(f"service_rate must be positive and finite, got {self.service_rate}")
        b = np.asarray(self.birth_rates, dtype=float)
        bad = np.flatnonzero(~((b >= 0) & (b < math.inf)))
        if bad.size:
            raise ValueError(f"birth rates must be finite and non-negative, got {self.birth_rates[bad[0]]}")
        if (b[:-1] < b[1:]).any():
            raise ValueError("birth rates must be non-increasing in occupancy")

    @property
    def capacity(self) -> int:
        return len(self.birth_rates)


@dataclass(frozen=True)
class SteadyStateDistribution:
    """Stationary occupancy probabilities P_0..P_N."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("a distribution needs at least one state")
        p = np.asarray(self.probabilities, dtype=float)
        bad = np.flatnonzero(~((p >= -1e-9) & (p <= 1 + 1e-9)))
        if bad.size:
            raise ValueError(f"state probability out of range: {self.probabilities[bad[0]]}")

    @property
    def capacity(self) -> int:
        return len(self.probabilities) - 1

    def tail(self, start: int) -> float:
        """Probability of occupancy >= ``start``."""
        return math.fsum(self.probabilities[start:])

    def mean_occupancy(self) -> float:
        return math.fsum((np.arange(len(self.probabilities)) * self.probabilities).tolist())


@dataclass(frozen=True)
class BlockingReport:
    """Per-class blocking plus channel-usage summary for one configuration."""

    blocking: tuple[float, ...]
    utilization: float
    carried_load: float
    mean_occupancy: float


def build_chain(thresholds: ThresholdVector, rates, service_rate: float) -> BirthDeathChain:
    """Birth-death chain for frozen availability limits.

    Class m is admitted while occupancy i < limits[m-1], so the states
    limits[m] <= i < limits[m-1] (limits[M] = 0) admit exactly classes 1..m.
    Each such run gets one ``math.fsum`` over that prefix; fsum is correctly
    rounded, so this is the float a per-state sum over the admitted classes gives.
    """
    vec = as_rate_vector(rates, thresholds.class_count)
    bounds = thresholds.limits + (0,)
    births: list[float] = []
    for m in range(len(vec), 0, -1):
        births += [math.fsum(vec[:m])] * (bounds[m - 1] - bounds[m])
    return BirthDeathChain(tuple(births), float(service_rate))


def steady_state(chain: BirthDeathChain) -> SteadyStateDistribution:
    """Stationary distribution by the ratio recursion w_i = w_{i-1} * (birth_{i-1} / (i*mu)).

    Dividing first keeps the product finite at huge rates. ``np.multiply.accumulate``
    forms the product strictly left to right. Where a weight first passes
    ``_RESCALE_LIMIT``, the prefix is scaled by its reciprocal and the accumulate
    restarts from the rescaled weight, so every weight is bitwise that of a loop
    that rescales in place; products past that point may overflow and are overwritten.
    """
    n = chain.capacity
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.asarray(chain.birth_rates, dtype=float) / (np.arange(1.0, n + 1) * chain.service_rate)
        w = np.multiply.accumulate(np.concatenate(([1.0], ratios)))
        i = 0
        while (over := np.flatnonzero(w[i + 1 :] > _RESCALE_LIMIT)).size:
            i += 1 + int(over[0])
            w[: i + 1] *= 1.0 / w[i]
            w[i + 1 :] = ratios[i:]
            np.multiply.accumulate(w[i:], out=w[i:])
    return SteadyStateDistribution(tuple((w / math.fsum(w.tolist())).tolist()))


def steady_state_oracle(chain: BirthDeathChain) -> SteadyStateDistribution:
    """Stationary distribution by dense global-balance elimination.

    Builds the full (N+1)x(N+1) balance system, replaces the redundant row
    with the normalization constraint, and solves it directly. Kept free of
    the ratio recursion so the two solvers can cross-check each other.
    """
    n = chain.capacity
    if n + 1 > _ORACLE_MAX_STATES:
        raise ValueError(f"dense solve limited to {_ORACLE_MAX_STATES} states, got {n + 1}")
    mu = chain.service_rate
    a = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    for i in range(n + 1):
        out = i * mu + (chain.birth_rates[i] if i < n else 0.0)
        a[i, i] -= out
        if i > 0:
            a[i, i - 1] += chain.birth_rates[i - 1]
        if i < n:
            a[i, i + 1] += (i + 1) * mu
    a[n, :] = 1.0
    b[n] = 1.0
    x = np.linalg.solve(a, b)
    x[np.abs(x) < 1e-15] = 0.0
    return SteadyStateDistribution(tuple(float(p) for p in x))


def blocking_report(
    dist: SteadyStateDistribution,
    thresholds: ThresholdVector,
    rates,
    service_rate: float,
) -> BlockingReport:
    """Per-class blocking and utilization from a stationary distribution.

    A class-m arrival is blocked exactly when occupancy has reached its
    limit, so its blocking probability is the tail sum of the distribution
    from that limit. Utilization is mean occupancy over capacity; carried
    load is the admitted flow in erlangs.
    """
    if dist.capacity != thresholds.capacity:
        raise ValueError(
            f"distribution has capacity {dist.capacity}, thresholds {thresholds.capacity}"
        )
    vec = as_rate_vector(rates, thresholds.class_count)
    blocking = tuple(dist.tail(lim) for lim in thresholds.limits)
    mean_occ = dist.mean_occupancy()
    carried = math.fsum(
        lam * (1.0 - b) for lam, b in zip(vec, blocking)
    ) / float(service_rate)
    return BlockingReport(
        blocking=blocking,
        utilization=mean_occ / dist.capacity if dist.capacity else 0.0,
        carried_load=carried,
        mean_occupancy=mean_occ,
    )


def erlang_b(channels: int, offered: float) -> float:
    """Blocking probability of a shared pool of ``channels`` at ``offered`` erlangs.

    Stable forward recursion: B(0) = 1, B(k) = a*B(k-1) / (k + a*B(k-1)).
    """
    if not isinstance(channels, int) or channels < 0:
        raise ValueError(f"channels must be a non-negative integer, got {channels!r}")
    if not 0 <= offered <= sys.float_info.max:
        raise ValueError(f"offered load must be finite and non-negative, got {offered!r}")
    b = 1.0
    for k in range(1, channels + 1):
        b = offered * b / (k + offered * b)
    return b


def nonpriority_report(params: SystemParams, rates) -> BlockingReport:
    """Report for the no-reservation baseline where all classes share the pool.

    Every class sees the same blocking, taken from the :func:`erlang_b`
    recursion. Both the baseline rows and light-load dynamic rows are
    produced here so the two coincide bit-for-bit.
    """
    vec = as_rate_vector(rates, params.class_count)
    offered = math.fsum(vec) / params.service_rate
    n = params.capacity
    # The recursion's last step, B(N) = a*B(N-1) / (N + a*B(N-1)), also gives
    # 1 - B(N) = N / (N + a*B(N-1)) without a subtraction that cancels to 0
    # once B(N) rounds to 1 at huge load.
    a_b = offered * erlang_b(n - 1, offered)
    utilization = offered / (n + a_b)
    carried = utilization * n
    return BlockingReport(
        blocking=(a_b / (n + a_b),) * params.class_count,
        utilization=utilization,
        carried_load=carried,
        mean_occupancy=carried,
    )


def quasi_stationary_curve(
    params: SystemParams, mix, grid
) -> list[BlockingReport]:
    """Analytic curve for the dynamic scheme across a total-rate grid.

    Each grid point is treated as its own frozen configuration: light points
    use the shared-pool baseline, high points rebuild the thresholds from
    the rate mix and solve the resulting chain. The simulator is the check
    on how well this frozen-threshold approximation tracks the live scheme.
    """
    mix_vec = as_rate_vector(mix, params.class_count)
    if abs(math.fsum(mix_vec) - 1.0) > 1e-9:
        raise ValueError(f"mix proportions must sum to 1, got {math.fsum(mix_vec)!r}")
    points = [float(g) for g in grid]
    for g in points:
        if not (math.isfinite(g) and g > 0):
            raise ValueError(f"grid points must be positive, got {g!r}")
    reports = []
    for lam_total in points:
        rates = tuple(p * lam_total for p in mix_vec)
        if classify_load(rates, params) is LoadCondition.HIGH:
            thresholds = availability_thresholds(rates, params)
            chain = build_chain(thresholds, rates, params.service_rate)
            reports.append(blocking_report(steady_state(chain), thresholds, rates, params.service_rate))
        else:
            reports.append(nonpriority_report(params, rates))
    return reports
