"""Steady-state analysis of the guard-channel birth-death chain.

With thresholds frozen, the number of busy channels is a birth-death chain
on 0..N: the birth rate at occupancy i is the summed arrival rate of every
class still admitted there, and the death rate is i*mu. This module builds
that chain, solves it two independent ways (a stable ratio recursion and a
dense linear solve used as a cross-check), and turns the distribution into
per-class blocking probabilities and utilization. The classic single-rate
loss formula is included as the non-priority baseline.

A chain stays a numpy array from its rates to its report
(:func:`_point_report`); the public functions, whose types hold tuples,
call the same helpers. The ratio recursion accumulates from rescale to rescale
in its growth region, a long exact sum is a numpy head and rest certified by
fsum (:func:`_exact_sum`), and the shared pool's loss recursion runs once, in
place, over an array of offered loads (:func:`_pool_reports`).
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
    _check_fit,
    _check_grid,
    _check_mix,
    _rate_sum,
    as_rate_vector,
    availability_thresholds,
    classify_load,
)

# Dense-solve budget for the cross-check oracle.
_ORACLE_MAX_STATES = 2000

# Rescale trigger for the ratio recursion; keeps weights finite for any N.
_RESCALE_LIMIT = 1e100

# The most weights one accumulate pass of the ratio recursion covers.
_ACCUMULATE_BLOCK = 256

# Exact sums of at most this many terms skip the head-and-rest split and its numpy calls.
_SHORT_SUM = 256

# Below this, max|a| * len(a) keeps every sum :func:`_exact_sum` forms inside the float range.
_SUM_RANGE = 2.0**1000


def _float_array(values) -> np.ndarray:
    """``values`` as floats; an int beyond the float range becomes NaN, so range checks reject it."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        return np.array([v if abs(v) <= sys.float_info.max else math.nan for v in values])


def _exact_sum(a: np.ndarray) -> float:
    """The float ``math.fsum`` gives for ``a``, never -0.0, from an exact head and a bounded rest.

    fsum is correctly rounded in any order, so any order gives this float. An array
    of more than ``_SHORT_SUM`` terms is split exactly, term by term (the ExtractVector
    step of Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008). With sigma a
    power of two at least (n + 2) * max|a|, q = (sigma + a) - sigma rounds each term to
    a multiple of 2**-53 * sigma, and the *rest* r = a - q is exact, with
    |r| <= 2**-53 * sigma. Every partial sum of the q is such a multiple below sigma,
    so numpy sums them, in any order, to the exact *head*. numpy sums the rest to s,
    and slack = sum|r| * (n + 2) * 2**-50 is eight times the gamma_{n-1} * sum|r| bound
    on |s - sum(r)|, which holds for any summation order; the margin absorbs the
    rounding of the slack and of s -/+ slack, subnormals included. fsum is monotone in
    each term, so when fsum([head, s - slack]) equals fsum([head, s + slack]), that
    float is the correctly rounded total. A short array, a slack that straddles a
    rounding boundary, and terms that could add past the float range (inf and nan
    among them) take :func:`_largest_first_fsum`.
    """
    if a.size > _SHORT_SUM:
        top = float(np.abs(a).max())
        if top * a.size < _SUM_RANGE:  # false for inf and nan
            sigma = math.ldexp(1.0, math.frexp(top)[1] + (a.size + 1).bit_length())
            q = a + sigma
            q -= sigma
            rest = a - q
            head, s = q.sum(), rest.sum()
            slack = np.abs(rest).sum() * ((a.size + 2) * 2.0**-50)
            low = math.fsum([head, s - slack])
            if low == math.fsum([head, s + slack]):
                return low
    return _largest_first_fsum(a)


def _largest_first_fsum(a: np.ndarray) -> float:
    """``math.fsum`` of ``a`` largest first: fsum then keeps few partials, where index
    order keeps many across the tiny weights rescales leave."""
    return math.fsum(sorted(a.tolist(), reverse=True))


def _check_chain(birth_rates, service_rate) -> None:
    """The checks of :class:`BirthDeathChain`, on a tuple or an array of birth rates."""
    if not 0 < service_rate <= sys.float_info.max:
        raise ValueError(f"service_rate must be positive and finite, got {service_rate}")
    b = _float_array(birth_rates)
    bad = np.flatnonzero(~((b >= 0) & (b < math.inf)))
    if bad.size:
        raise ValueError(f"birth rates must be finite and non-negative, got {birth_rates[bad[0]]}")
    if (b[:-1] < b[1:]).any():
        raise ValueError("birth rates must be non-increasing in occupancy")


def _check_distribution(probabilities) -> None:
    """The checks of :class:`SteadyStateDistribution`, on a tuple or an array."""
    if not len(probabilities):
        raise ValueError("a distribution needs at least one state")
    p = _float_array(probabilities)
    bad = np.flatnonzero(~((p >= -1e-9) & (p <= 1 + 1e-9)))
    if bad.size:
        raise ValueError(f"state probability out of range: {probabilities[bad[0]]}")


@dataclass(frozen=True)
class BirthDeathChain:
    """Occupancy chain: ``birth_rates[i]`` applies at state i, deaths are i*mu.

    Birth rates never increase with occupancy because thresholds only remove
    classes as the system fills.
    """

    birth_rates: tuple[float, ...]
    service_rate: float

    def __post_init__(self) -> None:
        _check_chain(self.birth_rates, self.service_rate)

    @property
    def capacity(self) -> int:
        return len(self.birth_rates)


@dataclass(frozen=True)
class SteadyStateDistribution:
    """Stationary occupancy probabilities P_0..P_N."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_distribution(self.probabilities)

    @property
    def capacity(self) -> int:
        return len(self.probabilities) - 1

    def tail(self, start: int) -> float:
        """Probability of occupancy >= ``start``; see :func:`_exact_sum`."""
        if not (isinstance(start, int) and start >= 0):
            raise ValueError(f"tail start must be an int >= 0, got {start!r}")
        terms = self.probabilities[start:]
        if len(terms) <= _SHORT_SUM:
            # Finite terms, and fsum is correctly rounded in any order: the float _exact_sum gives.
            return math.fsum(terms)
        return _exact_sum(np.asarray(terms))

    def mean_occupancy(self) -> float:
        """Sum of i * P_i; see :func:`_exact_sum`."""
        return _exact_sum(np.arange(len(self.probabilities)) * self.probabilities)


@dataclass(frozen=True)
class BlockingReport:
    """Per-class blocking plus channel-usage summary for one configuration."""

    blocking: tuple[float, ...]
    utilization: float
    mean_occupancy: float


def _births(limits: tuple[int, ...], vec: tuple[float, ...]) -> np.ndarray:
    """Birth rate at each occupancy 0..limits[0]-1 for frozen availability limits.

    Class m is admitted while occupancy i < limits[m-1], so the states
    limits[m] <= i < limits[m-1] (limits[M] = 0) admit exactly classes 1..m.
    Each such run gets one ``math.fsum`` over that prefix; fsum is correctly
    rounded, so this is the float a per-state sum over the admitted classes gives.
    """
    bounds = limits + (0,)
    births = np.empty(limits[0])
    for m in range(len(vec), 0, -1):
        births[bounds[m] : bounds[m - 1]] = _rate_sum(vec[:m])
    return births


def _distribution(births: np.ndarray, service_rate) -> np.ndarray:
    """Stationary distribution by the ratio recursion w_i = w_{i-1} * (birth_{i-1} / (i*mu)).

    Dividing first keeps the product finite at huge rates. The ratios never increase, so
    weights rise, and can pass ``_RESCALE_LIMIT``, only up to the last ratio >= 1 (state
    ``grow``). Up to it ``np.multiply.accumulate`` runs strictly left to right from the
    latest weight, the source's head, over a predicted run of at most ``_ACCUMULATE_BLOCK``
    weights: the last run between rescales plus a quarter, doubled while none crosses.
    The first to cross rescales the weights by its reciprocal and starts the next run, so
    each weight is bitwise that of a loop that rescales in place; products past it may
    overflow and are overwritten. Each such rescale divides weights of about 1 or less by
    over 1e100, so a weight is exactly 0 four rescales after its own: a rescale and the
    normalising :func:`_exact_sum` start at the fifth-latest one. After ``grow`` one
    accumulate runs to the end. The first ratio, the offered load births[0] / mu, is the
    one that can overflow; it is rejected as the shared pool rejects it.
    """
    n = births.size
    src, w = np.empty(n + 1), np.empty(n + 1)
    src[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(births, np.arange(1.0, n + 1) * service_rate, out=src[1:])
        if n and src[1] == math.inf:
            raise ValueError("offered load must be finite and non-negative, got inf")
        grow = int(np.count_nonzero(src[1:] >= 1.0))  # the weights rise up to state grow
        points = [0] * 5  # the rescale states, latest last
        i, run = 0, _ACCUMULATE_BLOCK
        while i < grow:
            stop = min(i + run, i + _ACCUMULATE_BLOCK, grow) + 1
            over = np.multiply.accumulate(src[i:stop], out=w[i:stop]) > _RESCALE_LIMIT
            k = int(over.argmax())
            if over[k]:
                i += k
                w[points[-5] : i + 1] *= 1.0 / w[i]
                run = (i - points[-1]) * 5 // 4
                points.append(i)
            else:
                i, run = stop - 1, 2 * run
            src[i] = w[i]
        np.multiply.accumulate(src[i:], out=w[i:])
    return np.divide(w, _exact_sum(w[points[-5] :]), out=w)


def _chain_report(p: np.ndarray, limits: tuple[int, ...]) -> BlockingReport:
    """Per-class blocking and channel use from a stationary distribution.

    A class-m arrival is blocked exactly when occupancy has reached its
    limit, so its blocking probability is the tail sum of the distribution
    from that limit. Utilization is mean occupancy over capacity. In
    erlangs, flow balance makes the carried load equal the mean occupancy;
    summing the admitted flows instead cancels at heavy load.
    """
    mean_occ = _exact_sum(np.arange(p.size) * p)
    n = p.size - 1
    return BlockingReport(
        blocking=tuple(_exact_sum(p[lim:]) for lim in limits),
        utilization=mean_occ / n if n else 0.0,
        mean_occupancy=mean_occ,
    )


def _point_report(params: SystemParams, limits: tuple[int, ...] | None, rates) -> BlockingReport:
    """Report of one configuration: the shared pool when ``limits`` is None, else the
    chain those availability limits freeze, on arrays from its births to its report."""
    if limits is None:
        return nonpriority_report(params, rates)
    _check_fit("limits", limits, params)
    births = _births(limits, as_rate_vector(rates, len(limits)))
    service_rate = float(params.service_rate)
    _check_chain(births, service_rate)
    p = _distribution(births, service_rate)
    _check_distribution(p)
    return _chain_report(p, limits)


def _dynamic_limits(params: SystemParams, rates) -> tuple[int, ...] | None:
    """The limits the dynamic scheme freezes at ``rates``: the recomputed
    thresholds under high load, the shared pool (None) under light load."""
    if classify_load(rates, params) is LoadCondition.HIGH:
        return availability_thresholds(rates, params).limits
    return None


def build_chain(thresholds: ThresholdVector, rates, service_rate: float) -> BirthDeathChain:
    """Birth-death chain for frozen availability limits; see :func:`_births`."""
    vec = as_rate_vector(rates, thresholds.class_count)
    # float() of an int beyond the float range raises OverflowError; the chain's check names it.
    mu = float(service_rate) if abs(service_rate) <= sys.float_info.max else service_rate
    return BirthDeathChain(tuple(_births(thresholds.limits, vec).tolist()), mu)


def steady_state(chain: BirthDeathChain) -> SteadyStateDistribution:
    """Stationary distribution by the ratio recursion; see :func:`_distribution`."""
    p = _distribution(np.asarray(chain.birth_rates, dtype=float), chain.service_rate)
    return SteadyStateDistribution(tuple(p.tolist()))


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
    """Per-class blocking and utilization from a stationary distribution; see
    :func:`_chain_report`. ``rates`` must give one rate per class; neither they
    nor ``service_rate`` enter the report, since the carried load in erlangs
    is the mean occupancy."""
    if dist.capacity != thresholds.capacity:
        raise ValueError(
            f"distribution has capacity {dist.capacity}, thresholds {thresholds.capacity}"
        )
    as_rate_vector(rates, thresholds.class_count)
    return _chain_report(np.asarray(dist.probabilities), thresholds.limits)


def _erlang_b(channels: int, offered):
    """Stable forward recursion B(0) = 1, B(k) = a*B(k-1) / (k + a*B(k-1)) at ``offered``
    erlangs, a number or a float array. The array loop runs in two buffers; each element takes
    the number loop's IEEE operations, so it is bitwise the float that load alone gives."""
    if not isinstance(offered, np.ndarray):
        b = 1.0
        for k in range(1, channels + 1):
            ab = offered * b
            b = ab / (k + ab)
        return b
    b, ab, k = np.ones_like(offered), np.empty_like(offered), 0.0
    multiply, add, divide = np.multiply, np.add, np.divide  # looked up once, not at each step
    for _ in range(channels):
        k += 1.0
        multiply(offered, b, ab)
        add(ab, k, b)
        divide(ab, b, b)
    return b


def erlang_b(channels: int, offered: float) -> float:
    """Blocking probability of a shared pool of ``channels`` at ``offered`` erlangs;
    see :func:`_erlang_b`."""
    if not isinstance(channels, int) or channels < 0:
        raise ValueError(f"channels must be a non-negative integer, got {channels!r}")
    if not 0 <= offered <= sys.float_info.max:
        raise ValueError(f"offered load must be finite and non-negative, got {offered!r}")
    return _erlang_b(channels, offered)


def _pool_reports(params: SystemParams, rate_vectors) -> list[BlockingReport]:
    """Reports of the no-reservation baseline, where all classes share the pool and
    see the same blocking, at each of ``rate_vectors``: one :func:`_erlang_b`
    recursion runs over all their offered loads. Light-load dynamic rows come
    from here too, so they equal the baseline rows bit-for-bit.
    """
    offered = [_rate_sum(as_rate_vector(r, params.class_count)) / params.service_rate for r in rate_vectors]
    if math.inf in offered:  # a rate sum over a service rate below 1 can overflow
        raise ValueError("offered load must be finite and non-negative, got inf")
    n = params.capacity
    # A lone load runs the recursion on its float: numpy's per-call cost on a
    # one-element array would be paid at each of the N steps.
    a = offered[0] if len(offered) == 1 else np.array(offered, dtype=float)
    # The recursion's last step, B(N) = a*B(N-1) / (N + a*B(N-1)), also gives
    # 1 - B(N) = N / (N + a*B(N-1)) without a subtraction that cancels to 0
    # once B(N) rounds to 1 at huge load.
    a_b = a * _erlang_b(n - 1, a)
    utilization = a / (n + a_b)
    columns = (np.atleast_1d(x).tolist() for x in (a_b / (n + a_b), utilization, utilization * n))
    return [BlockingReport((b,) * params.class_count, u, c) for b, u, c in zip(*columns)]


def nonpriority_report(params: SystemParams, rates) -> BlockingReport:
    """Report for the no-reservation baseline at one rate vector; see :func:`_pool_reports`."""
    return _pool_reports(params, (rates,))[0]


def quasi_stationary_curve(
    params: SystemParams, mix, grid
) -> list[BlockingReport]:
    """Analytic curve for the dynamic scheme across a total-rate grid.

    Each grid point is treated as its own frozen configuration: light points
    use the shared-pool baseline, high points rebuild the thresholds from
    the rate mix and solve the resulting chain. The simulator is the check
    on how well this frozen-threshold approximation tracks the live scheme.
    """
    mix, points = tuple(mix), tuple(grid)
    _check_mix(mix, params.class_count)
    _check_grid(points)
    curve = (tuple(float(p) * float(g) for p in mix) for g in points)
    return [_point_report(params, _dynamic_limits(params, rates), rates) for rates in curve]
