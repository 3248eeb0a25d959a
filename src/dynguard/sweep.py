"""Batch evaluation across a total-rate grid and CSV output.

For every (scheme, grid point) pair the sweep computes the analytic
blocking report and, when enabled, pooled simulation estimates across the
seed list. Rows come out in (scheme, total rate, class) order with class 0
the pooled class over all of 1..M, so repeated runs of the same config are
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

from .config import _CSV_REAL, SweepConfig
from .markov import (
    BlockingReport,
    blocking_report,
    build_chain,
    nonpriority_report,
    quasi_stationary_curve,
    steady_state,
)
from .simulate import Scenario, Scheme, blocking_stderr, run_simulation
from .traffic import classify_load

_CSV_HEADER = (
    "scheme,lambda_total,class,blocking_analytic,blocking_sim,"
    "blocking_sim_stderr,utilization_analytic,utilization_sim,mode"
)


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: class 0 is the pooled class of a grid point, 1..M detail it.

    Class 0's analytic blocking is the rate-weighted mean, its simulated
    blocking pools every class and seed, and only it carries utilizations.
    """

    scheme: str
    lambda_total: float
    cls: int
    blocking_analytic: float | None
    blocking_sim: float | None
    blocking_sim_stderr: float | None
    utilization_analytic: float | None
    utilization_sim: float | None
    mode: str


class SweepError(RuntimeError):
    """Evaluation failure, annotated with the grid point that caused it."""


def _analytic_report(
    config: SweepConfig, scheme: Scheme, lam_total: float, rates: tuple[float, ...]
) -> BlockingReport:
    params = config.params
    if scheme is Scheme.DYNAMIC:
        return quasi_stationary_curve(params, config.mix, [lam_total])[0]
    if scheme is Scheme.NON_PRIORITY:
        return nonpriority_report(params, rates)
    thresholds = config.fixed_thresholds
    chain = build_chain(thresholds, rates, params.service_rate)
    return blocking_report(steady_state(chain), thresholds, rates, params.service_rate)


def _simulate_point(
    config: SweepConfig, scheme: Scheme, lam_total: float, rates: tuple[float, ...]
) -> tuple[list[int], list[int], float]:
    """Blocked/offered counts pooled over all seeds, with index 0 the total
    over all classes, and the mean utilization."""
    params = config.params
    blocked = [0] * (params.class_count + 1)
    offered = [0] * (params.class_count + 1)
    utils = []
    for seed in config.sim_seeds:
        scenario = Scenario(
            params=params,
            schedule=((0.0, rates),),
            horizon=config.horizon(lam_total),
            seed=seed,
            scheme=scheme,
            fixed_thresholds=config.fixed_thresholds if scheme is Scheme.FIXED_GUARD else None,
            smoothing=config.sim_smoothing if scheme is Scheme.DYNAMIC else None,
        )
        report = run_simulation(scenario)
        for i, (b, o) in enumerate(zip(report.blocked, report.offered), 1):
            blocked[i] += b
            offered[i] += o
        utils.append(report.utilization)
    blocked[0], offered[0] = sum(blocked[1:]), sum(offered[1:])
    return blocked, offered, math.fsum(utils) / len(utils)


def run_sweep(config: SweepConfig) -> list[ResultRow]:
    """Evaluate every scheme at every grid point: the pooled class 0, then
    classes 1..M; see :class:`ResultRow`."""
    rows: list[ResultRow] = []
    for scheme in sorted(config.schemes, key=lambda s: s.value):
        for lam_total in config.grid:
            try:
                rates = tuple(m * lam_total for m in config.mix)
                mode = classify_load(rates, config.params).value
                report = _analytic_report(config, scheme, lam_total, rates)
                pooled = math.fsum(r * b for r, b in zip(rates, report.blocking)) / lam_total
                analytic = (pooled, *report.blocking)
                if config.sim_enabled:
                    blocked, offered, sim_util = _simulate_point(config, scheme, lam_total, rates)
                else:  # nothing offered, so the simulated columns stay empty
                    blocked = offered = [0] * len(analytic)
                    sim_util = None
            except Exception as exc:
                raise SweepError(
                    f"scheme={scheme.value} lambda_total={lam_total:g}: {exc}"
                ) from exc

            for cls, (b, o) in enumerate(zip(blocked, offered)):
                sim = (b / o if o else None, blocking_stderr(b, o))
                utilization = (report.utilization, sim_util) if cls == 0 else (None, None)
                rows.append(
                    ResultRow(scheme.value, lam_total, cls, analytic[cls], *sim, *utilization, mode)
                )
    return rows


def _field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, _CSV_REAL)


_COLUMNS = attrgetter(*(f.name for f in fields(ResultRow)))


def emit_csv(rows, path) -> None:
    """Write rows to ``path`` with the fixed header; reals get 9 significant digits."""
    lines = [_CSV_HEADER]
    lines.extend(",".join(map(_field, _COLUMNS(r))) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n")
