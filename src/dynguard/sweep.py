"""Batch evaluation across a total-rate grid and CSV output.

For every (scheme, grid point) pair the sweep computes the analytic
blocking report and, when enabled, pooled simulation estimates across the
seed list. Rows come out in (scheme, total rate, class) order with class 0
reserved for the aggregate view, so repeated runs of the same config are
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """One CSV row: class 0 aggregates a grid point, classes 1..M detail it."""

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


def _analytic_report(config: SweepConfig, scheme: Scheme, lam_total: float) -> BlockingReport:
    params = config.params
    rates = tuple(m * lam_total for m in config.mix)
    if scheme is Scheme.DYNAMIC:
        return quasi_stationary_curve(params, config.mix, [lam_total])[0]
    if scheme is Scheme.NON_PRIORITY:
        return nonpriority_report(params, rates)
    thresholds = config.fixed_thresholds
    chain = build_chain(thresholds, rates, params.service_rate)
    return blocking_report(steady_state(chain), thresholds, rates, params.service_rate)


def _simulate_point(
    config: SweepConfig, scheme: Scheme, lam_total: float
) -> tuple[list[int], list[int], float]:
    """Pooled per-class blocked/offered counts and mean utilization over all seeds."""
    params = config.params
    rates = tuple(m * lam_total for m in config.mix)
    offered = [0] * params.class_count
    blocked = [0] * params.class_count
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
        for i in range(params.class_count):
            offered[i] += report.offered[i]
            blocked[i] += report.blocked[i]
        utils.append(report.utilization)
    return blocked, offered, math.fsum(utils) / len(utils)


def run_sweep(config: SweepConfig) -> list[ResultRow]:
    """Evaluate every scheme at every grid point; see :class:`ResultRow`."""
    params = config.params
    rows: list[ResultRow] = []
    for scheme in sorted(config.schemes, key=lambda s: s.value):
        for lam_total in config.grid:
            rates = tuple(m * lam_total for m in config.mix)
            mode = classify_load(rates, params).value
            try:
                report = _analytic_report(config, scheme, lam_total)
                sim = _simulate_point(config, scheme, lam_total) if config.sim_enabled else None
            except Exception as exc:
                raise SweepError(
                    f"scheme={scheme.value} lambda_total={lam_total:g}: {exc}"
                ) from exc

            agg_analytic = (
                math.fsum(r * b for r, b in zip(rates, report.blocking)) / lam_total
            )
            if sim is None:
                agg_sim = agg_se = sim_util = None
                cls_sim = cls_se = (None,) * params.class_count
            else:
                blocked, offered, sim_util = sim
                total_blocked, total_offered = sum(blocked), sum(offered)
                agg_sim = total_blocked / total_offered if total_offered else None
                agg_se = blocking_stderr(total_blocked, total_offered)
                cls_sim = tuple(
                    b / o if o else None for b, o in zip(blocked, offered)
                )
                cls_se = tuple(
                    blocking_stderr(b, o) for b, o in zip(blocked, offered)
                )

            rows.append(
                ResultRow(
                    scheme=scheme.value,
                    lambda_total=lam_total,
                    cls=0,
                    blocking_analytic=agg_analytic,
                    blocking_sim=agg_sim,
                    blocking_sim_stderr=agg_se,
                    utilization_analytic=report.utilization,
                    utilization_sim=sim_util,
                    mode=mode,
                )
            )
            for m in range(1, params.class_count + 1):
                rows.append(
                    ResultRow(
                        scheme=scheme.value,
                        lambda_total=lam_total,
                        cls=m,
                        blocking_analytic=report.blocking[m - 1],
                        blocking_sim=cls_sim[m - 1],
                        blocking_sim_stderr=cls_se[m - 1],
                        utilization_analytic=None,
                        utilization_sim=None,
                        mode=mode,
                    )
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


def emit_csv(rows, path) -> None:
    """Write rows to ``path`` with the fixed header; reals get 9 significant digits."""
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.scheme,
                    _field(r.lambda_total),
                    str(r.cls),
                    _field(r.blocking_analytic),
                    _field(r.blocking_sim),
                    _field(r.blocking_sim_stderr),
                    _field(r.utilization_analytic),
                    _field(r.utilization_sim),
                    r.mode,
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
