"""Batch evaluation across a total-rate grid and CSV output.

For every (scheme, grid point) pair the sweep computes the analytic
blocking report and, when enabled, pooled simulation estimates across the
seed list. The simulation goes out as one task per (grid point, seed),
which runs every scheme on the same arrivals; forked workers, one per
usable CPU, each run a fixed stripe of the tasks while each point, in
sweep order, takes its report and then pools its runs. The split is
fixed, as the tasks take about equal times; it gives up rebalancing when
another load slows one CPU. Rows come out in (scheme, total rate,
class) order with class 0 the pooled class over all of 1..M, so repeated
runs of the same config are byte-identical on any number of CPUs.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from contextlib import suppress
from dataclasses import dataclass, fields
from itertools import product
from operator import attrgetter
from pathlib import Path

from .config import SweepConfig, _csv_field
from .markov import (
    BlockingReport,
    _dynamic_limits,
    _point_report,
    _pool_reports,
    # Not called here; perfbench/tracing.py patches these names in this module.
    blocking_report,
    build_chain,
    nonpriority_report,
    quasi_stationary_curve,
    steady_state,
)
from .simulate import Scenario, Scheme, _run_schemes, blocking_stderr, run_simulation
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


def _limits(config: SweepConfig, scheme: Scheme, rates: tuple[float, ...]) -> tuple[int, ...] | None:
    """The availability limits ``scheme`` holds at ``rates``; None is the shared pool."""
    if scheme is Scheme.DYNAMIC:
        return _dynamic_limits(config.params, rates)
    if scheme is Scheme.NON_PRIORITY:
        return None
    return config.fixed_thresholds.limits


def _simulate(scenarios: list[Scenario]) -> list:
    """The runs of one (grid point, seed), one per scheme: each run's
    per-class blocked and offered counts and its utilization, or the
    exception it raised. All that a worker sends back.

    The schemes share one arrival walk. Should that shared run fail, each
    scheme runs again alone, so an error goes to the scheme that raised it.
    """
    try:
        reports = _run_schemes(scenarios)
    except Exception:
        reports = []
        for scenario in scenarios:
            try:
                reports.append(run_simulation(scenario))
            except Exception as exc:
                reports.append(exc)
    return [r if isinstance(r, Exception) else (r.blocked, r.offered, r.utilization) for r in reports]


def _worker_start(parent: int) -> None:
    """Worker set-up: die with ``parent``, even when it is killed, and
    leave Ctrl-C, which reaches the whole process group, to it."""
    import ctypes  # loaded with numpy
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT, signal.SIGTERM})  # held by _simulated
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(1, signal.SIGKILL)  # 1 is Linux's PR_SET_PDEATHSIG; should it fail, the sweep still runs
    if os.getppid() != parent:  # the parent died before that took hold
        os._exit(1)


def _work(tasks: list[list[Scenario]], parent: int, fds: list[int]) -> None:
    """A forked worker: write the length-prefixed pickle of each task's result
    or error, in task order, to the last of ``fds``, the write end of its pipe."""
    try:
        _worker_start(parent)
        for fd in fds[:-1]:  # read ends, its own too: so a write fails (EPIPE) once the parent closes it
            os.close(fd)
        out = open(fds[-1], "wb")
        for task in tasks:
            try:
                data = pickle.dumps(_simulate(task))
            except Exception as exc:
                data = pickle.dumps(exc)
            out.write(len(data).to_bytes(4, "little") + data)
            out.flush()
    finally:
        os._exit(0)  # never back into the parent's code, nor its exit handlers


def _simulated(tasks: list[list[Scenario]]):
    """Yield :func:`_simulate` of every task, in order.

    On Linux the tasks go to one forked worker per CPU in the affinity mask,
    up to one per task; with one worker, or elsewhere, they run in this
    process. Worker k of W inherits the tasks, runs ``tasks[k::W]`` and
    sends back each pickled result over its own pipe, so task i is the next
    result on pipe ``i % W``. A task that cannot finish, as when its worker
    dies, raises in its turn. However it stops, the generator kills and
    reaps its workers and closes its pipes.
    """
    workers = min(len(os.sched_getaffinity(0)), len(tasks)) if sys.platform == "linux" else 1
    if workers < 2:
        yield from map(_simulate, tasks)
        return
    import signal  # imported here: an analytic sweep never pays for it

    parent, pids, fds = os.getpid(), [], []  # the workers, and every pipe end this process holds
    try:
        # SIGINT and SIGTERM wait out the forks: no worker takes one before _worker_start, in _work's try.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            for k in range(workers):
                fds += os.pipe()
                if (pid := os.fork()) == 0:
                    _work(tasks[k::workers], parent, fds)
                pids.append(pid)
                os.close(fds.pop())  # the worker's end: its pipe closes when the worker dies
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pipes = [open(fd, "rb", closefd=False) for fd in fds]  # by worker
        for i in range(len(tasks)):
            size = int.from_bytes(pipes[i % workers].read(4), "little")
            if not size or len(data := pipes[i % workers].read(size)) < size:  # the pipe closed first
                raise ChildProcessError("the worker simulating it died")
            result = pickle.loads(data)
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _point_error(scheme: Scheme, lam_total: float, exc: Exception) -> SweepError:
    return SweepError(f"scheme={scheme.value} lambda_total={lam_total:g}: {exc}")


def run_sweep(config: SweepConfig) -> list[ResultRow]:
    """Evaluate every scheme at every grid point: the pooled class 0, then
    classes 1..M; see :class:`ResultRow`.

    Every scheme due at a (grid point, seed) is simulated in one task on the
    same arrivals, through :func:`_simulated`, and all the tasks are handed
    out first. The shared pool's reports come from one batch; schemes that
    hold the same limits at the same rates share one report, as light
    dynamic points share the shared pool's. Then each point in sweep order
    takes its report and its runs, so the rows do not depend on where they
    ran. A failure names the first grid point, in sweep order, that failed;
    at one point the analytic report comes before the runs.
    """
    points = [
        (scheme, lam_total, tuple(m * lam_total for m in config.mix))
        for scheme, lam_total in product(sorted(config.schemes, key=lambda s: s.value), config.grid)
    ]
    seeds = config.sim_seeds if config.sim_enabled else ()
    tasks: dict[tuple[float, int], list[Scenario]] = {}  # by (lam_total, seed), schemes in sweep order
    for (scheme, lam_total, rates), seed in product(points, seeds):
        tasks.setdefault((lam_total, seed), []).append(
            Scenario(
                params=config.params,
                schedule=((0.0, rates),),
                horizon=config.horizon(lam_total),
                seed=seed,
                scheme=scheme,
                fixed_thresholds=config.fixed_thresholds if scheme is Scheme.FIXED_GUARD else None,
            )
        )

    # Each point's limits, then the shared pool's points in one recursion. Should either
    # fail, the walk below does the rest point by point and so names the first failing one.
    limits: list[tuple[int, ...] | None] = []
    reports: dict[tuple, BlockingReport] = {}  # by (limits, rates)
    with suppress(Exception):
        limits.extend(_limits(config, s, r) for s, _, r in points)
        pool = list(dict.fromkeys(r for (*_, r), lim in zip(points, limits) if lim is None))
        reports.update(zip(((None, r) for r in pool), _pool_reports(config.params, pool)))

    queued = iter(tasks.items())
    runs = _simulated(list(tasks.values()))
    done: dict[tuple[float, int], dict] = {}  # each finished task's runs, by scheme
    rows: list[ResultRow] = []
    try:
        for k, (scheme, lam_total, rates) in enumerate(points):
            try:
                mode = classify_load(rates, config.params).value
                key = (limits[k] if k < len(limits) else _limits(config, scheme, rates), rates)
                if key not in reports:
                    reports[key] = _point_report(config.params, *key)
                report = reports[key]
                analytic = (math.fsum(r * b for r, b in zip(rates, report.blocking)) / lam_total, *report.blocking)
                point_runs = []
                for seed in seeds:
                    while (lam_total, seed) not in done:
                        task, group = next(queued)
                        done[task] = dict(zip((s.scheme for s in group), next(runs)))
                    run = done[lam_total, seed][scheme]
                    if isinstance(run, Exception):
                        raise run
                    point_runs.append(run)
            except Exception as exc:
                raise _point_error(scheme, lam_total, exc) from exc
            # Index 0 pools every class; with no runs nothing is offered, so
            # the simulated columns stay empty.
            blocked = [0] * len(analytic)
            offered = [0] * len(analytic)
            for run_blocked, run_offered, _ in point_runs:
                blocked[0] += sum(run_blocked)
                offered[0] += sum(run_offered)
                for cls, (b, o) in enumerate(zip(run_blocked, run_offered), 1):
                    blocked[cls] += b
                    offered[cls] += o
            sim_util = math.fsum(u for *_, u in point_runs) / len(point_runs) if point_runs else None

            for cls, (b, o) in enumerate(zip(blocked, offered)):
                sim = (b / o if o else None, blocking_stderr(b, o))
                util = (report.utilization, sim_util) if cls == 0 else (None, None)
                rows.append(ResultRow(scheme.value, lam_total, cls, analytic[cls], *sim, *util, mode))
    finally:
        runs.close()
    return rows


_COLUMNS = attrgetter(*(f.name for f in fields(ResultRow)))


def emit_csv(rows, path) -> None:
    """Write rows to ``path`` with the fixed header; reals get 9 significant digits."""
    lines = [_CSV_HEADER]
    lines.extend(",".join(map(_csv_field, _COLUMNS(r))) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n")
