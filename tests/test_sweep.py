"""Sweep evaluation and CSV emission."""

import hashlib
import math
import os
import signal
import sys
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import pytest

from dynguard import (
    Scheme,
    SweepConfig,
    SweepError,
    SystemParams,
    ThresholdVector,
    emit_csv,
    erlang_b,
    run_sweep,
)
from dynguard import markov, simulate, sweep
from dynguard.cli import main
from test_cli import _children  # this process's children, alive or not yet reaped

ROOT = Path(__file__).resolve().parents[1]

HEADER = (
    "scheme,lambda_total,class,blocking_analytic,blocking_sim,"
    "blocking_sim_stderr,utilization_analytic,utilization_sim,mode"
)

ANALYTIC_CFG = SweepConfig(
    params=SystemParams(10, 5),
    mix=(1 / 3, 1 / 3, 1 / 3),
    grid=(4.0, 12.0),
    schemes=(Scheme.DYNAMIC, Scheme.NON_PRIORITY),
)


def rows_for(rows, scheme, lam_total):
    return [r for r in rows if r.scheme == scheme and r.lambda_total == lam_total]


class TestRunSweep:
    def test_row_ordering_and_shape(self):
        rows = run_sweep(ANALYTIC_CFG)
        # schemes alphabetical, grid ascending, classes 0..M
        keys = [(r.scheme, r.lambda_total, r.cls) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 2 * 4

    def test_nonpriority_rows_use_shared_pool_blocking(self):
        cfg = SweepConfig(
            params=SystemParams(2, 1),
            mix=(0.5, 0.3, 0.2),
            grid=(1.0,),
            schemes=(Scheme.NON_PRIORITY,),
        )
        rows = run_sweep(cfg)
        for r in rows:
            assert r.blocking_analytic == pytest.approx(0.2, abs=1e-12)
            assert r.blocking_sim is None
            assert r.mode == "light"

    def test_light_dynamic_rows_equal_nonpriority_exactly(self):
        rows = run_sweep(ANALYTIC_CFG)
        dyn = rows_for(rows, "dynamic", 4.0)
        base = rows_for(rows, "nonpriority", 4.0)
        for d, b in zip(dyn, base):
            assert d.blocking_analytic == b.blocking_analytic  # bit-equal
            assert d.utilization_analytic == b.utilization_analytic
            assert d.mode == "light"

    def test_light_region_identical_across_default_grid(self):
        # everywhere below the high-load boundary, the dynamic scheme's
        # analytic rows must coincide exactly with the shared-pool baseline
        cfg = SweepConfig(
            params=SystemParams(40, 20),
            mix=(0.4, 0.3, 0.3),
            grid=tuple(20.0 + k * 60.0 / 15 for k in range(16)),
            schemes=(Scheme.DYNAMIC, Scheme.NON_PRIORITY),
        )
        rows = run_sweep(cfg)
        light_points = sorted({r.lambda_total for r in rows if r.mode == "light"})
        assert light_points  # the grid must straddle the boundary
        assert any(r.mode == "high" for r in rows)
        for lam_total in light_points:
            dyn = rows_for(rows, "dynamic", lam_total)
            base = rows_for(rows, "nonpriority", lam_total)
            for d, b in zip(dyn, base):
                assert d.blocking_analytic == b.blocking_analytic
                assert d.utilization_analytic == b.utilization_analytic

    def test_high_dynamic_point_reserves_for_the_top_class(self):
        rows = run_sweep(ANALYTIC_CFG)
        dyn = rows_for(rows, "dynamic", 12.0)
        assert dyn[0].mode == "high"
        per_class = [r.blocking_analytic for r in dyn[1:]]
        assert per_class == pytest.approx(
            (0.082813728828694, 0.289848050900430, 0.755675275561837), abs=1e-12
        )
        assert per_class[0] < erlang_b(10, 12.0)

    def test_aggregate_row_is_rate_weighted(self):
        rows = run_sweep(ANALYTIC_CFG)
        dyn = rows_for(rows, "dynamic", 12.0)
        agg = dyn[0]
        expected = math.fsum(4.0 * r.blocking_analytic for r in dyn[1:]) / 12.0
        assert agg.cls == 0
        assert agg.blocking_analytic == pytest.approx(expected, rel=1e-12)
        assert agg.utilization_analytic is not None
        assert all(r.utilization_analytic is None for r in dyn[1:])

    def test_fixed_guard_uses_configured_thresholds(self):
        cfg = SweepConfig(
            params=SystemParams(4, 0, class_count=3),
            mix=(1 / 3, 1 / 3, 1 / 3),
            grid=(3.0,),
            schemes=(Scheme.FIXED_GUARD,),
            fixed_thresholds=ThresholdVector((4, 3, 2)),
        )
        rows = run_sweep(cfg)
        assert [r.blocking_analytic for r in rows[1:]] == pytest.approx(
            (3 / 49, 15 / 49, 33 / 49), abs=1e-12
        )

    def test_simulation_columns_filled_when_enabled(self):
        cfg = SweepConfig(
            params=SystemParams(4, 0, class_count=3),
            mix=(1 / 3, 1 / 3, 1 / 3),
            grid=(3.0,),
            schemes=(Scheme.FIXED_GUARD,),
            fixed_thresholds=ThresholdVector((4, 3, 2)),
            sim_enabled=True,
            sim_arrivals=20_000,
            sim_seeds=(1, 2),
        )
        rows = run_sweep(cfg)
        for r in rows:
            assert r.blocking_sim is not None
            assert r.blocking_sim_stderr is not None
        assert rows[0].utilization_sim is not None
        # pooled across seeds: roughly 2x the per-run arrival budget
        agg = rows[0]
        assert agg.blocking_sim == pytest.approx(agg.blocking_analytic, abs=0.02)

    def test_fixed_guard_simulation_matches_analytic_within_three_se(self):
        cfg = SweepConfig(
            params=SystemParams(10, 5),
            mix=(1 / 3, 1 / 3, 1 / 3),
            grid=(8.0, 10.0, 12.0, 14.0),
            schemes=(Scheme.FIXED_GUARD,),
            fixed_thresholds=ThresholdVector((10, 8, 6)),
            sim_enabled=True,
            sim_arrivals=40_000,
            sim_seeds=(1, 2),
        )
        rows = run_sweep(cfg)
        checked = [r for r in rows if r.blocking_sim is not None]
        within = [
            r
            for r in checked
            if abs(r.blocking_sim - r.blocking_analytic) <= 3 * r.blocking_sim_stderr
        ]
        assert len(within) / len(checked) >= 0.99

    @pytest.mark.parametrize(
        "schemes, grid",
        [((Scheme.NON_PRIORITY,), (4.0, 1e308, 8.0)), ((Scheme.DYNAMIC, Scheme.NON_PRIORITY), (4.0, 1e308))],
    )
    def test_pool_overflow_is_named_in_sweep_order(self, schemes, grid):
        # At service rate 0.5 the offered load of 1e308 is inf: the config is
        # refused when built, naming that point, so no sweep fails there.
        with pytest.raises(ValueError, match=r"^grid point 1e\+308 gives an offered load beyond the float range$"):
            SweepConfig(
                params=SystemParams(10, 5, service_rate=0.5), mix=(0.5, 0.3, 0.2), grid=grid, schemes=schemes
            )

    def test_grid_point_context_on_failure(self):
        # grid points that are not positive are refused when the config is
        # built, before any sweep starts; the message names the field and point
        for grid, scheme in (((-5.0,), Scheme.NON_PRIORITY), ((0.0,), Scheme.DYNAMIC)):
            with pytest.raises(ValueError, match=rf"^grid points must be positive and finite, got {grid[0]}$"):
                SweepConfig(params=SystemParams(10, 5), mix=(0.5, 0.3, 0.2), grid=grid, schemes=(scheme,))

    def test_pooled_simulation_columns_are_pinned(self, tmp_path):
        # two seeds pooled per class and over all classes (class 0), for all
        # three schemes; any change to the pooling shows up in the digest
        cfg = SweepConfig(
            params=SystemParams(10, 5),
            mix=(0.5, 0.3, 0.2),
            grid=(6.0, 12.0),
            schemes=(Scheme.DYNAMIC, Scheme.FIXED_GUARD, Scheme.NON_PRIORITY),
            fixed_thresholds=ThresholdVector((10, 8, 6)),
            sim_enabled=True,
            sim_arrivals=2000,
            sim_seeds=(1, 2),
        )
        out = tmp_path / "pooled.csv"
        emit_csv(run_sweep(cfg), out)
        data = out.read_bytes()
        assert data.count(b"\n") == 25
        assert hashlib.sha256(data).hexdigest() == (
            "17bac2ad8cf082eab3c5168170c5a5869aa45ab21b262284f84046be1da65435"
        )

    def test_wide_analytic_sweep_is_pinned(self, tmp_path):
        # At N=5000 a chain's total, its mean occupancy and most of its tails
        # are long exact sums, so a change to them, to the ratio recursion or to
        # the pool recursion shows up in the digest. Light points (2500-5200)
        # and high ones (6000-10000), all three schemes.
        cfg = SweepConfig(
            params=SystemParams(5000, 2500),
            mix=(0.4, 0.3, 0.3),
            grid=(2500.0, 4000.0, 5200.0, 6000.0, 7500.0, 10000.0),
            schemes=(Scheme.DYNAMIC, Scheme.FIXED_GUARD, Scheme.NON_PRIORITY),
            fixed_thresholds=ThresholdVector((5000, 4500, 3000)),
        )
        out = tmp_path / "wide.csv"
        emit_csv(run_sweep(cfg), out)
        data = out.read_bytes()
        assert data.count(b"\n") == 73
        assert b"dynamic,6000,1,3.37460168e-274," in data
        assert hashlib.sha256(data).hexdigest() == (
            "51696511cb3c34b6c86d61d41d79c6c58edbedcf43a35efd27ee33eacd7b6339"
        )


class TestEmitCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([], out)
        assert out.read_text() == HEADER + "\n"

    def test_analytic_only_row_leaves_sim_fields_empty(self, tmp_path):
        rows = run_sweep(ANALYTIC_CFG)
        out = tmp_path / "rows.csv"
        emit_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == HEADER
        first = lines[1].split(",")
        assert len(first) == 9
        assert first[0] == "dynamic"
        assert first[4] == "" and first[5] == "" and first[7] == ""
        assert first[8] in ("light", "high")

    def test_nine_significant_digits(self, tmp_path):
        rows = run_sweep(ANALYTIC_CFG)
        out = tmp_path / "digits.csv"
        emit_csv(rows, out)
        # class-3 blocking at the high point, frozen oracle value
        line = [
            l
            for l in out.read_text().splitlines()
            if l.startswith("dynamic,12,3,")
        ]
        assert line and line[0].split(",")[3] == "0.755675276"

    def test_integer_grid_points_that_print_apart_are_kept(self, tmp_path):
        # With .9g both would read 1.23456789e+09, but the CSV prints an int
        # whole, and the config's check prints with the CSV's own formatter.
        cfg = SweepConfig(
            params=SystemParams(10, 5, class_count=2),
            mix=(0.5, 0.5),
            grid=(1234567891, 1234567892),
            schemes=(Scheme.NON_PRIORITY,),
        )
        out = tmp_path / "ints.csv"
        emit_csv(run_sweep(cfg), out)
        lines = out.read_text().splitlines()[1:]
        assert [l.split(",")[1] for l in lines] == ["1234567891"] * 3 + ["1234567892"] * 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = SweepConfig(
            params=SystemParams(6, 3, class_count=2),
            mix=(0.5, 0.5),
            grid=(4.0, 8.0),
            schemes=(Scheme.DYNAMIC, Scheme.NON_PRIORITY),
            sim_enabled=True,
            sim_arrivals=5_000,
            sim_seeds=(7,),
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), a)
        emit_csv(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_failure_propagates(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv([], tmp_path / "missing" / "out.csv")


@pytest.mark.parametrize(
    "config, reference",
    [
        ("configs/regression.conf", "sweep_sim_analytic.csv"),
        ("perfbench/inputs/analytic_wide.conf", "sweep_analytic_wide_analytic.csv"),
    ],
)
def test_analytic_columns_match_the_committed_references_exactly(tmp_path, config, reference):
    # The benchmark references hold the analytic columns (scheme, lambda_total,
    # class, blocking_analytic, utilization_analytic, mode) as the CSV prints
    # them; any change to the chain layer's floats shows up as a text diff.
    out = tmp_path / "analytic.csv"
    assert main(["analytic", "--config", str(ROOT / config), "--out", str(out)]) == 0
    rows = (line.split(",") for line in out.read_text().splitlines()[1:])
    got = "".join(",".join(r[c] for c in (0, 1, 2, 3, 6, 8)) + "\n" for r in rows)
    assert got == (ROOT / "perfbench" / "reference" / reference).read_text()


# The config of test_pooled_simulation_columns_are_pinned.
POOLED_CFG = SweepConfig(
    params=SystemParams(10, 5),
    mix=(0.5, 0.3, 0.2),
    grid=(6.0, 12.0),
    schemes=(Scheme.DYNAMIC, Scheme.FIXED_GUARD, Scheme.NON_PRIORITY),
    fixed_thresholds=ThresholdVector((10, 8, 6)),
    sim_enabled=True,
    sim_arrivals=2000,
    sim_seeds=(1, 2),
)


def use_cpus(monkeypatch, count):
    """Make the sweep see ``count`` CPUs in this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


# The task the sweep hands its workers, one per (grid point, seed), unpatched.
REAL_TASK = sweep._simulate


def faulty_task(fails, pid_log, scenarios):
    """The real task, with each run whose (scheme, horizon) is in ``fails``
    replaced by an error, after logging this process's id."""
    if pid_log is not None:
        with open(pid_log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
    return [
        RuntimeError("boom") if (s.scheme, s.horizon) in fails else run
        for s, run in zip(scenarios, REAL_TASK(scenarios))
    ]


def broken_task(dies, scenarios):
    """The real task, except the first seed's at total rate 6: it ends its
    process, as a worker killed mid-task would, or returns what cannot be pickled."""
    if scenarios[0].seed == 1 and scenarios[0].horizon == POOLED_CFG.horizon(6.0):
        if dies:
            os._exit(1)
        return [lambda: None]
    return REAL_TASK(scenarios)


def patch_runs(monkeypatch, fail_at=None, pid_log=None, fails=()):
    """Make every run at total rate ``fail_at``, and the run of each (scheme,
    total rate) in ``fails``, fail, and log each task's process id.

    The workers are forked after the patch, so they run the patched task.
    """
    failing = {(scheme, POOLED_CFG.horizon(lam)) for scheme, lam in fails}
    if fail_at is not None:
        failing |= {(scheme, POOLED_CFG.horizon(fail_at)) for scheme in Scheme}
    monkeypatch.setattr(sweep, "_simulate", partial(faulty_task, frozenset(failing), pid_log))


@pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks workers on Linux only")
class TestWorkerPool:
    def test_one_and_two_cpus_give_the_same_bytes(self, monkeypatch, tmp_path):
        data = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            pids = tmp_path / f"pids{cpus}"
            patch_runs(monkeypatch, pid_log=pids)
            out = tmp_path / f"cpus{cpus}.csv"
            emit_csv(run_sweep(POOLED_CFG), out)
            data[cpus] = out.read_bytes()
            assert _children(os.getpid()) == set()
            ran_in = set(pids.read_text().split())
            if cpus == 1:
                assert ran_in == {str(os.getpid())}
            else:
                assert str(os.getpid()) not in ran_in and 1 <= len(ran_in) <= 2
        assert data[1] == data[2]
        assert hashlib.sha256(data[2]).hexdigest() == (
            "17bac2ad8cf082eab3c5168170c5a5869aa45ab21b262284f84046be1da65435"
        )

    def test_worker_failure_names_its_point_and_leaves_no_child(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        patch_runs(monkeypatch, fail_at=12.0)
        with pytest.raises(SweepError, match=r"^scheme=dynamic lambda_total=12: boom$"):
            run_sweep(POOLED_CFG)
        assert _children(os.getpid()) == set()

    @pytest.mark.parametrize("dies", [True, False], ids=["worker dies", "result unpicklable"])
    def test_a_task_that_cannot_send_its_result_fails_its_point(self, monkeypatch, dies):
        # The first task in sweep order breaks; the other worker may still
        # hold a task, which is not waited for.
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(sweep, "_simulate", partial(broken_task, dies))

        def stop_waiting(signum, frame):  # ends a wait that would hang; the time bound below then fails
            raise TimeoutError("still waiting")

        previous = signal.signal(signal.SIGALRM, stop_waiting)
        started = time.monotonic()
        signal.alarm(10)
        try:
            with pytest.raises(SweepError, match=r"^scheme=dynamic lambda_total=6: "):
                run_sweep(POOLED_CFG)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (time.monotonic() - started < 5.0, _children(os.getpid())) == (True, set())

    @pytest.mark.parametrize(
        "fail_at, held", [(None, 0), (12.0, 0), (None, 1030)], ids=["succeeds", "fails", "past fd 1024"]
    )
    def test_a_pooled_sweep_leaves_the_open_files_as_it_found_them(self, monkeypatch, fail_at, held):
        # With ``held`` more files open, the workers' pipes get numbers past
        # FD_SETSIZE (1024), which select() cannot wait on.
        import resource  # not on every platform; this class runs on Linux only

        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < held + 100:
            pytest.skip("this process may not open that many files")
        use_cpus(monkeypatch, 2)
        patch_runs(monkeypatch, fail_at=fail_at)
        opened = [os.open(os.devnull, os.O_RDONLY) for _ in range(held)]
        try:
            before = sorted(os.listdir("/proc/self/fd"))
            with pytest.raises(SweepError) if fail_at else nullcontext():
                run_sweep(POOLED_CFG)
            assert sorted(os.listdir("/proc/self/fd")) == before
        finally:
            for fd in opened:
                os.close(fd)

    def test_an_earlier_point_of_a_later_task_wins(self, monkeypatch):
        # The task at 6 returns first, with only the fixed run failed; the
        # dynamic run at 12 comes first in sweep order.
        use_cpus(monkeypatch, 2)
        patch_runs(monkeypatch, fails=[(Scheme.FIXED_GUARD, 6.0), (Scheme.DYNAMIC, 12.0)])
        with pytest.raises(SweepError, match=r"^scheme=dynamic lambda_total=12: boom$"):
            run_sweep(POOLED_CFG)
        assert _children(os.getpid()) == set()

    def test_a_failure_goes_to_its_scheme_not_its_task(self, monkeypatch):
        # Only the fixed scheme's run at 6 raises; the dynamic and
        # non-priority runs of the same task finish.
        use_cpus(monkeypatch, 2)
        real = simulate._admission_policy

        def policy(scenario):
            if scenario.scheme is Scheme.FIXED_GUARD and scenario.horizon == POOLED_CFG.horizon(6.0):
                raise RuntimeError("fixed bust")
            return real(scenario)

        monkeypatch.setattr(simulate, "_admission_policy", policy)
        with pytest.raises(SweepError, match=r"^scheme=fixed lambda_total=6: fixed bust$"):
            run_sweep(POOLED_CFG)
        assert _children(os.getpid()) == set()

    @pytest.mark.parametrize(
        "run_fails, analytic_fails, named",
        [
            (6.0, 12.0, "^scheme=dynamic lambda_total=6: boom"),
            (12.0, 6.0, "^scheme=dynamic lambda_total=12: boom"),
            (None, 6.0, "^scheme=fixed lambda_total=6: bust"),
            (12.0, 12.0, "^scheme=dynamic lambda_total=12: bust"),
        ],
    )
    def test_first_failure_in_sweep_order_wins(self, monkeypatch, run_fails, analytic_fails, named):
        # Runs fail in workers at every scheme's run_fails point; the analytic
        # report for the fixed scheme's limits fails in this process at
        # analytic_fails (the dynamic scheme holds the same limits at 12).
        use_cpus(monkeypatch, 2)
        patch_runs(monkeypatch, fail_at=run_fails)
        real = sweep._point_report

        def patched(params, limits, rates):
            if limits == POOLED_CFG.fixed_thresholds.limits and math.fsum(rates) == analytic_fails:
                raise ValueError("bust")
            return real(params, limits, rates)

        monkeypatch.setattr(sweep, "_point_report", patched)
        with pytest.raises(SweepError, match=named):
            run_sweep(POOLED_CFG)
        assert _children(os.getpid()) == set()

    @pytest.mark.parametrize(
        "pool_fails, run_fails, analytic_fails, named",
        [
            (6.0, None, None, "^scheme=dynamic lambda_total=6: pool bust$"),
            (12.0, None, None, "^scheme=nonpriority lambda_total=12: pool bust$"),
            (12.0, None, 6.0, "^scheme=fixed lambda_total=6: bust$"),
            (12.0, 12.0, None, "^scheme=dynamic lambda_total=12: boom$"),
            (6.0, 6.0, None, "^scheme=dynamic lambda_total=6: pool bust$"),
        ],
    )
    def test_first_failure_wins_when_the_pool_batch_fails(
        self, monkeypatch, pool_fails, run_fails, analytic_fails, named
    ):
        # The shared pool's reports at every rate (light dynamic and non-priority
        # points) fail at pool_fails, in the batch and one by one alike; the
        # sweep order is dynamic 6, 12, fixed 6, 12, nonpriority 6, 12.
        use_cpus(monkeypatch, 2)
        patch_runs(monkeypatch, fail_at=run_fails)
        real_pool, real_point = markov._pool_reports, sweep._point_report
        batches = []

        def pool(params, rate_vectors):
            rate_vectors = list(rate_vectors)
            batches.append(len(rate_vectors))
            if any(math.fsum(rates) == pool_fails for rates in rate_vectors):
                raise ValueError("pool bust")
            return real_pool(params, rate_vectors)

        def point(params, limits, rates):
            if limits is not None and math.fsum(rates) == analytic_fails:
                raise ValueError("bust")
            return real_point(params, limits, rates)

        monkeypatch.setattr(markov, "_pool_reports", pool)
        monkeypatch.setattr(sweep, "_pool_reports", pool)
        monkeypatch.setattr(sweep, "_point_report", point)
        with pytest.raises(SweepError, match=named):
            run_sweep(POOLED_CFG)
        assert batches[0] == 2
        assert _children(os.getpid()) == set()
