"""Sweep evaluation and CSV emission."""

import hashlib
import math
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
from dynguard.cli import main

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

    def test_grid_point_context_on_failure(self):
        # fixed-guard scheme with no thresholds, and a negative rate that
        # fails in classify_load: each failure names the point
        cases = [
            (
                SweepConfig(
                    params=SystemParams(10, 5),
                    mix=(0.5, 0.5),
                    grid=(12.0,),
                    schemes=(Scheme.FIXED_GUARD,),
                    fixed_thresholds=None,
                ),
                "lambda_total=12",
            ),
            (
                SweepConfig(
                    params=SystemParams(10, 5),
                    mix=(0.5, 0.3, 0.2),
                    grid=(-5.0,),
                    schemes=(Scheme.NON_PRIORITY,),
                ),
                "^scheme=nonpriority lambda_total=-5: ",
            ),
        ]
        for cfg, context in cases:
            with pytest.raises(SweepError, match=context):
                run_sweep(cfg)

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
