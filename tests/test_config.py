"""Config file parsing and validation."""

import math
from dataclasses import replace

import pytest

from dynguard import (
    ConfigError,
    Scenario,
    Scheme,
    SweepConfig,
    SystemParams,
    ThresholdVector,
    load_config,
    quasi_stationary_curve,
)
from dynguard.markov import _point_report

FULL = """
# full sweep description
capacity         = 40
common_floor     = 20
service_rate     = 1.0
load_threshold   = 0.925
mix              = 0.4, 0.3, 0.3
grid             = 20, 44, 80
schemes          = dynamic, fixed, nonpriority
fixed.thresholds = 40, 30, 24
sim.enabled      = true
sim.arrivals     = 50000
sim.seeds        = 1, 2
out              = results.csv
"""


def write(tmp_path, text):
    path = tmp_path / "sweep.conf"
    path.write_text(text)
    return path


def test_full_config_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    assert cfg.params.capacity == 40
    assert cfg.params.common_floor == 20
    assert cfg.params.class_count == 3
    assert cfg.mix == (0.4, 0.3, 0.3)
    assert cfg.grid == (20.0, 44.0, 80.0)
    assert cfg.schemes == (Scheme.DYNAMIC, Scheme.FIXED_GUARD, Scheme.NON_PRIORITY)
    assert cfg.fixed_thresholds.limits == (40, 30, 24)
    assert cfg.sim_enabled
    assert cfg.sim_arrivals == 50000
    assert cfg.sim_seeds == (1, 2)
    assert cfg.out_path == "results.csv"


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "capacity = 40\nmix = 0.4, 0.3, 0.3\n"))
    assert cfg.params.common_floor == 20  # half the capacity
    assert cfg.params.load_threshold == pytest.approx(0.925)
    assert len(cfg.grid) == 16
    assert cfg.grid[0] == pytest.approx(20.0)
    assert cfg.grid[-1] == pytest.approx(80.0)
    assert cfg.schemes == (Scheme.DYNAMIC, Scheme.NON_PRIORITY)
    assert not cfg.sim_enabled
    assert cfg.sim_seeds == (1,)
    assert cfg.out_path is None


def test_grid_range_form(tmp_path):
    cfg = load_config(
        write(tmp_path, "capacity = 10\nmix = 0.5, 0.5\ngrid.min = 2\ngrid.max = 10\ngrid.steps = 5\n")
    )
    assert cfg.grid == pytest.approx((2.0, 4.0, 6.0, 8.0, 10.0))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/sweep.conf")


def test_missing_capacity(tmp_path):
    with pytest.raises(ConfigError, match="capacity"):
        load_config(write(tmp_path, "mix = 0.5, 0.5\n"))


def test_unknown_key_names_the_line(tmp_path):
    with pytest.raises(ConfigError, match=r":3: unknown key 'cappacity'"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\ncappacity = 12\n"))


def test_duplicate_key(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(write(tmp_path, "capacity = 10\ncapacity = 12\nmix = 1.0\n"))


def test_mix_must_sum_to_one(tmp_path):
    with pytest.raises(ConfigError, match="sum to 1"):
        load_config(write(tmp_path, "capacity = 10\nmix = 0.5, 0.3, 0.3\n"))


def test_mix_rejects_negative(tmp_path):
    with pytest.raises(ConfigError, match="non-negative"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.5, -0.5\n"))


def test_empty_grid_value(tmp_path):
    with pytest.raises(ConfigError, match="empty value"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\ngrid =\n"))


def test_grid_points_must_be_positive(tmp_path):
    with pytest.raises(ConfigError, match="positive"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\ngrid = 4, 0\n"))


def test_grid_forms_are_exclusive(tmp_path):
    text = "capacity = 10\nmix = 1.0\ngrid = 4\ngrid.min = 1\ngrid.max = 2\ngrid.steps = 2\n"
    with pytest.raises(ConfigError, match="not both"):
        load_config(write(tmp_path, text))

def test_incomplete_grid_range(tmp_path):
    with pytest.raises(ConfigError, match="missing grid.max"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\ngrid.min = 1\ngrid.steps = 4\n"))


def test_fixed_scheme_needs_thresholds(tmp_path):
    with pytest.raises(ConfigError, match="fixed.thresholds"):
        load_config(write(tmp_path, "capacity = 10\nmix = 0.5, 0.5\nschemes = fixed\n"))


def test_thresholds_without_fixed_scheme(tmp_path):
    text = "capacity = 10\nmix = 0.5, 0.5\nfixed.thresholds = 10, 5\n"
    with pytest.raises(ConfigError, match="not enabled"):
        load_config(write(tmp_path, text))


def test_threshold_capacity_mismatch(tmp_path):
    text = "capacity = 10\nmix = 0.5, 0.5\nschemes = fixed\nfixed.thresholds = 8, 5\n"
    with pytest.raises(ConfigError, match="equal the capacity"):
        load_config(write(tmp_path, text))


def test_threshold_ordering_checked(tmp_path):
    text = "capacity = 10\nmix = 0.5, 0.5\nschemes = fixed\nfixed.thresholds = 10, 12\n"
    with pytest.raises(ConfigError, match="non-increasing"):
        load_config(write(tmp_path, text))


def test_unknown_scheme(tmp_path):
    with pytest.raises(ConfigError, match="unknown scheme"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\nschemes = dynamo\n"))


def test_non_numeric_value(tmp_path):
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(write(tmp_path, "capacity = many\nmix = 1.0\n"))


def test_bad_smoothing(tmp_path):
    # The rate estimator has no smoothing: the old key is an unknown key.
    with pytest.raises(ConfigError, match=r"sweep\.conf:3: unknown key 'sim\.smoothing'$"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\nsim.smoothing = 0.1\n"))


def test_negative_seed_names_the_line(tmp_path):
    with pytest.raises(ConfigError, match=r"sweep\.conf:3: sim_seeds must be non-negative"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\nsim.seeds = 2, -1\n"))


def test_duplicate_seed_names_the_line(tmp_path):
    with pytest.raises(ConfigError, match=r"sweep\.conf:3: sim_seeds lists 1 twice"):
        load_config(write(tmp_path, "capacity = 10\nmix = 1.0\nsim.seeds = 1, 1\n"))


def test_simulation_needs_a_seed_at_construction(tmp_path):
    # A SweepConfig made in code gets no load-time checks, so an empty seed
    # list with simulation on is refused when the object is built.
    cfg = load_config(write(tmp_path, FULL))
    with pytest.raises(ValueError, match="sim_seeds"):
        replace(cfg, sim_seeds=())
    analytic = replace(cfg, sim_enabled=False, sim_seeds=())
    with pytest.raises(ValueError, match="sim_seeds"):
        replace(analytic, sim_enabled=True)


@pytest.mark.parametrize(
    "params, change, field",
    [
        # lambda / mu overflows at 1e10
        (SystemParams(4, class_count=1, service_rate=1e-300), dict(grid=(1.0, 1e10)), r"grid point 10000000000\.0 "),
        # the simulation horizon sim_arrivals / (0.9 * lambda) is infinite at 1e-320
        (SystemParams(4, class_count=1), dict(grid=(1e-320, 1.0), sim_enabled=True), "grid point 1e-320"),
        # the horizon's int division raised OverflowError
        (SystemParams(4, class_count=1), dict(grid=(1.0,), sim_enabled=True, sim_arrivals=10**400), "sim_arrivals"),
    ],
    ids=["load-overflow", "horizon-overflow", "arrivals-overflow"],
)
def test_load_range_is_checked_when_built(params, change, field):
    # Each of these built, then failed inside run_sweep.
    with pytest.raises(ValueError, match=f"^{field}"):
        SweepConfig(params=params, mix=(1.0,), schemes=(Scheme.NON_PRIORITY,), **change)


def test_horizon_is_checked_only_with_simulation_on():
    cfg = SweepConfig(
        params=SystemParams(4, class_count=1), mix=(1.0,), grid=(1e-320, 1.0), schemes=(Scheme.NON_PRIORITY,)
    )
    assert math.isinf(cfg.horizon(1e-320))
    with pytest.raises(ValueError, match="^grid point 1e-320 gives sim_arrivals an infinite simulation horizon$"):
        replace(cfg, sim_enabled=True)


@pytest.mark.parametrize(
    "change, field",
    [
        (dict(mix=(0.5, 0.3, 0.3)), "mix"),  # offers 1.1 times the stated load
        (dict(mix=(1.5, -0.3, -0.2)), "mix"),  # sums to 1 with entries outside [0, 1]
        (dict(grid=(20.0, 44.0, 20.0)), "grid"),
        (dict(sim_seeds=(1, 1)), "sim_seeds"),
        (dict(schemes=(Scheme.DYNAMIC, Scheme.NON_PRIORITY, Scheme.DYNAMIC)), "schemes"),
        (dict(mix=(0.5, 0.5)), "mix"),  # two proportions for three classes
        (dict(fixed_thresholds=None), "fixed_thresholds"),
        (dict(fixed_thresholds=ThresholdVector((38, 30, 24))), "fixed_thresholds"),
        (dict(fixed_thresholds=ThresholdVector((40, 30))), "fixed_thresholds"),
        # each of these built, then failed mid-sweep
        (dict(sim_seeds=(-1,)), "sim_seeds"),
        (dict(sim_seeds=(1.5,)), "sim_seeds"),
        (dict(sim_arrivals=0), "sim_arrivals"),
        (dict(sim_arrivals=-5), "sim_arrivals"),
        (dict(grid=(0.0,)), "grid"),
        (dict(grid=(math.nan,)), "grid"),
        (dict(grid=(8.0, 8.000000001)), "grid"),  # the CSV prints both as 8
    ],
)
def test_construction_repeats_the_load_checks(tmp_path, change, field):
    cfg = load_config(write(tmp_path, FULL))
    with pytest.raises(ValueError, match=field):
        replace(cfg, **change)


@pytest.mark.parametrize("limits", [(8, 5), (10, 5, 2), (10,)])
def test_limits_fit_has_one_home(limits):
    # The config, a simulation run and a chain report refuse limits that do
    # not fit the system with one message, apart from the field it names.
    params = SystemParams(10, 5, class_count=2)
    fixed = ThresholdVector(limits)
    calls = [
        ("fixed_thresholds", lambda: SweepConfig(
            params=params, mix=(0.5, 0.5), grid=(6.0,), schemes=(Scheme.FIXED_GUARD,), fixed_thresholds=fixed
        )),
        ("fixed_thresholds", lambda: Scenario(
            params=params, schedule=((0.0, (3.0, 3.0)),), horizon=10.0, seed=1,
            scheme=Scheme.FIXED_GUARD, fixed_thresholds=fixed,
        )),
        ("limits", lambda: _point_report(params, limits, (3.0, 3.0))),
    ]
    rests = set()
    for field, call in calls:
        with pytest.raises(ValueError, match=rf"^{field} ") as info:
            call()
        rests.add(str(info.value).removeprefix(field))
    (rest,) = rests
    assert "equal the capacity 10" in rest and rest.endswith(f"got {limits}")


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seed_rule_has_one_home(seed):
    # A config and a simulation run refuse a seed numpy would not take with
    # one message, apart from the field it names; a run refused -1 only
    # inside numpy before.
    params = SystemParams(10, 5, class_count=2)
    calls = [
        ("sim_seeds", lambda: SweepConfig(
            params=params, mix=(0.5, 0.5), grid=(6.0,), schemes=(Scheme.DYNAMIC,), sim_seeds=(seed,)
        )),
        ("seed", lambda: Scenario(params=params, schedule=((0.0, (3.0, 3.0)),), horizon=10.0, seed=seed)),
    ]
    rests = set()
    for field, call in calls:
        with pytest.raises(ValueError, match=rf"^{field} must be non-negative") as info:
            call()
        rests.add(str(info.value).removeprefix(field))
    (rest,) = rests
    assert rest.endswith(f"got {seed!r}")


@pytest.mark.parametrize(
    "mix, grid",
    [
        ((0.5, 0.3, 0.3), (4.0,)),  # sums to 1.1
        ((1.5, -0.3, -0.2), (4.0,)),  # sums to 1 with entries outside [0, 1]
        ((0.5, 0.5), (4.0,)),  # two proportions for three classes
        ((0.4, 0.3, 0.3), (4.0, 0.0)),
    ],
)
def test_mix_and_grid_rules_have_one_home(mix, grid):
    params = SystemParams(10, 5)
    with pytest.raises(ValueError, match="^(mix|grid) ") as curve:
        quasi_stationary_curve(params, mix, grid)
    with pytest.raises(ValueError) as config:
        SweepConfig(params=params, mix=mix, grid=grid, schemes=(Scheme.DYNAMIC,))
    assert str(config.value) == str(curve.value)


def test_thresholds_may_stay_with_fixed_off(tmp_path):
    # Rechecking a loaded config under one scheme keeps its thresholds.
    cfg = replace(load_config(write(tmp_path, FULL)), schemes=(Scheme.DYNAMIC,))
    assert cfg.fixed_thresholds.limits == (40, 30, 24)


def test_garbled_line(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        load_config(write(tmp_path, "capacity 10\n"))
