"""Load-time rejection at the config boundary: every failure names its line."""

import math

import pytest

from dynguard import ConfigError, load_config
from dynguard.cli import main


def write(tmp_path, text):
    path = tmp_path / "sweep.conf"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "text, line",
    [
        ("mix = 1.0\ncapacity = 0\n", 2),
        ("capacity = 10\nmix = 1.0\ncommon_floor = 50\n", 3),
        ("capacity = 10\nmix = 1.0\nservice_rate = -1\n", 3),
        ("capacity = 10\nmix = 1.0\nservice_rate = nan\n", 3),
        ("capacity = 10\nmix = 1.0\nload_threshold = 0\n", 3),
        ("capacity = 10\nmix = 1.0\nservice_rate = inf\n", 3),
        # the default grid derives from service_rate and overflows
        ("capacity = 10\nmix = 1.0\nservice_rate = 1e308\n", 3),
        ("capacity = 10\nmix = 1.0\ngrid.min = -5\ngrid.max = 5\ngrid.steps = 3\n", 3),
        # the default load_threshold 0.925 / service_rate overflows
        ("capacity = 10\nmix = 1.0\ngrid = 1e-300\nservice_rate = 5e-324\n", 4),
        # grid points that print the same in the CSV's lambda_total
        ("capacity = 10\nmix = 1.0\ngrid = 8, 8\n", 3),
        ("capacity = 10\nmix = 1.0\ngrid.min = 8\ngrid.max = 8.000000001\ngrid.steps = 3\n", 3),
    ],
    ids=[
        "capacity", "floor", "mu-negative", "mu-nan", "threshold", "mu-inf", "mu-huge", "range",
        "mu-subnormal", "grid-repeat", "range-repeat",
    ],
)
def test_load_time_errors_name_the_line(tmp_path, text, line):
    with pytest.raises(ConfigError, match=rf"sweep\.conf:{line}: "):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "text, code, line",
    [
        # w[i-1] * birth overflowed in the chain solve before dividing first
        ("capacity = 40\nmix = 0.4, 0.3, 0.3\nsim.arrivals = 300\nservice_rate = 1e300\n", 0, None),
        # lambda / mu overflows
        ("capacity = 10\nmix = 1.0\nservice_rate = 1e-300\ngrid = 1e10\n", 1, 4),
        # the simulation horizon sim.arrivals / (0.9 * lambda) is infinite
        ("capacity = 10\nmix = 1.0\nsim.arrivals = 300\ngrid = 5e-324\n", 1, 4),
        ("capacity = 10\nmix = 1.0\ngrid = 5\nsim.arrivals = " + "1" * 401 + "\n", 1, 4),
    ],
    ids=["mu-huge", "load-overflow", "horizon-overflow", "arrivals-overflow"],
)
def test_simulate_never_fails_mid_sweep(tmp_path, capsys, text, code, line):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(write(tmp_path, text)), "--out", str(out)]) == code
    if line is not None:
        assert f"sweep.conf:{line}: " in capsys.readouterr().err
    else:
        for row in out.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(",")[3:8] if v)
