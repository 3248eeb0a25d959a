"""CLI surface: subcommands, overrides, exit codes."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dynguard
from dynguard import cli
from dynguard.cli import main

REGRESSION = Path(__file__).resolve().parents[1] / "configs" / "regression.conf"

CONF = """
capacity = 6
common_floor = 3
mix = 0.5, 0.5
grid = 3, 9
schemes = dynamic, nonpriority
sim.enabled = true
sim.arrivals = 2000
sim.seeds = 1, 2
"""

HEADER = (
    "scheme,lambda_total,class,blocking_analytic,blocking_sim,"
    "blocking_sim_stderr,utilization_analytic,utilization_sim,mode"
)


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text(CONF)
    return path


def test_analytic_disables_simulation(conf, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["analytic", "--config", str(conf), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER
    assert all(line.split(",")[4] == "" for line in lines[1:])
    assert "wrote" in capsys.readouterr().out


def test_sweep_honors_config_simulation(conf, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(line.split(",")[4] != "" for line in lines[1:])


def test_simulate_forces_simulation_on(conf, tmp_path):
    analytic_only = conf.read_text().replace("sim.enabled = true", "sim.enabled = false")
    conf.write_text(analytic_only)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(line.split(",")[4] != "" for line in lines[1:])


def test_seed_override_changes_the_run(conf, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out1), "--seed", "9"]) == 0
    assert main(["sweep", "--config", str(conf), "--out", str(out2), "--seed", "9"]) == 0
    assert main(["sweep", "--config", str(conf), "--out", str(out3), "--seed", "10"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_negative_seed_exits_one(conf, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out), "--seed", "-3"]) == 1
    assert "--seed -3: sim_seeds must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_out_from_config(tmp_path):
    out = tmp_path / "from_config.csv"
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"capacity = 4\nmix = 1.0\ngrid = 2\nout = {out}\n")
    assert main(["analytic", "--config", str(conf)]) == 0
    assert out.exists()


def test_validation_error_exits_one(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("capacity = 4\nmix = 0.7, 0.7\n")
    assert main(["analytic", "--config", str(conf), "--out", str(tmp_path / "o.csv")]) == 1
    assert "sum to 1" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.conf"
    assert main(["analytic", "--config", str(missing), "--out", str(tmp_path / "o.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_out_exits_one(conf, capsys):
    assert main(["analytic", "--config", str(conf)]) == 1
    assert "output path" in capsys.readouterr().err


def test_runtime_error_exits_two(conf, tmp_path, capsys):
    out = tmp_path / "a_directory"  # its parent exists, but a directory cannot be written as a file
    out.mkdir()
    assert main(["analytic", "--config", str(conf), "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("from_flag", [True, False], ids=["--out", "config out"])
def test_missing_out_directory_exits_one_before_the_sweep(tmp_path, monkeypatch, capsys, from_flag):
    def no_sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    missing = tmp_path / "no_such_dir"
    out = missing / "out.csv"
    conf = tmp_path / "sweep.conf"
    conf.write_text(CONF if from_flag else CONF + f"out = {out}\n")
    argv = ["simulate", "--config", str(conf)] + (["--out", str(out)] if from_flag else [])
    assert main(argv) == 1
    source = "--out" if from_flag else "the config's 'out'"
    assert f"{source} {out}: directory {missing} does not exist" in capsys.readouterr().err
    assert not missing.exists()


def _children(pid):
    found = set()
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found.update(int(c) for c in task.read_text().split())
        except OSError:  # the task ended
            pass
    return found


def _alive(pid):
    """Whether ``pid`` runs: a zombie waiting for its reaper counts as gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc and the pool's fork workers")
@pytest.mark.parametrize("sig, status", [(signal.SIGTERM, 143), (signal.SIGKILL, -signal.SIGKILL)], ids=["TERM", "KILL"])
def test_a_stopped_simulating_sweep_leaves_no_worker_running(tmp_path, sig, status):
    # SIGTERM exits through the pool's shutdown; SIGKILL skips it, and the
    # workers die with their parent. On one CPU there is no pool to check.
    conf = tmp_path / "long.conf"
    conf.write_text(re.sub(r"(?m)^sim\.arrivals\s*=.*$", "sim.arrivals = 400000", REGRESSION.read_text()))
    src = str(Path(dynguard.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "dynguard.cli", "simulate", "--config", str(conf), "--out", str(tmp_path / "o.csv")]
    pool = len(os.sched_getaffinity(0)) >= 2
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        try:
            children, deadline = set(), time.monotonic() + 60
            while pool and len(children) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                children = _children(proc.pid)
            if not pool:
                time.sleep(1.0)
            assert proc.poll() is None and len(children) >= 2 * pool
            proc.send_signal(sig)
            assert proc.wait(timeout=60) == status
        finally:
            proc.kill()
    time.sleep(1.0)
    assert not [c for c in children if _alive(c)]
