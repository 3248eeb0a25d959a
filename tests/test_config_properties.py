"""Property battery for the config boundary.

Any config text must either sweep soundly under ``dynguard simulate`` or
fail at load time with exit 1 and ``path:line``; it must never fail
mid-sweep (exit 2). Sizes are capped for runtime only: capacity <= 60, at
most 4 grid points written, ``sim.arrivals`` <= 300.
"""

import contextlib
import io
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from dynguard.cli import main

MAX_CAPACITY = 60
MAX_POINTS = 4
MAX_ARRIVALS = 300

# Positive numbers across the whole float range, subnormals included: plain
# ones, any float, and powers of ten spread evenly over the exponents. Wild
# values add nan, inf, negatives and text.
POSITIVE = st.one_of(
    st.floats(0.05, 100.0),
    st.floats(0.0, exclude_min=True, allow_infinity=False),
    st.integers(-323, 308).map(lambda e: float(f"1e{e}")),
)
WILD = st.one_of(
    st.floats().map(repr),
    st.integers(-2, MAX_CAPACITY).map(str),
    st.sampled_from(["many", "1.5.2", "--3", "1e", "0x10", "true", "1, 2", "dynamo", "nan, 1"]),
)
WILD_KEYS = [
    "capacity", "common_floor", "service_rate", "load_threshold", "mix", "grid", "grid.min",
    "grid.max", "grid.steps", "schemes", "fixed.thresholds", "sim.enabled", "sim.seeds", "out",
]
# Unknown keys, an empty value, malformed lines, a comment and a blank line.
NOISE = st.sampled_from(
    ["cappacity = 3", "sim.estimator = gap", "sim.smoothing = 0.1", "grid =", "mix 0.5", "= 4",
     "# c", ""]
)


def listed(elements, max_size, unique=False):
    return st.lists(elements, min_size=1, max_size=max_size, unique=unique).map(
        lambda items: ", ".join(map(str, items))
    )


@st.composite
def config_texts(draw):
    """A sound config, or one with wild values, or with noise or duplicate lines."""
    capacity = draw(st.integers(1, MAX_CAPACITY))
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(any))
    schemes = draw(
        st.lists(st.sampled_from(["dynamic", "fixed", "nonpriority"]), min_size=1, unique=True)
    )
    guards = len(weights) - 1
    reserved = draw(st.lists(st.integers(0, capacity), min_size=guards, max_size=guards))
    values = {
        "capacity": capacity,
        "mix": ", ".join(repr(w / sum(weights)) for w in weights),
        "schemes": ", ".join(schemes),
        "sim.arrivals": draw(st.integers(1, MAX_ARRIVALS)),
    }
    if "fixed" in schemes:
        limits = [capacity] + sorted(reserved, reverse=True)
        values["fixed.thresholds"] = ", ".join(map(str, limits))
    grid_form = draw(st.sampled_from(["grid", "range", "default"]))
    if grid_form == "grid":
        values["grid"] = draw(listed(POSITIVE.map(repr), MAX_POINTS))
    elif grid_form == "range":
        lo, hi = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2)))
        steps = draw(st.integers(2, MAX_POINTS))
        values.update({"grid.min": repr(lo), "grid.max": repr(hi), "grid.steps": steps})
    optional = {
        "common_floor": st.integers(0, capacity),
        "service_rate": POSITIVE.map(repr),
        "load_threshold": POSITIVE.map(repr),
        "sim.enabled": st.sampled_from(["true", "off"]),
        "sim.seeds": listed(st.integers(0, 5), 2, unique=True),
        "out": st.just("ignored.csv"),
    }
    for key, value in optional.items():
        if draw(st.booleans()):
            values[key] = draw(value)
    mode = draw(st.sampled_from(["sound", "sound", "wild", "noise"]))
    if mode == "wild":
        # sim.arrivals stays sound: its default of 100000 is too slow here.
        for key in draw(st.lists(st.sampled_from(WILD_KEYS), min_size=1, max_size=2)):
            values[key] = draw(WILD)
    lines = [f"{key} = {value}" for key, value in values.items()]
    if mode == "noise":
        lines += draw(st.lists(st.one_of(NOISE, st.sampled_from(lines)), min_size=1, max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def check_csv(text):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert rows
    for row in rows:
        for field in (row[3], row[4], row[6], row[7]):  # blocking and utilization
            if field:
                assert math.isfinite(float(field)) and 0.0 <= float(field) <= 1.0, row
    # Each grid point is a class-0 row followed by its class rows.
    points = []
    for row in rows:
        if row[2] == "0":
            points.append((row[0], []))
        else:
            points[-1][1].append(float(row[3]))
    for scheme, blocking in points:
        if scheme in ("dynamic", "fixed"):
            assert blocking == sorted(blocking), (scheme, blocking)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(config_texts())
def test_config_loads_and_sweeps_or_names_its_line(text):
    # One CPU keeps the runs in this process: forking a worker pool for
    # every example costs more than the runs. TestWorkerPool in
    # test_sweep.py covers the pool.
    one_cpu = mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)
    with tempfile.TemporaryDirectory() as tmp, one_cpu:
        conf = Path(tmp) / "sweep.conf"
        conf.write_text(text)
        out = Path(tmp) / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(conf), "--out", str(out)])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            message = err.getvalue()
            assert "missing required key" in message or re.search(
                re.escape(str(conf)) + r":\d+: ", message
            ), message
        else:
            check_csv(out.read_text())
