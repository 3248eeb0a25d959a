"""Sweep configuration files.

The format is deliberately flat: one ``key = value`` per line, ``#`` starts
a comment, dotted keys group related settings. Lists are comma separated.
Unknown keys, duplicate keys, empty or unparsable values, and invariant
violations are hard errors that name the offending line, so a typo can never
silently change an experiment. Numbers must be finite as floats: ``nan``,
``inf`` and integers beyond the float range are rejected.

Recognized keys::

    capacity         = 40            # total channels N (required)
    common_floor     = 20            # never-reserved channels; default N//2
    service_rate     = 1.0           # per-call service rate mu
    load_threshold   = 0.925         # classification time constant; default 0.925/mu
    mix              = 0.4, 0.3, 0.3 # per-class traffic proportions (required)
    grid             = 20, 24, 28    # explicit total-rate grid, or:
    grid.min         = 20
    grid.max         = 80
    grid.steps       = 16
    schemes          = dynamic, nonpriority   # any of dynamic, fixed, nonpriority
    fixed.thresholds = 40, 30, 24    # required when 'fixed' is enabled
    sim.enabled      = false
    sim.arrivals     = 100000        # target post-warmup arrivals per run
    sim.seeds        = 1, 2, 3
    out              = results.csv

When the grid is omitted it defaults to 16 evenly spaced total rates from
half the capacity rate to twice the capacity rate. The rules on values live
in the types, whose messages start with the field at fault; the loader names
that field's line, and itself checks only the keys, the grid range, scheme
labels, and thresholds given while 'fixed' is off. A file is checked as
``dynguard simulate`` would run it, with simulation on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .simulate import _WARMUP_SHARE, Scheme, _check_seed
from .traffic import SystemParams, ThresholdVector, _check_fit, _check_grid, _check_mix


class ConfigError(ValueError):
    """A configuration problem, pointing at the file and line that caused it."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(where + message)


_SCHEME_LABELS = {s.value: s for s in Scheme}


def _csv_field(value) -> str:
    """How the sweep CSV prints a value: empty for None, reals to 9 significant digits."""
    if value is None:
        return ""
    if type(value) is float or not isinstance(value, (str, int)):  # one check for a float
        return format(value, ".9g")
    return value if isinstance(value, str) else str(value)


def _finite(value):
    # math.isfinite raises OverflowError for an int beyond the float range.
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _integer(text: str) -> int:
    return _finite(int(text))


def _number(text: str) -> float:
    return _finite(float(text))


def _listed(parse):
    return lambda text: tuple(parse(part.strip()) for part in text.split(","))


def _boolean(text: str) -> bool:
    word = text.lower()
    if word in ("true", "yes", "on", "1"):
        return True
    if word in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


_INTEGER = (_integer, "an integer within the float range")
_NUMBER = (_number, "a finite number")
_NUMBERS = (_listed(_number), "a comma-separated list of finite numbers")
_INTEGERS = (_listed(_integer), "a comma-separated list of integers within the float range")

# Every recognized key, with its parser and what a value that fails to parse
# must be instead.
_KEYS = {
    "capacity": _INTEGER,
    "common_floor": _INTEGER,
    "service_rate": _NUMBER,
    "load_threshold": _NUMBER,
    "mix": _NUMBERS,
    "grid": _NUMBERS,
    "grid.min": _NUMBER,
    "grid.max": _NUMBER,
    "grid.steps": _INTEGER,
    "schemes": (_listed(str.lower), "a comma-separated list of scheme names"),
    "fixed.thresholds": _INTEGERS,
    "sim.enabled": (_boolean, "a boolean"),
    "sim.arrivals": _INTEGER,
    "sim.seeds": _INTEGERS,
    "out": (str, "text"),
}

_GRID_RANGE = ("grid.min", "grid.max", "grid.steps")
# Keys that set the SweepConfig field of the same name with dots as underscores.
_SIM_KEYS = ("sim.enabled", "sim.arrivals", "sim.seeds")


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description consumed by :func:`dynguard.sweep.run_sweep`."""

    params: SystemParams
    mix: tuple[float, ...]
    grid: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    fixed_thresholds: ThresholdVector | None = None
    sim_enabled: bool = False
    sim_arrivals: int = 100_000
    sim_seeds: tuple[int, ...] = (1,)
    out_path: str | None = None

    def __post_init__(self) -> None:
        # Every rule about these fields lives here, for a config loaded, built
        # in code or changed by dataclasses.replace alike. Each message starts
        # with the field at fault, which load_config maps to its line.
        _check_mix(self.mix, self.params.class_count)
        _check_grid(self.grid)
        printed = set()
        for g in self.grid:
            shown = _csv_field(g)
            if shown in printed:
                raise ValueError(f"grid points must differ as the CSV prints them, but two read {shown}")
            printed.add(shown)
        for seed in self.sim_seeds:
            _check_seed("sim_seeds", seed)
        for name, values in (("sim_seeds", self.sim_seeds), ("schemes", tuple(s.value for s in self.schemes))):
            for k, value in enumerate(values):
                if value in values[:k]:
                    raise ValueError(f"{name} lists {value!r} twice")
        if not (isinstance(self.sim_arrivals, int) and 1 <= self.sim_arrivals <= sys.float_info.max):
            raise ValueError(f"sim_arrivals must be a positive int within the float range, got {self.sim_arrivals!r}")
        # Thresholds may stay set with 'fixed' off, but must fit the system.
        if self.fixed_thresholds is not None:
            _check_fit("fixed_thresholds", self.fixed_thresholds.limits, self.params)
        elif Scheme.FIXED_GUARD in self.schemes:
            raise ValueError("fixed_thresholds must be given for scheme 'fixed'")
        if self.sim_enabled and not self.sim_seeds:
            raise ValueError("sim_seeds must list at least one seed when simulation is enabled")
        # The offered load, the summed class rates over mu, peaks at the largest point.
        top = max(self.grid, default=0.0)
        try:
            offered = math.fsum(m * top for m in self.mix) / self.params.service_rate
        except OverflowError:  # the class rates sum beyond the float range
            offered = math.inf
        if not math.isfinite(offered):
            raise ValueError(f"grid point {top!r} gives an offered load beyond the float range")
        # The simulation horizon peaks at the smallest point.
        if self.sim_enabled and self.grid and not math.isfinite(self.horizon(min(self.grid))):
            raise ValueError(f"grid point {min(self.grid)!r} gives sim_arrivals an infinite simulation horizon")

    def horizon(self, lam_total: float) -> float:
        """Simulation horizon whose post-warmup window sees about ``sim_arrivals`` calls."""
        return self.sim_arrivals / ((1 - _WARMUP_SHARE) * lam_total)


def _parse_lines(text: str, path: str) -> tuple[dict[str, object], dict[str, int]]:
    """The parsed value and the line number of every key set in ``text``."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", path, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        if key in lines:
            raise ConfigError(f"duplicate key {key!r} (first set on line {lines[key]})", path, lineno)
        if not value:
            raise ConfigError(f"key {key!r} has an empty value", path, lineno)
        parse, phrase = _KEYS[key]
        try:
            values[key] = parse(value)
        except (ValueError, OverflowError):
            raise ConfigError(f"{key!r} must be {phrase}, got {value!r}", path, lineno) from None
        lines[key] = lineno
    return values, lines


def load_config(path) -> SweepConfig:
    """Read, parse, and fully validate a sweep configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    values, lines = _parse_lines(text, str(path))

    def fail(key: str | None, message: str):
        raise ConfigError(message, str(path), lines.get(key))

    for key in ("capacity", "mix"):
        if key not in values:
            fail(key, f"missing required key {key!r}")

    grid = values.get("grid")
    ranged = [k for k in _GRID_RANGE if k in values]
    if grid is not None and ranged:
        fail(ranged[0], "give either 'grid' or 'grid.min/max/steps', not both")
    if ranged:
        missing = [k for k in _GRID_RANGE if k not in values]
        if missing:
            fail(ranged[0], f"incomplete grid range: missing {', '.join(missing)}")
        lo, hi, steps = (values[k] for k in _GRID_RANGE)
        if steps < 2:
            fail("grid.steps", f"'grid.steps' must be at least 2, got {steps}")
        if not hi > lo:
            fail("grid.max", f"'grid.max' must exceed 'grid.min', got {lo}..{hi}")
        grid = tuple(lo + k * (hi - lo) / (steps - 1) for k in range(steps))

    schemes = []
    for label in values.get("schemes", ("dynamic", "nonpriority")):
        if label not in _SCHEME_LABELS:
            fail("schemes", f"unknown scheme {label!r}; expected one of {sorted(_SCHEME_LABELS)}")
        schemes.append(_SCHEME_LABELS[label])
    limits = values.get("fixed.thresholds")
    if limits is not None and Scheme.FIXED_GUARD not in schemes:
        fail("fixed.thresholds", "'fixed.thresholds' given but scheme 'fixed' is not enabled")

    # Failures of grid points are blamed on the key they derive from.
    grid_key = next((k for k in ("grid", "grid.min", "service_rate") if k in lines), "capacity")
    # Each SystemParams, ThresholdVector and SweepConfig message starts with the
    # field at fault; it is blamed on the first of that field's keys that is set.
    blamed = {
        "grid": (grid_key,),
        "limits": ("fixed.thresholds",),
        "fixed_thresholds": ("fixed.thresholds", "schemes"),
        "load_threshold": ("load_threshold", "service_rate"),
        **{key.replace(".", "_"): (key,) for key in _SIM_KEYS},
    }
    given = {k: values[k] for k in ("common_floor", "service_rate", "load_threshold") if k in values}
    try:
        params = SystemParams(values["capacity"], class_count=len(values["mix"]), **given)
        if grid is None:
            # Default regression grid: half to twice the capacity rate.
            lo = 0.5 * params.capacity * params.service_rate
            hi = 2.0 * params.capacity * params.service_rate
            grid = tuple(lo + k * (hi - lo) / 15 for k in range(16))
        config = SweepConfig(
            params=params,
            mix=values["mix"],
            grid=grid,
            schemes=tuple(schemes),
            fixed_thresholds=None if limits is None else ThresholdVector(limits),
            out_path=values.get("out"),
            **{key.replace(".", "_"): values[key] for key in _SIM_KEYS if key in values},
        )
        # Checked whatever 'sim.enabled' says, since 'dynguard simulate' turns it on.
        replace(config, sim_enabled=True)
    except ValueError as exc:
        field = str(exc).split()[0]
        fail(next((k for k in blamed.get(field, (field,)) if k in lines), None), str(exc))
    return config
