"""Sweep configuration files.

The format is deliberately flat: one ``key = value`` per line, ``#`` starts
a comment, dotted keys group related settings. Lists are comma separated.
Unknown keys, duplicate keys, and invariant violations are hard errors that
name the offending line, so a typo can never silently change an experiment.

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
    sim.smoothing    =               # optional estimator smoothing in (0, 1]
    out              = results.csv

When the grid is omitted it defaults to 16 evenly spaced total rates from
half the capacity rate to twice the capacity rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .simulate import Scheme
from .traffic import SystemParams, ThresholdVector


class ConfigError(ValueError):
    """A configuration problem, pointing at the file and line that caused it."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(where + message)


_SCHEME_LABELS = {s.value: s for s in Scheme}

_KNOWN_KEYS = frozenset(
    {
        "capacity",
        "common_floor",
        "service_rate",
        "load_threshold",
        "mix",
        "grid",
        "grid.min",
        "grid.max",
        "grid.steps",
        "schemes",
        "fixed.thresholds",
        "sim.enabled",
        "sim.arrivals",
        "sim.seeds",
        "sim.smoothing",
        "out",
    }
)


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
    sim_smoothing: float | None = None
    out_path: str | None = None


def _parse_lines(text: str, path: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", path, lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first set on line {entries[key][1]})", path, lineno)
        entries[key] = (value, lineno)
    return entries


class _Reader:
    """Typed access to parsed entries with line-precise errors."""

    def __init__(self, entries: dict[str, tuple[str, int]], path: str):
        self.entries = entries
        self.path = path

    def has(self, key: str) -> bool:
        return key in self.entries

    def line(self, key: str) -> int | None:
        return self.entries[key][1] if key in self.entries else None

    def fail(self, key: str, message: str):
        raise ConfigError(message, self.path, self.line(key))

    def _raw(self, key: str) -> str:
        value, lineno = self.entries[key]
        if not value:
            raise ConfigError(f"key {key!r} has an empty value", self.path, lineno)
        return value

    def int_value(self, key: str, default: int | None = None) -> int | None:
        if key not in self.entries:
            return default
        raw = self._raw(key)
        try:
            return int(raw)
        except ValueError:
            self.fail(key, f"{key!r} must be an integer, got {raw!r}")

    def float_value(self, key: str, default: float | None = None) -> float | None:
        if key not in self.entries:
            return default
        raw = self._raw(key)
        try:
            return float(raw)
        except ValueError:
            self.fail(key, f"{key!r} must be a number, got {raw!r}")

    def bool_value(self, key: str, default: bool) -> bool:
        if key not in self.entries:
            return default
        raw = self._raw(key).lower()
        if raw in ("true", "yes", "on", "1"):
            return True
        if raw in ("false", "no", "off", "0"):
            return False
        self.fail(key, f"{key!r} must be a boolean, got {raw!r}")

    def float_list(self, key: str) -> tuple[float, ...] | None:
        if key not in self.entries:
            return None
        raw = self._raw(key)
        try:
            return tuple(float(part.strip()) for part in raw.split(","))
        except ValueError:
            self.fail(key, f"{key!r} must be a comma-separated list of numbers, got {raw!r}")

    def int_list(self, key: str) -> tuple[int, ...] | None:
        if key not in self.entries:
            return None
        raw = self._raw(key)
        try:
            return tuple(int(part.strip()) for part in raw.split(","))
        except ValueError:
            self.fail(key, f"{key!r} must be a comma-separated list of integers, got {raw!r}")

    def str_value(self, key: str, default: str | None = None) -> str | None:
        if key not in self.entries:
            return default
        return self._raw(key)


def load_config(path) -> SweepConfig:
    """Read, parse, and fully validate a sweep configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    reader = _Reader(_parse_lines(text, str(path)), str(path))

    capacity = reader.int_value("capacity")
    if capacity is None:
        raise ConfigError("missing required key 'capacity'", str(path))
    mix = reader.float_list("mix")
    if mix is None:
        raise ConfigError("missing required key 'mix'", str(path))
    for m in mix:
        if not (math.isfinite(m) and m >= 0):
            reader.fail("mix", f"mix proportions must be non-negative, got {m!r}")
    if abs(math.fsum(mix) - 1.0) > 1e-9:
        reader.fail("mix", f"mix proportions must sum to 1, got {math.fsum(mix)!r}")

    service_rate = reader.float_value("service_rate", 1.0)
    try:
        params = SystemParams(
            capacity=capacity,
            common_floor=reader.int_value("common_floor"),
            service_rate=service_rate,
            load_threshold=reader.float_value("load_threshold"),
            class_count=len(mix),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), str(path)) from exc

    grid = reader.float_list("grid")
    dotted = [k for k in ("grid.min", "grid.max", "grid.steps") if reader.has(k)]
    if grid is not None and dotted:
        reader.fail(dotted[0], "give either 'grid' or 'grid.min/max/steps', not both")
    if grid is None and dotted:
        missing = [k for k in ("grid.min", "grid.max", "grid.steps") if not reader.has(k)]
        if missing:
            reader.fail(dotted[0], f"incomplete grid range: missing {', '.join(missing)}")
        lo = reader.float_value("grid.min")
        hi = reader.float_value("grid.max")
        steps = reader.int_value("grid.steps")
        if steps < 2:
            reader.fail("grid.steps", f"'grid.steps' must be at least 2, got {steps}")
        if not hi > lo:
            reader.fail("grid.max", f"'grid.max' must exceed 'grid.min', got {lo}..{hi}")
        grid = tuple(lo + k * (hi - lo) / (steps - 1) for k in range(steps))
    if grid is None:
        # Default regression grid: half to twice the capacity rate.
        lo = 0.5 * capacity * service_rate
        hi = 2.0 * capacity * service_rate
        grid = tuple(lo + k * (hi - lo) / 15 for k in range(16))
    if not grid:
        reader.fail("grid", "grid must not be empty")
    for g in grid:
        if not (math.isfinite(g) and g > 0):
            reader.fail("grid", f"grid points must be positive, got {g!r}")

    scheme_labels = reader.str_value("schemes")
    if scheme_labels is None:
        schemes = (Scheme.DYNAMIC, Scheme.NON_PRIORITY)
    else:
        schemes = []
        for part in scheme_labels.split(","):
            label = part.strip().lower()
            if label not in _SCHEME_LABELS:
                reader.fail(
                    "schemes",
                    f"unknown scheme {label!r}; expected one of {sorted(_SCHEME_LABELS)}",
                )
            scheme = _SCHEME_LABELS[label]
            if scheme in schemes:
                reader.fail("schemes", f"scheme {label!r} listed twice")
            schemes.append(scheme)
        schemes = tuple(schemes)

    fixed_thresholds = None
    limits = reader.int_list("fixed.thresholds")
    if Scheme.FIXED_GUARD in schemes:
        if limits is None:
            raise ConfigError(
                "scheme 'fixed' needs 'fixed.thresholds'", str(path), reader.line("schemes")
            )
        try:
            fixed_thresholds = ThresholdVector(limits)
        except ValueError as exc:
            reader.fail("fixed.thresholds", str(exc))
        if fixed_thresholds.capacity != capacity:
            reader.fail(
                "fixed.thresholds",
                f"first threshold must equal the capacity {capacity}, got {fixed_thresholds.capacity}",
            )
        if fixed_thresholds.class_count != len(mix):
            reader.fail(
                "fixed.thresholds",
                f"expected {len(mix)} thresholds to match the mix, got {fixed_thresholds.class_count}",
            )
    elif limits is not None:
        reader.fail("fixed.thresholds", "'fixed.thresholds' given but scheme 'fixed' is not enabled")

    sim_arrivals = reader.int_value("sim.arrivals", 100_000)
    if sim_arrivals < 1:
        reader.fail("sim.arrivals", f"'sim.arrivals' must be positive, got {sim_arrivals}")
    sim_seeds = reader.int_list("sim.seeds") or (1,)
    for k, seed in enumerate(sim_seeds):
        if seed < 0:
            reader.fail("sim.seeds", f"'sim.seeds' must be non-negative, got {seed}")
        if seed in sim_seeds[:k]:
            reader.fail("sim.seeds", f"seed {seed} listed twice in 'sim.seeds'")
    sim_smoothing = reader.float_value("sim.smoothing")
    if sim_smoothing is not None and not 0 < sim_smoothing <= 1:
        reader.fail("sim.smoothing", f"'sim.smoothing' must be in (0, 1], got {sim_smoothing}")

    return SweepConfig(
        params=params,
        mix=tuple(mix),
        grid=tuple(grid),
        schemes=schemes,
        fixed_thresholds=fixed_thresholds,
        sim_enabled=reader.bool_value("sim.enabled", False),
        sim_arrivals=sim_arrivals,
        sim_seeds=sim_seeds,
        sim_smoothing=sim_smoothing,
        out_path=reader.str_value("out"),
    )
