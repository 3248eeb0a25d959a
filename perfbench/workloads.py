"""The benchmark's workloads: inputs made from a seed, one call, output checks.

Each workload object offers ``prepare()`` (untimed, before each call),
``call(tracer)`` (the timed call), ``output`` (a compact, comparable form of
what the call produced), ``errors`` (every check that failed) and
``recheck`` (a second run of part of the work, for seeds without a
committed reference).
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

from dynguard import (
    Scenario,
    Scheme,
    SystemParams,
    cli,
    emit_csv,
    load_config,
    run_simulation,
    run_sweep,
)

BENCH_DIR = Path(__file__).resolve().parent
INPUTS = BENCH_DIR / "inputs"
REFERENCE = BENCH_DIR / "reference"

# Analytic fields may move by this much before a result counts as wrong:
# |got - want| <= ABS_TOL + REL_TOL * |want|. Simulated fields must match exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-12

CSV_HEADER = (
    "scheme,lambda_total,class,blocking_analytic,blocking_sim,"
    "blocking_sim_stderr,utilization_analytic,utilization_sim,mode"
)
ANALYTIC_COLS = (0, 1, 2, 3, 6, 8)
SIM_COLS = (0, 1, 2, 4, 5, 7)
MAX_ERRORS = 5


def _columns(text: str, cols) -> str:
    rows = (line.split(",") for line in text.splitlines()[1:])
    return "\n".join(",".join(r[c] for c in cols) for r in rows) + "\n"


def analytic_table(csv_text: str) -> str:
    """The analytic columns of a sweep CSV, keyed by scheme, rate and class."""
    return _columns(csv_text, ANALYTIC_COLS)


def sim_digest(csv_text: str) -> str:
    """Digest of the simulated columns of a sweep CSV, keyed like the rows."""
    return hashlib.sha256(_columns(csv_text, SIM_COLS).encode()).hexdigest()


def _present(col: int, cls0: bool, sim: bool) -> bool:
    """Whether CSV field ``col`` is filled in a class-0 (``cls0``) or class row."""
    return {3: True, 4: sim, 5: sim, 6: cls0, 7: cls0 and sim}[col]


def csv_errors(text: str, config) -> list[str]:
    """Invariant violations in a sweep CSV produced from ``config``."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs from the fixed header"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 9 for r in rows):
        return ["CSV row without exactly 9 fields"]
    m = config.params.class_count
    schemes = sorted(s.value for s in config.schemes)
    expected = [
        (s, format(lam, ".9g"), str(c))
        for s in schemes
        for lam in config.grid
        for c in range(m + 1)
    ]
    if [tuple(r[:3]) for r in rows] != expected:
        return [f"rows are not (scheme, lambda_total, class) in sweep order ({len(rows)} rows)"]

    errors = []
    by_key = {tuple(r[:3]): r for r in rows}
    for r in rows:
        cls0 = r[2] == "0"
        for col in range(3, 8):
            if (r[col] != "") != _present(col, cls0, config.sim_enabled):
                errors.append(f"{r[:3]}: field {col} present/absent wrongly")
            elif r[col] and not 0.0 <= float(r[col]) <= 1.0:
                errors.append(f"{r[:3]}: field {col} = {r[col]} outside [0, 1]")
        if r[8] not in ("light", "high"):
            errors.append(f"{r[:3]}: mode {r[8]!r}")
    for s in ("dynamic", "fixed"):
        if s not in schemes:
            continue
        for lam in config.grid:
            key = format(lam, ".9g")
            b = [float(by_key[(s, key, str(c))][3]) for c in range(1, m + 1)]
            if any(x > y for x, y in zip(b, b[1:])):
                errors.append(f"{s} lambda={key}: analytic blocking not non-decreasing in class {b}")
    if "dynamic" in schemes and "nonpriority" in schemes:
        # Light-load dynamic rows come from the shared-pool formula, bit for bit.
        for lam in config.grid:
            key = format(lam, ".9g")
            for c in range(m + 1):
                d = by_key[("dynamic", key, str(c))]
                n = by_key[("nonpriority", key, str(c))]
                if d[8] != n[8]:
                    errors.append(f"lambda={key}: schemes disagree on the mode")
                elif d[8] == "light" and (d[3], d[6]) != (n[3], n[6]):
                    errors.append(f"lambda={key} class {c}: light dynamic row differs from nonpriority")
    return errors[:MAX_ERRORS]


def analytic_errors(got: str, want: str) -> list[str]:
    """Differences beyond the tolerance between two analytic tables."""
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if len(got_rows) != len(want_rows):
        return [f"analytic table has {len(got_rows)} rows, reference {len(want_rows)}"]
    errors = []
    for g, w in zip(got_rows, want_rows):
        if g[:3] != w[:3] or g[5] != w[5]:
            errors.append(f"row {g[:3]} mode {g[5]} differs from reference {w[:3]} mode {w[5]}")
            continue
        for col in (3, 4):
            if (g[col] == "") != (w[col] == ""):
                errors.append(f"row {g[:3]} field {col} present/absent unlike the reference")
            elif g[col] and abs(float(g[col]) - float(w[col])) > ABS_TOL + REL_TOL * abs(float(w[col])):
                errors.append(f"row {g[:3]} field {col}: {g[col]} vs reference {w[col]}")
    return errors[:MAX_ERRORS]


def _digests() -> dict:
    path = REFERENCE / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Sweep:
    """``dynguard <command> --config FILE --out CSV [--seed N]`` through the CLI entry point."""

    def __init__(self, name, command, config_path, seed, out_dir, seed_arg, analytic_ref, sim_ref):
        self.name = name
        self.csv = Path(out_dir) / f"{name}.csv"
        self.argv = [command, "--config", str(config_path), "--out", str(self.csv)]
        config = replace(load_config(config_path), sim_enabled=command == "simulate")
        if seed_arg:
            self.argv += ["--seed", str(seed)]
            config = replace(config, sim_seeds=(seed,))
        self.config = config
        self.probe_args = ["config", str(config_path)]
        self.analytic_ref = analytic_ref
        self.sim_ref = sim_ref
        self.referenced = sim_ref is not None if config.sim_enabled else analytic_ref is not None

    def prepare(self):
        """Remove the previous CSV, so a call that writes none cannot pass on a stale one."""
        self.csv.unlink(missing_ok=True)

    def call(self, tracer=None):
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(self.argv)
            else:
                code = tracer.run("main", "cli", cli.main, self.argv)
        if code != 0:
            raise RuntimeError(f"dynguard {self.argv[0]} exited with {code}")

    def output(self, result) -> str:
        return self.csv.read_text()

    def rows(self, output) -> int:
        return output.count("\n") - 1

    def errors(self, result, output) -> list[str]:
        errors = csv_errors(output, self.config)
        if self.analytic_ref is not None:
            errors += analytic_errors(analytic_table(output), self.analytic_ref)
        if self.sim_ref is not None and sim_digest(output) != self.sim_ref:
            errors.append("simulated fields differ from the reference digest")
        return errors

    def recheck(self, output) -> list[str]:
        """Run the first scheme at the first grid point again; its rows must repeat."""
        first = sorted(self.config.schemes, key=lambda s: s.value)[:1]
        part = replace(self.config, schemes=tuple(first), grid=self.config.grid[:1])
        path = self.csv.with_suffix(".recheck.csv")
        path.unlink(missing_ok=True)
        emit_csv(run_sweep(part), path)
        again = path.read_text().splitlines()
        if again != output.splitlines()[: len(again)]:
            return ["a second run of the first grid point gave different rows"]
        return []


def sweep_sim(seed: int, root: Path, out_dir: Path) -> Sweep:
    analytic = (REFERENCE / "sweep_sim_analytic.csv").read_text()
    sim_ref = _digests().get("sweep_sim", {}).get(str(seed))
    return Sweep(
        "sweep_sim", "simulate", root / "configs" / "regression.conf", seed, out_dir,
        seed_arg=True, analytic_ref=analytic, sim_ref=sim_ref,
    )


def sweep_analytic_wide(seed: int, root: Path, out_dir: Path) -> Sweep:
    """The committed wide config on every seed: an analytic sweep has no random stream."""
    return Sweep(
        "sweep_analytic_wide", "analytic", INPUTS / "analytic_wide.conf", seed, out_dir,
        seed_arg=False, analytic_ref=(REFERENCE / "sweep_analytic_wide_analytic.csv").read_text(),
        sim_ref=None,
    )


def schedule_scenario(spec: dict, seed: int) -> Scenario:
    """DYNAMIC run over equal segments that cycle through ``segment_rates``."""
    mix = spec["mix"]
    params = SystemParams(
        capacity=spec["capacity"], common_floor=spec["common_floor"], class_count=len(mix)
    )
    cycle = spec["segment_rates"]
    schedule = tuple(
        (k * spec["segment_length"], tuple(p * cycle[k % len(cycle)] for p in mix))
        for k in range(spec["segments"])
    )
    return Scenario(
        params=params, schedule=schedule, horizon=spec["horizon"], seed=seed,
        scheme=Scheme.DYNAMIC, record_trace=True,
    )


def report_digest(report) -> str:
    """Digest of a simulation's counts, fractions and full arrival trace."""
    fields = (
        tuple(report.offered), tuple(report.blocked), report.event_count,
        report.utilization, report.light_time_fraction, report.high_time_fraction,
        tuple(map(tuple, report.trace)),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def report_errors(report, scenario: Scenario) -> list[str]:
    """Invariant violations in a traced simulation report."""
    m = scenario.params.class_count
    errors = []
    if not all(0 <= b <= o for b, o in zip(report.blocked, report.offered)) or len(report.offered) != m:
        errors.append(f"blocked/offered counts inconsistent: {report.blocked} of {report.offered}")
    probs = [p for p in report.blocking if p is not None]
    probs += [report.utilization, report.light_time_fraction, report.high_time_fraction]
    if not all(0.0 <= p <= 1.0 for p in probs):
        errors.append("a probability or fraction lies outside [0, 1]")
    if abs(report.light_time_fraction + report.high_time_fraction - 1.0) > 1e-9:
        errors.append("light and high time fractions do not add up to 1")
    offered, blocked = [0] * m, [0] * m
    prev = 0.0
    for t, cls, admitted in report.trace:
        if t < prev or t > scenario.horizon or not 1 <= cls <= m:
            errors.append(f"trace entry ({t}, {cls}) out of order or range")
            break
        prev = t
        if t >= scenario.warmup:
            offered[cls - 1] += 1
            blocked[cls - 1] += not admitted
    if (tuple(offered), tuple(blocked)) != (tuple(report.offered), tuple(report.blocked)):
        errors.append("trace does not reproduce the offered/blocked counts")
    if len(report.segments) != len(scenario.schedule):
        errors.append("one segment report per schedule segment expected")
    return errors


class Schedule:
    """One DYNAMIC ``run_simulation`` over a mode-switching schedule, trace on."""

    name = "sim_schedule"

    def __init__(self, seed: int, root: Path, out_dir: Path):
        spec_path = INPUTS / "sim_schedule.json"
        self.scenario = schedule_scenario(json.loads(spec_path.read_text()), seed)
        self.probe_args = ["schedule", str(spec_path), str(seed)]
        self.ref = _digests().get(self.name, {}).get(str(seed))
        self.referenced = self.ref is not None

    def prepare(self):
        pass

    def call(self, tracer=None):
        if tracer is None:
            return run_simulation(self.scenario)
        return tracer.run("run_simulation", "simulate", run_simulation, self.scenario)

    def output(self, result) -> str:
        return report_digest(result)

    def rows(self, output) -> int:
        return 0

    def errors(self, result, output) -> list[str]:
        errors = report_errors(result, self.scenario)
        if self.ref is not None and output != self.ref:
            errors.append("report or trace differs from the reference digest")
        return errors

    def recheck(self, output) -> list[str]:
        if report_digest(run_simulation(self.scenario)) != output:
            return ["a second run gave a different report or trace"]
        return []


WORKLOADS = {
    "sweep_sim": sweep_sim,
    "sweep_analytic_wide": sweep_analytic_wide,
    "sim_schedule": Schedule,
}
