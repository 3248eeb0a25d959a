"""Regenerate the reference outputs that benchmark runs are checked against.

    python3 perfbench/make_reference.py

Writes perfbench/reference/: the analytic columns of the sweep_sim and
sweep_analytic_wide CSVs, and digests of the simulated sweep_sim columns
and of the sim_schedule report and trace for seeds 0-31. Only run it on a
commit whose outputs are known good; every output must pass the invariant
checks before it is written.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from dynguard import cli, load_config, run_simulation  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS,
    REFERENCE,
    analytic_table,
    csv_errors,
    report_digest,
    report_errors,
    schedule_scenario,
    sim_digest,
)

SEEDS = range(32)


def sweep_csv(command: str, config_path: Path, out: Path, seed: int | None) -> str:
    argv = [command, "--config", str(config_path), "--out", str(out)]
    out.unlink(missing_ok=True)
    config = replace(load_config(config_path), sim_enabled=command == "simulate")
    if seed is not None:
        argv += ["--seed", str(seed)]
        config = replace(config, sim_seeds=(seed,))
    with redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"dynguard {command} failed on {config_path}")
    text = out.read_text()
    errors = csv_errors(text, config)
    if errors:
        sys.exit(f"{config_path} seed {seed}: {errors}")
    return text


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    digests = {"sim_schedule": {}, "sweep_sim": {}}

    text = sweep_csv("analytic", INPUTS / "analytic_wide.conf", scratch / "ref_wide.csv", None)
    (REFERENCE / "sweep_analytic_wide_analytic.csv").write_text(analytic_table(text))
    for seed in SEEDS:
        text = sweep_csv("simulate", ROOT / "configs" / "regression.conf", scratch / "ref_sim.csv", seed)
        if seed == SEEDS[0]:
            (REFERENCE / "sweep_sim_analytic.csv").write_text(analytic_table(text))
        digests["sweep_sim"][str(seed)] = sim_digest(text)
        print(f"sweep_sim seed {seed}: {digests['sweep_sim'][str(seed)]}", flush=True)
    spec = json.loads((INPUTS / "sim_schedule.json").read_text())
    for seed in SEEDS:
        scenario = schedule_scenario(spec, seed)
        report = run_simulation(scenario)
        errors = report_errors(report, scenario)
        if errors:
            sys.exit(f"sim_schedule seed {seed}: {errors}")
        digests["sim_schedule"][str(seed)] = report_digest(report)

    (REFERENCE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
