"""Self-test of the benchmark harness; it times nothing.

    python3 perfbench/selftest.py

Checks that every workload completes at a tiny size and passes its output
checks, traced and untraced; that the checks flag a perturbed reference and
broken invariants; that every traced child span nests inside its parent;
and that the metric names and units printed match BENCHMARK.json. Exits
non-zero on the first failure.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench_out" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from dynguard import cli  # noqa: E402

import run  # noqa: E402
from tracing import Span, Tracer, nesting_errors, self_times  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS,
    REFERENCE,
    WORKLOADS,
    Schedule,
    Sweep,
    analytic_errors,
    analytic_table,
    csv_errors,
    schedule_scenario,
)


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def tiny_sweeps() -> list[Sweep]:
    text = (ROOT / "configs" / "regression.conf").read_text()
    text = re.sub(r"(?m)^sim\.arrivals\s*=.*$", "sim.arrivals = 400", text)
    text = re.sub(r"(?m)^grid\.steps\s*=.*$", "grid.steps = 5", text)
    sim_conf = OUT / "tiny_sim.conf"
    sim_conf.write_text(text)
    text = (INPUTS / "analytic_wide.conf").read_text()
    for key, value in (
        ("capacity", "200"), ("common_floor", "100"), ("grid.min", "100"),
        ("grid.max", "400"), ("grid.steps", "9"), ("fixed.thresholds", "200, 160, 130"),
    ):
        text = re.sub(rf"(?m)^{re.escape(key)}\s*=.*$", f"{key} = {value}", text)
    wide_conf = OUT / "tiny_wide.conf"
    wide_conf.write_text(text)
    return [
        Sweep("tiny_sim", "simulate", sim_conf, 3, OUT, seed_arg=True, analytic_ref=None, sim_ref=None),
        Sweep("tiny_wide", "analytic", wide_conf, 3, OUT, seed_arg=False, analytic_ref=None, sim_ref=None),
    ]


def tiny_schedule() -> Schedule:
    workload = Schedule(0, ROOT, OUT)
    spec = json.loads((INPUTS / "sim_schedule.json").read_text())
    spec.update(segments=10, horizon=100.0)
    workload.scenario = schedule_scenario(spec, 3)
    workload.ref = None
    return workload


def check_tiny(workload) -> None:
    workload.prepare()
    result = workload.call()
    first = workload.output(result)
    expect(workload.errors(result, first) == [], f"{workload.name}: tiny run passes its checks")
    workload.prepare()
    tracer = Tracer()
    with tracer.installed():
        tracer.call = 1
        result = workload.call(tracer)
    expect(workload.output(result) == first, f"{workload.name}: traced run gives the same output")
    expect(workload.recheck(first) == [], f"{workload.name}: a partial re-run repeats")
    expect(nesting_errors(tracer.spans) == [], f"{workload.name}: {len(tracer.spans)} spans nest in their parents")
    root = tracer.spans[0]
    total_self = sum(self_times(tracer.spans).values())
    expect(abs(total_self - root.duration_ns / 1e9) < 1e-6, f"{workload.name}: layer self times add up to the call")


def check_perturbed_references() -> None:
    # The analytic columns of a sweep_sim CSV equal those of an analytic run of its config.
    csv = OUT / "regression_analytic.csv"
    with redirect_stdout(io.StringIO()):
        cli.main(["analytic", "--config", str(ROOT / "configs" / "regression.conf"), "--out", str(csv)])
    got = analytic_table(csv.read_text())
    want = (REFERENCE / "sweep_sim_analytic.csv").read_text()
    expect(analytic_errors(got, want) == [], "regression analytic fields match the committed reference")
    rows = want.splitlines()
    fields = rows[20].split(",")
    for factor, flagged in ((1 + 1e-4, True), (1 + 1e-9, False)):
        changed = fields[:3] + [repr(float(fields[3]) * factor)] + fields[4:]
        perturbed = "\n".join(rows[:20] + [",".join(changed)] + rows[21:]) + "\n"
        expect(
            bool(analytic_errors(got, perturbed)) == flagged,
            f"analytic value scaled by {factor!r} is {'flagged' if flagged else 'within tolerance'}",
        )

    workload = Schedule(0, ROOT, OUT)
    expect(workload.ref is not None, "sim_schedule seed 0 has a committed digest")
    result = workload.call()
    output = workload.output(result)
    expect(workload.errors(result, output) == [], "sim_schedule seed 0 matches its committed digest")
    workload.ref = ("0" if workload.ref[0] != "0" else "1") + workload.ref[1:]
    expect(workload.errors(result, output) != [], "a perturbed sim_schedule digest is flagged")
    checker = run.Checker(workload)
    checker.check(result)
    checker.check(result)
    expect(checker.failed == checker.attempted == 2, "each call repeating a flagged output counts as failed")

    sweep = tiny_sweeps()[0]
    sweep.call()
    text = sweep.output(None)
    sweep.sim_ref = "0" * 64
    expect(sweep.errors(None, text) != [], "a perturbed simulated-field digest is flagged")
    lines = text.splitlines()
    cols = lines[2].split(",")  # dynamic, first rate, class 1
    cols[3] = "1.5"
    broken = "\n".join(lines[:2] + [",".join(cols)] + lines[3:]) + "\n"
    expect(csv_errors(broken, sweep.config) != [], "a probability above 1 is flagged")
    cols = lines[4].split(",")  # dynamic, first rate, class 3
    cols[3] = "0"
    broken = "\n".join(lines[:4] + [",".join(cols)] + lines[5:]) + "\n"
    expect(csv_errors(broken, sweep.config) != [], "class blocking that decreases with class is flagged")
    sweep.prepare()
    checker = run.Checker(sweep)
    checker.check(None)
    expect(checker.failed == checker.attempted == 1, "a call that writes no CSV fails, though an earlier one did")
    wide = WORKLOADS["sweep_analytic_wide"](7, ROOT, OUT)
    expect(wide.referenced, "sweep_analytic_wide is checked against its reference on any seed")


def check_nesting_detector() -> None:
    spans = [Span(0, None, 1, "main", "cli", 0, 100), Span(1, 0, 1, "run_sweep", "sweep", 50, 150)]
    expect(nesting_errors(spans) != [], "a child span that outlives its parent is flagged")


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "end-to-end names and units match BENCHMARK.json")
    expect(layers == run.PER_LAYER, "per-layer names and units match BENCHMARK.json")


def check_command() -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "sweep_analytic_wide",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    expect(
        result.get("correct") is True and set(result["metrics"]) == set(run.END_TO_END),
        "run.py prints a correct result with every end-to-end metric",
    )


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in [*tiny_sweeps(), tiny_schedule()]:
        check_tiny(workload)
    check_perturbed_references()
    check_nesting_detector()
    check_metric_names()
    check_command()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
