"""dynguard benchmark: run one workload for a fixed time and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep_sim, sweep_analytic_wide, sim_schedule (see README.md in
this directory). Calls run one at a time in this process: a closed loop with
a single client. Each call's output is checked; a failed check or a call
that raises counts in ``failed``.

--trace 0 measures the end-to-end metrics: wall time per call, set-up time
of a fresh interpreter, peak resident memory. --trace 1 alternates untraced
and traced calls (spans around each layer boundary, see tracing.py), then
takes the per-layer timings of micro.py, and reports the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
print every metric with its unit. Results, samples and spans are also
written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, nesting_errors, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_INTERVAL_S = 4.0
# Share of --seconds given to the alternating untraced and traced calls of a
# --trace 1 run; the micro timings take a few seconds more.
TRACE_SHARE = 0.8

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "traffic.observe_ns.m3": "ns",
    "traffic.observe_ns.m5": "ns",
    "traffic.rates_ns.m5": "ns",
    "traffic.thresholds_ns.m3": "ns",
    "traffic.thresholds_ns.m5": "ns",
    "traffic.threshold_changes_per_arrival.m5": "1/arrival",
    "markov.build_chain_ms.n40": "ms",
    "markov.build_chain_ms.n5000": "ms",
    "markov.steady_state_ms.n40": "ms",
    "markov.steady_state_ms.n5000": "ms",
    "markov.blocking_report_ms.n5000": "ms",
    "markov.erlang_b_us.n5000": "us",
    "markov.curve_ms.n40x16": "ms",
    "markov.self_s": "s",
    "markov.calls": "count",
    "simulate.events_per_s.dynamic": "1/s",
    "simulate.events_per_s.fixed": "1/s",
    "simulate.events_per_s.nonpriority": "1/s",
    "simulate.events_per_s.schedule": "1/s",
    "simulate.point_s.p50": "s",
    "simulate.point_s.p90": "s",
    "simulate.self_s": "s",
    "simulate.calls": "count",
    "sweep.self_s": "s",
    "sweep.emit_csv_ms": "ms",
    "sweep.rows": "count",
    "config.load_config_ms": "ms",
    "cli.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "sim_arrivals_per_s": "1/s",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Put the checkout's sources first on the path and import them from there."""
    for rel in ("src/dynguard/__init__.py", "configs/regression.conf"):
        if not (ROOT / rel).is_file():
            fail(f"{rel} is missing: run from a dynguard checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import dynguard

    if Path(dynguard.__file__).resolve().parent != (ROOT / "src" / "dynguard").resolve():
        fail(f"imported dynguard from {dynguard.__file__}, not from this checkout")


def environment() -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "dynguard").glob("*.py")
    )
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_lines": src_lines,
    }


class SetupProbes:
    """Fresh interpreters that import dynguard and load the workload's inputs.

    Probes are spread over the run, one between calls every
    ``PROBE_INTERVAL_S``, so their median averages over the same drift in
    machine speed as the calls; ``finish`` tops them up to ``SETUP_PROBES``.
    The first probe is not counted: it fills the bytecode caches, which
    users pay once, not per run.
    """

    def __init__(self, workload):
        self.cmd = [sys.executable, str(BENCH_DIR / "probe.py"), *workload.probe_args]
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.last = 0.0
        self._probe(count=False)
        self._probe()

    def _probe(self, count: bool = True) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.last = time.perf_counter()
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        if count:
            self.walls.append(self.last - t0)
            self.imports.append(json.loads(proc.stdout)["import_s"])

    def between_calls(self) -> None:
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self._probe()

    def finish(self) -> None:
        while len(self.walls) < SETUP_PROBES:
            self._probe()


class Checker:
    """Counts calls and failed output checks across the phases of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first = None
        self.first_errors: list[str] = []

    def note(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def check(self, result) -> None:
        """Check the first output in full; a later one must equal it, and shares its verdict."""
        try:
            output = self.workload.output(result)
        except OSError as exc:  # the call wrote no output file
            self.note([f"output missing: {exc!r}"])
            return
        if self.first is None:
            self.first = output
            try:
                self.first_errors = self.workload.errors(result, output)
            except (ValueError, IndexError) as exc:  # a malformed field or row
                self.first_errors = [f"output could not be parsed: {exc!r}"]
            self.note(self.first_errors)
        elif output != self.first:
            self.note(["output differs from the first call with the same inputs"])
        else:
            self.attempted += 1
            self.failed += bool(self.first_errors)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, budget_s: float, checker: Checker, probes: SetupProbes, tracers=(None,)):
    """Call the workload in rounds until the next would overrun ``budget_s``; at least one.

    A round makes one call per entry of ``tracers`` (None: untraced), so
    untraced and traced calls alternate and drift in machine speed hits
    both alike. Returns the wall times per entry and the peak resident
    memory right after the first call: later calls add allocator
    fragmentation that depends on how many calls fit, not on the workload.
    """
    walls: list[list[float]] = [[] for _ in tracers]
    first_peak = 0.0
    start = time.perf_counter()
    while True:
        for samples, tracer in zip(walls, tracers):
            workload.prepare()
            gc.collect()
            try:
                with nullcontext() if tracer is None else tracer.installed():
                    if tracer is not None:
                        tracer.call += 1
                    t0 = time.perf_counter()
                    result = workload.call(tracer)
                    samples.append(time.perf_counter() - t0)
            except Exception as exc:  # a crashing call is a failed operation, not a benchmark error
                checker.note([f"call raised {exc!r}"])
                return walls, first_peak
            if not first_peak:
                first_peak = peak_rss_mb()
            checker.check(result)
            del result
        probes.between_calls()
        if time.perf_counter() - start + sum(max(w) for w in walls) > budget_s:
            return walls, first_peak


def tail(walls: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    return f"p{100 * (n - 10) / n:.0f} = {sorted(walls)[n - 11]:.6g} s (n={n})"


def layer_metrics(tracer, untraced: list[float], traced: list[float], workload, first) -> dict:
    by_call: dict[int, list] = {}
    for span in tracer.spans:
        by_call.setdefault(span.call, []).append(span)
    calls = list(by_call.values())
    selfs = [self_times(spans) for spans in calls]
    first_call = calls[0]
    points = sorted(s.duration_ns / 1e9 for s in tracer.spans if s.name == "run_simulation")
    arrivals = sum(s.counts.get("arrivals", 0) for s in first_call)
    emit = [
        sum(s.duration_ns for s in spans if s.name == "emit_csv") / 1e6 for spans in calls
    ]

    def quantile(q):
        if not points:
            return 0.0
        return points[min(len(points) - 1, int(q * len(points)))]

    out = {
        f"{layer}.self_s": statistics.median(s[layer] for s in selfs)
        for layer in ("markov", "simulate", "sweep", "cli")
    }
    out.update(
        {
            "markov.calls": sum(s.layer == "markov" for s in first_call),
            "simulate.calls": sum(s.layer == "simulate" for s in first_call),
            "simulate.point_s.p50": quantile(0.5),
            "simulate.point_s.p90": quantile(0.9),
            "sweep.emit_csv_ms": statistics.median(emit),
            "sweep.rows": workload.rows(first),
            "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
            "sim_arrivals_per_s": arrivals / statistics.median(untraced),
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seed >= 0:
        fail("--seed must be non-negative")

    import_program()
    import micro
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT, OUT_DIR)
    env = environment()
    probes = SetupProbes(workload)
    checker = Checker(workload)

    if args.trace == 0:
        (walls,), peak = measure(workload, args.seconds, checker, probes)
        probes.finish()
        if not walls:
            fail("no call completed: " + "; ".join(checker.errors), 1)
        if checker.attempted == 1 and not workload.referenced:
            checker.note(workload.recheck(checker.first))
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(probes.walls),
            "peak_rss_mb": peak,
        }
        units = END_TO_END
        samples = {"wall_s": walls}
        notes = [f"wall_s tail: {tail(walls)}"]
    else:
        tracer = Tracer()
        (untraced, traced), _ = measure(
            workload, TRACE_SHARE * args.seconds, checker, probes, (None, tracer)
        )
        probes.finish()
        if not untraced or not traced:
            fail("no call completed: " + "; ".join(checker.errors), 1)
        nesting = nesting_errors(tracer.spans)
        if nesting:
            checker.note(nesting)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, untraced, traced, workload, checker.first)
        metrics["setup.import_s"] = statistics.median(probes.imports)
        schedule = WORKLOADS["sim_schedule"](args.seed, ROOT, OUT_DIR).scenario
        metrics.update(micro.simulate_and_traffic(args.seed, schedule))
        metrics.update(micro.markov_and_config(ROOT / "configs" / "regression.conf"))
        units = PER_LAYER
        samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
        notes = [f"spans: {len(tracer.spans)} over {len(traced)} traced calls"]

    ratio = checker.failed / checker.attempted
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>14.6g} {unit}")
    print(f"{'failed_ops_ratio':<44} {ratio:>14.6g} ({checker.failed} of {checker.attempted})")
    for note in notes:
        print(f"# {note}")
    reference = "committed reference" if workload.referenced else "invariants and repeat runs"
    print(f"# output check ({reference}): " + ("ok" if not checker.failed else "FAILED"))
    for error in checker.errors[:10]:
        print(f"#   {error}")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    samples["setup_s"] = probes.walls
    record = dict(result, env=env, samples=samples, failed_ops_ratio=ratio, errors=checker.errors)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
