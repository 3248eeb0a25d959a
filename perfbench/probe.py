"""Set-up probe, run in a fresh interpreter: import dynguard, load one workload's inputs.

    python3 perfbench/probe.py config FILE
    python3 perfbench/probe.py schedule SPEC SEED

Prints one JSON object with ``import_s`` and ``load_s``.
"""

import json
import sys
import time
from pathlib import Path

bench_dir = Path(__file__).resolve().parent
sys.path[:0] = [str(bench_dir.parent / "src"), str(bench_dir)]

t0 = time.perf_counter()
import dynguard  # noqa: E402

t1 = time.perf_counter()
if sys.argv[1] == "config":
    dynguard.load_config(sys.argv[2])
else:
    from workloads import schedule_scenario  # noqa: E402

    schedule_scenario(json.loads(Path(sys.argv[2]).read_text()), int(sys.argv[3]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
