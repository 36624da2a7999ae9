"""Self-test of the benchmark: work counters repeat exactly, names agree.

    python3 bench/selftest.py [--seed 7]

For every workload it makes a one-second timed run and two traced runs at
one seed, each in a fresh process, and asserts that every counted per-layer metric (``*.search_checks``,
call and attempt counts, verify statuses, parsed bytes) is identical, that
every traced answer checked out, and that the metric names printed match
``BENCHMARK.json``.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Counts made by the library's own searches or by the benchmark's tally of
# library results; times and the overhead ratio are excluded.
EXACT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, trace: int, seconds: float = 1.0) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--seconds", str(seconds)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    end_to_end_names = {m["name"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        if set(run(workload, args.seed, trace=0)["metrics"]) != end_to_end_names:
            print(f"{workload}: timed metrics differ from BENCHMARK.json end_to_end")
            ok = False
        first, second = run(workload, args.seed, trace=1), run(workload, args.seed, trace=1)
        if set(first["metrics"]) != layer_names:
            print(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
            ok = False
        counted = sorted(k for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS)
        diff = [k for k in counted if first["metrics"][k] != second["metrics"][k]]
        checks = {k: first["metrics"][k]["value"] for k in counted if k.endswith(".search_checks")}
        print(f"{workload}: {len(counted)} counters compared, search checks {checks}")
        if diff:
            print(f"{workload}: counters differ between two runs at seed {args.seed}: {diff}")
            ok = False
        if not (first["correct"] and second["correct"]):
            print(f"{workload}: an answer check failed")
            ok = False
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
