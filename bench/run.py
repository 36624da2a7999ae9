"""Seeded, single-process, closed-loop benchmark of the oddholes library.

    python3 bench/run.py --workload members --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  One caller on one thread sends
the next op when the previous one has returned.  Each op's answer is
checked against an independent reference (``reference.py``) outside the
timed region.  The run proceeds in whole rounds of the workload's fixed mix
and stops at the first round boundary after ``--seconds`` of timed op time.
Op timings are scaled to the baseline machine's speed (``speed.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op of
the workload's fixed op set once untraced and once traced, prints the
per-layer metrics and writes the spans to ``bench/out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in a
child process of its own, one after another.  ``--workload overcap`` runs
the members op on members above the exact oracle's 64-vertex cap, where
``verify_graph`` fails with ``OracleCapExceeded`` (a known defect); its
``fail_ratio`` is above 0 by design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import INTERVAL_S, REFERENCE_S, calibrate

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# ``overcap`` is not in BENCHMARK.json: it shows a known defect, so its ops
# fail by design, and it is run by hand or through ``--workload all``.
WORKLOAD_NAMES = ("members", "rejects", "chromatic", "levelling", "overcap")
SETUP_REPEATS = 9

VERIFY_PROPERTIES = (
    "bipartite_iff_no_5_or_7_hole", "attachment_profiles_single_or_pair",
    "second_sphere_bipartite", "filtered_third_sphere_bipartite", "third_sphere_chi_le_7",
    "last_level_chi_le_104", "chi_le_1456_certified", "four_coloring_within_4",
    "weak_stable_extraction_inequality", "chi_le_12ell_plus_8", "contained_in_looser_classes",
)
VERIFY_STATUSES = ("pass", "fail", "skip", "timeout", "error")

# Span name -> the per-layer self-time metric it feeds.
SPAN_METRICS = {
    "graph.parse_graph6": "graph.parse_s",
    "graph.to_graph6": "graph.encode_s",
    "holes.class_membership": "holes.membership_s",
    "holes.witness_violates": "holes.witness_check_s",
    "generate.generate_member": "generate.member_s",
    "verify.verify_graph": "verify.graph_s",
    "exact.chromatic_number": "exact.chromatic_s",
    "coloring.dsatur": "coloring.dsatur_s",
    "levelling.ceiling_path": "levelling.ceiling_path_s",
    "levelling.floor_path": "levelling.floor_path_s",
    "levelling.find_licking": "levelling.find_licking_s",
    "levelling.weak_stabilize": "levelling.weak_stabilize_s",
}

# Per-layer metrics of the traced run: (name, unit, end-to-end metric and
# workload it should move).
LAYER_METRICS = (
    [
        ("graph.parse_s", "s", "latency_p50_ms on rejects"),
        ("graph.parse_bytes", "bytes", "latency_p50_ms on rejects"),
        ("graph.encode_s", "s", "ops_per_s on members"),
        ("holes.membership_s", "s", "latency_tail_ms on rejects"),
        ("holes.membership_calls", "count", "latency_tail_ms on rejects"),
        ("holes.search_checks", "count", "latency_tail_ms on rejects"),
        ("holes.witness_check_s", "s", "latency_p50_ms on rejects"),
        ("generate.member_s", "s", "ops_per_s on members"),
        ("generate.attempts", "count", "ops_per_s on members"),
        ("generate.accept_ratio", "ratio", "ops_per_s on members"),
        ("generate.search_checks", "count", "ops_per_s on members"),
        ("verify.graph_s", "s", "ops_per_s and fail_ratio on members"),
    ]
    + [(f"verify.prop.{p}_s", "s", "ops_per_s on members") for p in VERIFY_PROPERTIES]
    + [(f"verify.status.{s}", "count", "fail_ratio on members") for s in VERIFY_STATUSES]
    + [
        ("exact.chromatic_s", "s", "ops_per_s and latency_tail_ms on chromatic"),
        ("exact.calls", "count", "ops_per_s and latency_tail_ms on chromatic"),
        ("exact.search_checks", "count", "ops_per_s and latency_tail_ms on chromatic"),
        ("exact.dsatur_gap", "count", "ops_per_s and latency_tail_ms on chromatic"),
        ("coloring.dsatur_s", "s", "latency_p50_ms on chromatic"),
        ("levelling.ceiling_path_s", "s", "ops_per_s and latency_tail_ms on levelling"),
        ("levelling.floor_path_s", "s", "ops_per_s and latency_tail_ms on levelling"),
        ("levelling.find_licking_s", "s", "ops_per_s and latency_tail_ms on levelling"),
        ("levelling.weak_stabilize_s", "s", "ops_per_s and latency_tail_ms on levelling"),
        ("levelling.search_checks", "count", "ops_per_s and latency_tail_ms on levelling"),
        ("levelling.path_found_ratio", "ratio", "ops_per_s and latency_tail_ms on levelling"),
        ("levelling.licking_found_ratio", "ratio", "ops_per_s and latency_tail_ms on levelling"),
        ("trace.overhead_ratio", "ratio", "none: bounds what the trace can explain"),
    ]
)


def import_library():
    """Put the checkout's ``src`` first on the path and import from there."""
    package = SRC / "oddholes"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: library sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import oddholes

    if Path(oddholes.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported oddholes from {oddholes.__file__}, not {package}")


def setup(workload: str, seed: int):
    """Import the library and build the first round of inputs."""
    t0 = perf_counter()
    import_library()
    import workloads

    wl = workloads.WORKLOADS[workload]
    first = wl.build_round(seed, 0)
    return perf_counter() - t0, wl, first


def setup_seconds(workload: str, seed: int, own: float) -> list[float]:
    """Set-up times of fresh processes, plus this process's own."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


class Tally:
    """Outcomes of a sequence of ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # successful ops only
        self.timed = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()  # failure kind -> count
        self.examples: dict[str, str] = {}  # failure kind -> first message
        self.wrong = 0

    def run_op(self, op, check, item) -> None:
        t0 = perf_counter()
        try:
            out, error = op(item), None
        except Exception as exc:  # an undocumented outcome: record it and go on
            out, error = None, exc
        dt = perf_counter() - t0
        self.timed += dt
        self.attempted += 1
        if error is not None:
            self._fail(type(error).__name__, str(error))
            return
        reason = check(item, out) if check else None
        if reason is not None:
            self._fail("wrong answer", reason)
            self.wrong += 1
            return
        self.latencies.append(dt)

    def _fail(self, kind: str, message: str) -> None:
        self.failures[kind] += 1
        self.examples.setdefault(kind, message)

    def describe_failures(self) -> str:
        return ", ".join(
            f"{kind} x{count} (first: {self.examples[kind]})"
            for kind, count in sorted(self.failures.items())
        ) or "none"

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def tail(latencies: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile, and the number of samples beyond it."""
    rank = math.ceil(p / 100 * len(latencies))
    return sorted(latencies)[rank - 1], len(latencies) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def machine_line() -> str:
    return f"machine: nproc={os.cpu_count()} python={platform.python_version()} {platform.machine()}"


def timed_run(args, wl, first, setup_samples) -> dict:
    from tracing import PlainContext

    ctx = PlainContext()
    tally = Tally()
    round_ops, round_seconds = [], []  # correct ops and timed seconds per round
    kernel_s, calibrated_at = [calibrate()], 0.0
    while tally.timed < args.seconds:
        done, timed = len(tally.latencies), tally.timed
        for item in first if not round_ops else wl.build_round(args.seed, len(round_ops)):
            if tally.timed - calibrated_at >= INTERVAL_S:
                kernel_s.append(calibrate())
                calibrated_at = tally.timed
            tally.run_op(lambda item: wl.op(ctx, item), wl.check, item)
        round_ops.append(len(tally.latencies) - done)
        round_seconds.append(tally.timed - timed)
    kernel_s.append(calibrate())
    ok = tally.latencies
    if not ok:
        sys.exit(f"error: no op of workload {wl.name} succeeded: {tally.describe_failures()}")
    # Op times are scaled to the baseline machine's median speed (speed.py).
    scale = REFERENCE_S / statistics.median(kernel_s)
    p = wl.tail_percentile
    tail_value, beyond = tail(ok, p)
    if beyond < 10:
        print(f"warning: only {beyond} ops beyond p{p:g}; latency_tail_ms is not steady")
    rates = [n / (t * scale) for n, t in zip(round_ops, round_seconds)]
    raw = f"raw {{:.4g}}, speed scale {scale:.3f}"
    metrics = {
        # Set-ups run in other processes, before the calibrations: unscaled.
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} set-ups, not scaled"),
        "ops_per_s": (statistics.median(rates), "1/s",
                      f"median of {len(rates)} rounds; {len(ok)} correct ops in {tally.timed:.2f} s "
                      f"timed; " + raw.format(statistics.median(rates) * scale)),
        "latency_p50_ms": (1000 * scale * statistics.median(ok), "ms",
                           f"n={len(ok)}; " + raw.format(1000 * statistics.median(ok))),
        "latency_tail_ms": (1000 * scale * tail_value, "ms",
                            f"p{p:g}, n={len(ok)}, {beyond} beyond; " + raw.format(1000 * tail_value)),
        "peak_rss_mb": (peak_rss_mb(), "MB", "whole process"),
    }
    print(f"workload {wl.name}  seed {args.seed}  attempted {tally.attempted}  "
          f"rounds {len(rates)}  speed calibrations {len(kernel_s)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<16} {value:>12.4f} {unit:<4} ({note})")
    ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':<16} {ratio:>12.4f} {'':<4} "
          f"({tally.failed}/{tally.attempted}: {tally.describe_failures()})")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def traced_run(args, wl, first) -> dict:
    from tracing import PlainContext, TracedContext

    items = list(first)
    for r in range(1, wl.trace_rounds):
        items += wl.build_round(args.seed, r)
    # Each op runs untraced and then traced, back to back, so that warm-up
    # and drift fall on both sides of trace.overhead_ratio alike.
    plain_ctx, ctx = PlainContext(), TracedContext()
    plain, traced = Tally(), Tally()
    for op_id, item in enumerate(items):
        plain.run_op(lambda item: wl.op(plain_ctx, item), None, item)
        ctx.op_id = op_id
        traced.run_op(lambda item: ctx.call(f"op.{wl.name}", wl.op, ctx, item), wl.check, item)
    values = dict.fromkeys((name for name, _, _ in LAYER_METRICS), 0)
    self_times = ctx.self_times()
    for span, (self_s, _) in self_times.items():
        if span in SPAN_METRICS:
            values[SPAN_METRICS[span]] = self_s
    values["holes.membership_calls"] = self_times.get("holes.class_membership", (0, 0))[1]
    values.update((k, v) for k, v in ctx.counters.items() if k in values)
    values.update(ctx.search_checks())
    c = ctx.counters
    values["generate.accept_ratio"] = _ratio(c["generate.added"], c["generate.attempts"])
    values["levelling.path_found_ratio"] = _ratio(c["levelling.paths_found"], c["levelling.path_calls"])
    values["levelling.licking_found_ratio"] = _ratio(c["levelling.lickings_found"], c["levelling.licking_calls"])
    values["trace.overhead_ratio"] = traced.timed / plain.timed
    spans_path = BENCH / "out" / f"spans-{wl.name}-seed{args.seed}.json"
    ctx.dump(spans_path)
    print(f"workload {wl.name}  seed {args.seed}  traced ops {len(items)} ({wl.trace_rounds} rounds)")
    print(f"  spans: {len(ctx.spans)} written to {spans_path.relative_to(BENCH.parent)}")
    for name, unit, moves in LAYER_METRICS:
        print(f"  {name:<48} {values[name]:>14.6g} {unit:<6} moves {moves}")
    print(f"  failures: {traced.describe_failures()}")
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {
        "correct": traced.wrong == 0,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        *report, last = out.stdout.splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    own, wl, first = setup(args.workload, args.seed)
    if args.setup_only:
        print(f"{own!r}")
        return 0
    import networkx  # noqa: F401  (the checks use it; importing it now keeps peak RSS alike across runs)

    print(machine_line())
    if args.trace:
        result = traced_run(args, wl, first)
    else:
        result = timed_run(args, wl, first, setup_seconds(args.workload, args.seed, own))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
