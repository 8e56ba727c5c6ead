"""Benchmark for sudokugraph: exact sn search, graph-class scan and Sudoku
puzzle classification, with per-layer tracing recorded from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sn-sparse --seed 1 --seconds 20 --trace 0

Workloads (item sets in workloads.py):
  sn-sparse  sn_exact on low-degree graphs, where subset pruning dominates
  sn-dense   sn_exact on clique cycles and the 4x4 grid, where the
             extension engine dominates
  scan       conjecture_scan at bounds 4, 5 and 6, where isomorph
             rejection dominates
  puzzles    90 pinned 9x9 puzzles through cli.main(["sudoku", ...])

Everything runs in this one process and starts no pool or thread. No item
passes a worker count, so every call uses one worker and the benchmark does
not depend on the --workers option. A pass calls every item once in a
seeded order. Passes repeat until --seconds have elapsed (at least two).
Each output is checked against a reference that does not come from the
search, outside the timed region.

Times are CPU seconds of this thread, scaled to a reference host speed
measured during the same pass (see hostspeed.py); on a shared host the raw
CPU time of fixed work drifts by a quarter or more between runs.

--trace 0 prints the end-to-end metrics: wall_s (median pass time);
item_geomean_s, item_p50_s and item_p90_s (geometric mean, median and 90th
percentile over the items of each item's median time; on puzzles nine
items, each with two or more passes, lie beyond the 90th percentile);
setup_s (median of several imports of the package plus input builds) and
peak_rss_mb. A failed item (it raised, hit its budget, or answered wrong)
counts in "failed"; failed/attempted is the failure ratio.

--trace 1 runs untraced passes for --seconds, then two traced passes, and
prints the per-layer metrics. Their counts must match exactly between the
two traced passes. Span durations are wall-clock seconds and are not
scaled; trace.overhead_ratio compares scaled traced and untraced pass times.
The spans of the last traced pass are written to
.bench_out/<workload>.spans.tsv.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Per-item median times go to stderr. Exit code 2
means the program could not be loaded and no result was printed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "sudokugraph"
MODULES = ("cli", "coloring", "extension", "generators", "io", "sn", "theorems")
SPAN_DIR = ROOT / ".bench_out"

MIN_PASSES = 2
SETUP_REPEATS = 15
# Start no pass that would end after this many seconds of measuring, so a
# slow regression still lets the run exit well inside its time limit.
RUN_CAP_S = 110.0

_now = time.perf_counter


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_package() -> SimpleNamespace:
    """Import sudokugraph afresh, so that import time is measured each time."""
    for name in [m for m in sys.modules if m.split(".")[0] == "sudokugraph"]:
        del sys.modules[name]
    importlib.import_module("sudokugraph")
    return SimpleNamespace(
        **{m: importlib.import_module(f"sudokugraph.{m}") for m in MODULES}
    )


def build_items(sg, workload: str, seed: int) -> list:
    items = workloads.WORKLOADS[workload](sg)
    random.Random(seed).shuffle(items)
    return items


def set_up(workload: str, seed: int, speed: HostSpeed):
    """Median scaled set-up time over SETUP_REPEATS fresh imports plus input builds."""
    times = []
    start = len(speed.samples)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = speed.clock()
        sg = load_package()
        items = build_items(sg, workload, seed)
        times.append(speed.clock() - t0)
    return sg, items, statistics.median(times) * speed.factor(start)


def run_pass(items, clock, tracer=None):
    """Call every item once; returns per-item CPU seconds and outputs."""
    gc.collect()
    times, outputs = [], []
    for item in items:
        t0 = clock()
        try:
            if tracer is None:
                out = item.call()
            else:
                out = tracer.span("item", item.call)
        except Exception as exc:  # a failed item must not stop the run
            out = exc
        times.append(clock() - t0)
        outputs.append(out)
        if isinstance(out, Exception):
            log("".join(traceback.format_exception(out)).rstrip())
    return times, outputs


def scaled_pass(items, speed: HostSpeed, tracer=None):
    """run_pass with each time scaled by the host speed seen during the pass."""
    start = len(speed.samples)
    times, outputs = run_pass(items, speed.clock, tracer)
    factor = speed.factor(start)
    return [t * factor for t in times], outputs


def count_failures(items, outputs) -> int:
    failed = 0
    for item, out in zip(items, outputs):
        reason = f"raised {out!r}" if isinstance(out, Exception) else item.check(out)
        if reason is not None:
            failed += 1
            log(f"FAILED {item.name}: {reason}")
    return failed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, items, outputs) -> None:
        self.attempted += len(items)
        self.failed += count_failures(items, outputs)


def measure(items, seconds: float, reserve: int, speed: HostSpeed, tally: Tally):
    """Untraced passes until `seconds` have elapsed.

    Returns the per-pass item times. ``reserve`` is the number of pass
    lengths (traced passes run slower) kept free under RUN_CAP_S for work
    after these passes.
    """
    passes: list[list[float]] = []
    begin = _now()
    while True:
        times, outputs = scaled_pass(items, speed)
        passes.append(times)
        tally.add(items, outputs)
        elapsed = _now() - begin
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            return passes
        if elapsed * (1 + (1 + reserve) / len(passes)) > RUN_CAP_S:
            log(f"stopped after {len(passes)} passes at the {RUN_CAP_S} s run cap")
            return passes


def end_to_end(passes, items, setup_s: float) -> dict:
    # Per-item statistics describe each item's median over the passes. A
    # percentile of the pooled samples would jump whenever one noisy sample
    # crosses a gap between two items' times.
    per_item = [statistics.median(p[i] for p in passes) for i in range(len(items))]
    p90 = per_item[0]
    if len(per_item) > 1:
        p90 = statistics.quantiles(per_item, n=10, method="inclusive")[-1]
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "item_geomean_s": math.exp(statistics.fmean(math.log(t) for t in per_item)),
        "item_p50_s": statistics.median(per_item),
        "item_p90_s": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(sg, items, workload, seed, untraced_wall, speed, tally: Tally) -> dict:
    modules = vars(sg)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        tracer.span("setup", build_items, sg, workload, seed)
        generators_s = tracer.summary().get("generators", {}).get("s", 0.0)
        runs = []
        for _ in range(2):
            tracer.reset()
            times, outputs = scaled_pass(items, speed, tracer)
            tally.add(items, outputs)
            runs.append((sum(times), tracing.layer_metrics(tracer.summary(), tracer.counts)))
    finally:
        tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(str(SPAN_DIR / f"{workload}.spans.tsv"))

    (wall_a, first), (wall_b, second) = runs
    for name in tracing.COUNT_METRICS:
        if first[name] != second[name]:
            tally.problems.append(f"count {name} differs: {first[name]} vs {second[name]}")
    metrics = {
        name: first[name] if name in tracing.COUNT_METRICS else (first[name] + second[name]) / 2
        for name in first
    }
    metrics["generators.s"] = generators_s
    metrics["trace.overhead_ratio"] = (wall_a + wall_b) / 2 / untraced_wall
    metrics["trace.absent_hooks"] = len(tracer.absent)
    for hook in tracer.absent:
        log(f"hook {hook} is absent; its metrics read zero")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_s", ".s")):
        return "s"
    if "ratio" in name or name.startswith("share."):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        log(f"error: no sudokugraph package at {PACKAGE_DIR}")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    tally = Tally()
    with HostSpeed() as speed:
        try:
            sg, items, setup_s = set_up(args.workload, args.seed, speed)
        except (ImportError, OSError, ValueError) as exc:
            log(f"error: cannot set up {args.workload}: {exc!r}")
            return 2
        passes = measure(items, args.seconds, 3 if args.trace else 0, speed, tally)
        log(
            f"{args.workload} seed={args.seed} items={len(items)} passes={len(passes)} "
            f"host-speed scale={speed.factor():.4f} ({len(speed.samples)} samples) "
            f"nproc={os.cpu_count()} python={platform.python_version()}"
        )
        for i, item in enumerate(items):
            log(f"  {item.name}: median {statistics.median(p[i] for p in passes):.6f} s")
        e2e = end_to_end(passes, items, setup_s)
        log(" ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
        values = e2e
        if args.trace:
            values = traced_metrics(
                sg, items, args.workload, args.seed, e2e["wall_s"], speed, tally
            )
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    for problem in tally.problems:
        log(f"PROBLEM {problem}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
