"""Host-time benchmark of rmrsim: one workload per process.

    python3 perfbench/run.py --workload sim|enum|drill --seed N --seconds S --trace 0|1

Runs passes of the workload for S seconds, and at least MIN_PASSES of them,
checks every output, prints a table, and ends with one JSON line.  With
``--trace 0`` the line holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run, timed by wrapping the
program's public functions from here.  The program is imported from
``src/`` next to this directory; without it the benchmark exits 2.

Times are host seconds scaled to a reference host speed that is sampled
while they are measured (see ``speed.py``); the table also shows each
pass's unscaled time and its scale.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
SETUP_REPEATS = 7


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fresh_setup(workload: str, seed: int):
    """Import the program and the benchmark glue from scratch and build the
    workload's inputs; this is what ``setup_s`` times."""
    for name in list(sys.modules):
        if name in ("rmrsim", "workloads") or name.startswith("rmrsim."):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    return workloads, workloads.WORKLOADS[workload](seed)


def measure(workloads, workload, probe, seconds: float, min_passes: int, seen: dict,
            after_pass):
    """Run passes until the time is up.  A unit met before must give the
    output it gave then; a difference counts as a failed item."""
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        units = workload.pass_units(len(passes))
        # The benchmark's own records are not the program's garbage, so
        # collections during the pass do not scan them.
        gc.collect()
        gc.freeze()
        t0 = perf_counter()
        result = workloads.run_pass(workload, units)
        result.scale = probe.scale(t0, perf_counter())
        gc.unfreeze()
        for unit, output in zip(units, result.outputs):
            if seen.setdefault(unit, output) != output:
                result.failed += 1
        passes.append(result)
        after_pass()
    return passes


def end_to_end(passes, probe, setups, rss_mb: float) -> dict:
    # An item met in several passes takes its median time, so that a
    # collection or an interrupt in one pass does not count.
    samples: dict = {}
    for p in passes:
        for item, start, end in p.spans:
            samples.setdefault(item, []).append((end - start) * probe.scale(start, end))
    latency = {item: statistics.median(times) for item, times in samples.items()}
    # A pass's time is the sum of its items' times.
    walls = [sum(latency[item] for item, _, _ in p.spans) for p in passes]
    # The highest percentile up to p99 with at least ten items beyond it.
    tail = min(0.99, 1 - 10 / len(latency))
    print(f"{len(latency)} distinct items; item_p99_ms is their p{tail * 100:.3g}; "
          f"a pass has {statistics.median(p.steps for p in passes):g} output steps")
    setup = statistics.median((end - start) * probe.scale(start, end) for start, end in setups)
    return {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "sim_steps_per_s": (sum(p.steps for p in passes) / sum(walls), "1/s"),
        "item_p50_ms": (statistics.median(latency.values()) * 1e3, "ms"),
        "item_p99_ms": (percentile(latency.values(), tail) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workloads, workload, probe, package, seconds: float) -> tuple[dict, list]:
    """A third of the time untraced, the rest traced.  Traced outputs must
    equal untraced ones.  Counts and self times are those of the first
    traced pass."""
    seen: dict = {}
    untraced = measure(workloads, workload, probe, seconds / 3, 1, seen, lambda: None)
    tracer = tracing.Tracer(package)
    marks = [tracer.snapshot()]
    tracer.install()
    try:
        traced = measure(workloads, workload, probe, seconds * 2 / 3, 1, seen,
                         lambda: marks.append(tracer.snapshot()))
    finally:
        tracer.uninstall()
    first = traced[0]
    metrics = {}
    for name, value in marks[1].items():
        if name.endswith(".self_s"):
            metrics[name] = (value * first.scale, "s")
        else:
            metrics[name] = (value, "count")
    metrics["runner.amplification"] = (marks[1]["runner.step.calls"] / first.steps, "ratio")
    metrics["trace.overhead"] = (
        first.seconds * first.scale / statistics.median(p.seconds * p.scale for p in untraced),
        "ratio")
    return metrics, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sim", "enum", "drill"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rmrsim" / "__init__.py").is_file():
        print(f"error: the program's source {SRC / 'rmrsim'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    rss = []

    def timed_setup():
        gc.collect()  # the previous copy's garbage is not this set-up's cost
        t0 = perf_counter()
        loaded = fresh_setup(args.workload, args.seed)
        setups.append((t0, perf_counter()))
        return loaded

    def after_pass():
        # Peak memory once the program has run every item, before the
        # benchmark's own records grow with more passes.
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        # Set-up is timed again after each pass, so that its median spans
        # the whole run.  The passes keep the modules loaded first.
        timed_setup()

    with speed.SpeedProbe() as probe:
        workloads, workload = timed_setup()
        package = sys.modules["rmrsim"]
        if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: rmrsim was imported from {package.__file__}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, passes = per_layer(workloads, workload, probe, package, args.seconds)
            notes = tracing.NOTES
        else:
            passes = measure(workloads, workload, probe, args.seconds, MIN_PASSES, {},
                             after_pass)
            while len(setups) < SETUP_REPEATS:
                timed_setup()
            metrics = end_to_end(passes, probe, setups, rss[0])
            notes = {}

    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"items {attempted}  failed {failed}  fail_ratio {failed / attempted:.6g}")
    print("pass host seconds:", " ".join(f"{p.seconds:.3f}" for p in passes))
    print("scale to reference:", " ".join(f"{p.scale:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:14.6g} {unit:6} {notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
