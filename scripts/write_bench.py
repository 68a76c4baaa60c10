"""Write ``BENCH_<n>.json``: a parent tree against a change tree, measured
by each tree's own ``perfbench/run.py``.

    python3 scripts/write_bench.py --parent PARENT --change CHANGE --out BENCH_32.json \
        [--workloads sim,enum,drill] [--pairs 10] [--traced 3] [--seed 201] [--seconds 20]

PARENT and CHANGE are checkouts of the repository, e.g. a clone of the
parent commit and the working tree.  Per workload, the script runs
``--pairs`` untraced pairs, pair ``i`` at seed ``seed + i`` with the two
trees in turn first, then ``--traced`` runs of ``--trace 1`` per tree,
alternating.  The runs are sequential, so that no two share the host.

The file holds each tree's commit, the seeds, the seconds and a machine
note; every run's end-to-end metrics and verdict; per end-to-end metric
each side's median and quartiles and the pairs the change won; and per
per-layer metric each side's median over its traced runs.  The metric
names, units and directions come from the change tree's BENCHMARK.json.
A run that fails or prints no JSON line stops the script with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def tree_note(tree: Path) -> dict:
    """The tree's commit and whether it has uncommitted changes; None for
    both outside a git checkout."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the tree's own benchmark: its last line, parsed."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode != 0:
            raise ValueError(f"exit {done.returncode}")
        line = json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        raise SystemExit(f"{tree} {workload} seed {seed} trace {trace}: {exc}\n"
                         f"{done.stderr.strip()}") from None
    return {
        "seed": seed,
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles; one value is all three."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_won": won,
            "median_change_pct": 100 * (change["median"] / parent["median"] - 1)
            if parent["median"] else None,
        }
    return out


def per_layer(traced: dict, units: dict) -> dict:
    return {name: {"unit": units.get(name),
                   **{side: statistics.median(run["metrics"][name] for run in traced[side])
                      for side in SIDES}}
            for name in traced["parent"][0]["metrics"]}


def measure(trees: dict, workload: str, args, spec: dict) -> dict:
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench(trees[side], workload, seed, args.seconds, 0)
            print(f"{workload} pair {i} {side}: wall_s {pair[side]['metrics']['wall_s']:.4g}",
                  file=sys.stderr)
        pairs.append(pair)
    traced = {side: [] for side in SIDES}
    for i in range(args.traced):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            traced[side].append(bench(trees[side], workload, args.seed + i, args.seconds, 1))
    runs = [p[side] for p in pairs for side in SIDES] + traced["parent"] + traced["change"]
    return {
        "seeds": [p["seed"] for p in pairs],
        "correct": all(run["correct"] and run["failed"] == 0 for run in runs),
        "pairs": pairs,
        "end_to_end": summarize(pairs, spec["end_to_end"]),
        "traced": traced,
        "per_layer": per_layer(traced, {m["name"]: m["unit"] for m in spec["per_layer"]})
        if args.traced else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default="sim,enum,drill")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--seed", type=int, default=201)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.traced < 0 or args.seconds <= 0:
        parser.error("--pairs must be at least 1, --traced at least 0, --seconds positive")
    trees = {side: getattr(args, side).resolve() for side in SIDES}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "trees": {side: tree_note(tree) for side, tree in trees.items()},
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "seconds": args.seconds,
        "pairs": args.pairs,
        "traced_runs": args.traced,
        "workloads": {w: measure(trees, w, args, spec)
                      for w in args.workloads.split(",")},
    }
    record["correct"] = all(w["correct"] for w in record["workloads"].values())
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
