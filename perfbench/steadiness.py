#!/usr/bin/env python3
"""Run workloads on several seeds and report how steady each end-to-end metric is.

    python3 perfbench/steadiness.py --seeds 101-110 [--workloads delta_grid,...] \
        > perfbench/results/steadiness.json

For each metric it reports the median over the runs and the spread: the
distance between the first and third quartile as a share of the median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them.  A benchmark
is steady when every spread except that of ``setup_s`` stays within the
metric's bound in BENCHMARK.json; the aim is a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import run
import stats


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="a range such as 101-110 or a list such as 1,5,9")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in names:
        values, seconds, correct = {}, [], True
        for seed in args.seeds:
            start = time.monotonic()
            done = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True, cwd=run.ROOT)
            seconds.append(time.monotonic() - start)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            correct = correct and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {seconds[-1]:.1f} s, correct={result['correct']}",
                  file=sys.stderr)
        entry = {"seeds": args.seeds, "all_correct": correct,
                 "run_seconds_median": stats.median(seconds), "run_seconds_max": max(seconds),
                 "metrics": {}}
        for name, vals in values.items():
            q1, q2, q3 = stats.quartiles(vals)
            entry["metrics"][name] = {"median": q2, "q1": q1, "q3": q3,
                                      "spread": (q3 - q1) / q2, "bound": bounds[name],
                                      "values": vals}
            print(f"  {name:14s} median {q2:.5g}  spread {(q3 - q1) / q2:.3f}  "
                  f"bound {bounds[name]}", file=sys.stderr)
        report[workload] = entry
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
