#!/usr/bin/env python3
"""Re-measure the ROADMAP "Measured baseline" rows through the benchmark harness.

    python3 perfbench/baseline.py > perfbench/results/roadmap-baseline.json

Each command of the table runs once, verbatim, as a fresh ``python -m
ngphase`` process (wall, CPU, max RSS, involuntary context switches).  The
rows that the table splits by layer (the oracle ``sweep`` and ``verify``)
are also run once in-process under the span tracer of ``run.py --trace 1``.
These are single runs, like the table they reproduce; the gated figures are
the ones ``run.py`` prints.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run

ROWS = [
    ["overlap", "--family", "fock", "--n", "1", "--delta-max", "3", "--steps", "300"],
    ["parity", "--alpha", "3", "--eta", "0.9"],
    ["sweep", "--family", "cat", "--alpha", "2", "--eta", "0.9", "--axis", "alpha",
     "--grid", "0.5", "4", "200", "--oracle"],
    ["figure", "--id", "3"],
    ["figure", "--id", "4"],
    ["figure", "--id", "6"],
    ["evaluate", "--family", "fock", "--n", "1", "--eta", "0.98", "--phi", "1.01e-3"],
    ["verify", "--grid", "full"],
]
TRACED = (2, 7)  # the rows the table splits by layer
SUITE = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SUITE_TIMEOUT_S = 900.0


def cold(child: dict) -> dict:
    return {k: child[k] for k in ("code", "wall", "cpu", "rss_kb", "nivcsw")}


def main() -> int:
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    run.import_seconds(env)  # writes bytecode caches
    child = run.spawn(SUITE, env, timeout=SUITE_TIMEOUT_S)
    record = {"rows": [{"command": "pytest -q --continue-on-collection-errors",
                        "summary": child["stdout"].strip().splitlines()[-1], **cold(child)}]}
    for module in ("ngphase", "scipy.linalg"):
        record["rows"].append({"command": f"import {module}",
                               "import_s": run.import_seconds(env, module)})
    worker = run.Worker(env)
    try:
        info = worker.request("hello")
        for index, argv in enumerate(ROWS):
            row = {"command": " ".join(argv),
                   **cold(run.spawn([sys.executable, "-m", "ngphase", *argv], env))}
            if index in TRACED:
                traced = worker.request("trace", commands=[argv])
                metrics = traced["metrics"]
                pass_s = metrics["trace.pass_s"]
                row["traced_pass_s"] = pass_s
                row["self_share"] = {k[:-len(".self_s")]: v / pass_s
                                     for k, v in metrics.items()
                                     if k.endswith(".self_s") and v / pass_s >= 0.005}
                checks = {k[len("verification.check_s."):]: v for k, v in metrics.items()
                          if k.startswith("verification.check_s.")}
                if checks:
                    row["check_s"] = checks
            record["rows"].append(row)
    finally:
        worker.close()
    record["environment"] = run.environment(
        argparse.Namespace(workload="roadmap-baseline", seed=None, seconds=None, trace=None),
        info)
    record["environment"]["date_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
