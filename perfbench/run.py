#!/usr/bin/env python3
"""ngphase benchmark: cold-CLI and warm-library cost of the closed-form and oracle routes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload delta_grid --seed 1 --seconds 24 --trace 0

One closed-loop client runs the workload's commands one after another.
With ``--trace 0`` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a
separate traced pass.  The program under test is ``src/ngphase`` of the
checkout, run exactly as a user would: the benchmark sets no BLAS or OpenMP
thread variables, and records the thread count it found.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
import workloads
from outputs import check_output, comparable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A run repeats one cycle (a set-up sample, a cold pass, warm passes) so that
# the samples of every metric are spread over the whole measuring window.
MIN_SETUP_SAMPLES = 5
# Warm passes are cheaper than cold ones; a cycle repeats them while the
# next one is expected to end within this share of the cycle's cold pass.
WARM_SHARE = 1.0
MIN_CYCLES = 3
# No cycle starts after this many seconds, even below the minimum, and no
# process or worker request may take longer than the timeout: a run must end
# within 180 s however slow the program has become.
HARD_STOP_S = 90.0
TIMEOUT_S = 60.0
class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failing command)."""


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict[str, str], timeout: float = TIMEOUT_S) -> dict:
    """Run one process to completion; wall time, rusage and its output."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "nivcsw": usage.ru_nivcsw,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text()[-2000:],
    }


class Worker:
    """The in-process side (worker.py), driven one JSON line at a time."""

    def __init__(self, env: dict[str, str]):
        self.err = open(OUT / "worker.stderr", "w")
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, env=env, cwd=ROOT, text=True)

    def request(self, op: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.proc.stdin.flush()
        timer = threading.Timer(TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self.err.flush()
            tail = (OUT / "worker.stderr").read_text()[-2000:]
            raise BenchError(f"worker exited during {op!r}:\n{tail}")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.err.close()


# ---------------------------------------------------------------------------
# one benchmark run


class Run:
    def __init__(self, commands: list[workloads.Command], check_rows: int):
        self.commands = commands
        self.check_rows = check_rows
        self.reference: list[str | None] = [None] * len(commands)
        self.rows = [0] * len(commands)
        self.bytes = [0] * len(commands)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.cold: list[list[dict]] = []
        self.warm: list[list[float]] = []
        self.untraced_s: list[float] = []
        self.traced: list[dict] = []

    def record(self, index: int, code: int, text: str, phase: str) -> None:
        """Check one command's output; the first run of it is the reference."""
        cmd = self.commands[index]
        problems = check_output(cmd, code, text, self.check_rows)
        if self.reference[index] is None:
            self.reference[index] = comparable(cmd, text)
            self.rows[index] = max(0, text.count("\n") - 1)
            self.bytes[index] = len(text.encode())
        elif comparable(cmd, text) != self.reference[index]:
            problems.append("output differs from the first run of the command")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{phase} {' '.join(cmd.argv)[:120]}: {problems[:3]}")

    def cold_pass(self, env: dict[str, str]) -> float:
        start = time.perf_counter()
        samples = []
        for index, cmd in enumerate(self.commands):
            child = spawn([sys.executable, "-m", "ngphase", *cmd.argv], env)
            self.record(index, child["code"], child["stdout"], "cold")
            del child["stdout"]
            samples.append(child)
        self.cold.append(samples)
        return time.perf_counter() - start

    def warm_pass(self, worker: Worker, op: str = "pass") -> dict:
        reply = worker.request(op, commands=[list(c.argv) for c in self.commands])
        for index, result in enumerate(reply["results"]):
            self.record(index, result["code"], result["stdout"], op)
        reply["command_s"] = [result["seconds"] for result in reply.pop("results")]
        return reply


def repeat(step, stop: float, started: float) -> None:
    """Call ``step`` (which returns its duration) at least MIN_CYCLES times,
    then while another call is expected to end before ``stop``; never start
    one after HARD_STOP_S."""
    durations = []
    while True:
        now = time.monotonic()
        if durations and now - started > HARD_STOP_S:
            return
        if len(durations) >= MIN_CYCLES and now + stats.median(durations) > stop:
            return
        durations.append(step())


def import_seconds(env: dict[str, str], module: str = "ngphase") -> float:
    """Time a fresh interpreter takes to import ``module`` (start-up excluded)."""
    probe = (f"import time; t = time.perf_counter(); import {module}; "
             "print(repr(time.perf_counter() - t))")
    child = spawn([sys.executable, "-c", probe], env)
    if child["code"] != 0:
        raise BenchError(f"import {module} failed:\n{child['stderr']}")
    return float(child["stdout"].strip().splitlines()[-1])


def pass_time(passes: list[list[float]]) -> float:
    """Time of one pass, as the sum over commands of each one's median.

    A burst of load on a shared machine slows one command of one pass; the
    per-command median drops it, where the median of pass totals would not.
    """
    return sum(stats.median(p[i] for p in passes) for i in range(len(passes[0])))


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": stats.median(run.setup),
        "wall_s": pass_time([[c["wall"] for c in p] for p in run.cold]),
        "cpu_s": pass_time([[c["cpu"] for c in p] for p in run.cold]),
        "points_per_s": sum(run.rows) / pass_time(run.warm),
        "peak_rss_mb": max(c["rss_kb"] for p in run.cold for c in p) / 1024.0,
        "ok_ratio": 1.0 - run.failed / run.attempted,
    }


def per_layer(run: Run) -> tuple[dict[str, float], int]:
    """Figures of the median traced pass, the cold-pass rusage ratios and the
    tracing overhead; also returns which traced pass was reported."""
    chosen = stats.median_index([t["seconds"] for t in run.traced])
    metrics = dict(run.traced[chosen]["metrics"])
    untraced = stats.median(run.untraced_s)
    metrics.update({
        "cli.rows": sum(run.rows),
        "cli.bytes_out": sum(run.bytes),
        "cli.cpu_per_wall": stats.median(
            sum(c["cpu"] for c in p) / sum(c["wall"] for c in p) for p in run.cold),
        "cli.invol_ctx_switches": stats.median(
            sum(c["nivcsw"] for c in p) / len(p) for p in run.cold),
        "trace.untraced_pass_s": untraced,
        "trace.overhead_s": run.traced[chosen]["seconds"] - untraced,
    })
    return metrics, chosen


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ngphase").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, info: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "thread_vars_set": {k: v for k, v in os.environ.items()
                            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        **info,
        "ngphase_file": str(Path(info["ngphase_file"]).resolve().relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measure(args, env) -> tuple[Run, dict, dict]:
    started = time.monotonic()
    worker = Worker(env)
    try:
        info = worker.request("hello")
        if not Path(info["ngphase_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"ngphase was imported from {info['ngphase_file']}, not {SRC}")
        run = Run(workloads.commands(args.workload, args.seed), info["checks"])
        import_seconds(env)  # not kept: it may write bytecode caches
        run.warm_pass(worker)  # warm-up: fills whatever the program caches

        def cycle() -> float:
            start = time.perf_counter()
            if not args.trace:
                run.setup.append(import_seconds(env))
            cold_s = run.cold_pass(env)
            warm_until = time.perf_counter() + WARM_SHARE * cold_s
            if args.trace:
                run.untraced_s.append(run.warm_pass(worker)["seconds"])
                run.traced.append(run.warm_pass(worker, "trace"))
            else:
                while True:
                    reply = run.warm_pass(worker)
                    run.warm.append(reply["command_s"])
                    if time.perf_counter() + reply["seconds"] > warm_until:
                        break
            return time.perf_counter() - start

        repeat(cycle, started + args.seconds, started)
        while not args.trace and len(run.setup) < MIN_SETUP_SAMPLES:
            run.setup.append(import_seconds(env))
        if args.trace:
            metrics, chosen = per_layer(run)
            worker.request("dump", **{"pass": chosen, "path": str(
                OUT / f"spans-{args.workload}-seed{args.seed}.json")})
        else:
            metrics = end_to_end(run)
    finally:
        worker.close()
    return run, metrics, environment(args, info)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ngphase" / "__init__.py").is_file():
        print(f"perfbench: no ngphase sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        run, metrics, env_record = measure(args, child_env())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {},
    }
    for spec in metric_specs(args.trace):
        name = spec["name"]
        if name.startswith("verification.check_s."):
            value = metrics.get(name, 0.0)  # a check the program no longer has
        else:
            value = metrics[name]
        result["metrics"][name] = {"value": value, "unit": spec["unit"]}

    record = {"environment": env_record, "result": result, "problems": run.problems,
              "commands": [list(c.argv) for c in run.commands],
              "setup_s": run.setup, "cold": run.cold, "warm_s": run.warm,
              "untraced_s": run.untraced_s, "traced_s": [t["seconds"] for t in run.traced],
              "all_metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
