"""In-process half of the benchmark: warm and traced passes through ngphase.cli.main.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH.  It reads one
JSON request per line on stdin and answers each with one JSON line on
stdout; the CSV that ``main`` prints is captured, never written to stdout.

Requests: ``{"op": "hello"}``, ``{"op": "pass", "commands": [...]}``,
``{"op": "trace", "commands": [...]}``, ``{"op": "dump", "pass": i,
"path": p}`` and ``{"op": "quit"}``.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.metadata
import io
import json
import os
import platform
import re
import sys
import time
import traceback

import spans

THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads", "MKL_Get_Max_Threads")


def blas_info() -> dict:
    """BLAS library and thread count as the loaded numpy reports them."""
    import numpy as np

    info = {}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info["blas"] = blas.get("name")
    info["blas_version"] = blas.get("version")
    info["blas_config"] = blas.get("openblas configuration")
    info["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"\S*(?:blas|mkl)\S*\.so\S*", fh.read(), re.IGNORECASE)))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                info["blas_library"] = os.path.basename(lib)
                break
        if info["blas_threads"] is not None:
            break
    return info


def hello() -> dict:
    # Versions come from package metadata: importing scipy here would load
    # its BLAS into the warm process even if ngphase stops using it.
    import ngphase
    from ngphase import verification

    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "scipy_loaded_by_ngphase": "scipy" in sys.modules,
        "ngphase_file": ngphase.__file__,
        "checks": len(verification.check_names()),
        **blas_info(),
    }


def run_command(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # report the failure and go on with the pass
            code = -1
            err.write(traceback.format_exc())
    return {"code": code, "seconds": time.perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


class Worker:
    def __init__(self):
        from ngphase import cli

        self.cli = cli
        self.traced: list[spans.Tracer] = []

    def run_pass(self, commands) -> dict:
        main = self.cli.main
        start = time.perf_counter()
        results = [run_command(main, argv) for argv in commands]
        return {"seconds": time.perf_counter() - start, "results": results}

    def run_traced(self, commands) -> dict:
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            main = self.cli.main
            start = time.perf_counter()
            results = []
            for argv in commands:
                index = tracer.begin("cli")
                try:
                    results.append(run_command(main, argv))
                finally:
                    tracer.end(index)
            seconds = time.perf_counter() - start
        finally:
            restore()
        self.traced.append(tracer)
        return {"seconds": seconds, "results": results,
                "metrics": spans.layer_metrics(tracer, seconds)}

    def dump(self, index: int, path: str) -> dict:
        with open(path, "w") as fh:
            json.dump({"spans": self.traced[index].spans()}, fh)
        return {"path": path}


def main() -> None:
    reply_to = sys.stdout
    worker = None
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "quit":
            break
        if op == "hello":
            reply = hello()
            worker = Worker()
        elif op == "pass":
            reply = worker.run_pass(request["commands"])
        elif op == "trace":
            reply = worker.run_traced(request["commands"])
        elif op == "dump":
            reply = worker.dump(request["pass"], request["path"])
        else:
            raise ValueError(f"unknown request {op!r}")
        reply_to.write(json.dumps(reply) + "\n")
        reply_to.flush()


if __name__ == "__main__":
    main()
