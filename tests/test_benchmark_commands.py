"""The benchmark's command lines still run and print what it accepts.

``perfbench/workloads.py`` generates the CLI commands the benchmark times,
and ``perfbench/outputs.check_output`` decides whether each one's output is
correct; a failure there lowers the benchmark's ``ok_ratio``.  This test runs
every generated command for two seeds through ``cli.main`` and holds it to
that same check, so a CLI change that refuses or reshapes one of them shows
here.  Both modules are loaded read-only from their files.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from ngphase.cli import main
from ngphase.verification import check_names

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """The module ``perfbench/<name>.py``, under its own top-level name, as
    the benchmark's modules import each other."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = _load("workloads")
outputs = _load("outputs")

COMMANDS = [(workload, seed, cmd) for workload in sorted(workloads.WORKLOADS)
            for seed in (1, 2) for cmd in workloads.commands(workload, seed)]


@pytest.mark.parametrize("workload, seed, cmd", COMMANDS,
                         ids=[f"{w}-{s}-{i}" for i, (w, s, _) in enumerate(COMMANDS)])
def test_benchmark_command_passes_its_output_check(workload, seed, cmd):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(cmd.argv))
    problems = outputs.check_output(cmd, code, out.getvalue(), verify_rows=len(check_names()))
    assert problems == [], (cmd.argv, err.getvalue())
