"""BLAS threads: the ``ngphase`` command runs on one unless the user chose a count.

``cli.entrypoint`` (the console script and ``python -m ngphase``) sets the
BLAS and OpenMP thread variables to 1 when none is set, before numpy is
loaded; a variable the user set leaves the whole environment as it is.
``cli.main`` and the library never touch the environment.  One thread must
print the bytes the corpus holds, which ``test_corpus.py`` writes in-process
under whatever threading the test run has.
"""

import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ngphase
from ngphase import cli
from test_corpus import COMMANDS, CORPUS, corpus_text

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def _unthreaded(environ) -> dict[str, str]:
    """``environ`` without any thread-count variable."""
    return {k: v for k, v in environ.items()
            if not (k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS")}


def _entrypoint_environ(monkeypatch, environ: dict[str, str]) -> dict[str, str]:
    """The environment ``cli.main`` sees when ``entrypoint`` starts from ``environ``."""
    seen = {}
    monkeypatch.setattr(os, "environ", dict(environ))
    monkeypatch.setattr(cli, "main", lambda: seen.update(os.environ) or 0)
    with pytest.raises(SystemExit) as exit_:
        cli.entrypoint()
    assert exit_.value.code == 0
    return seen


def test_entrypoint_sets_one_thread_when_no_count_is_set(monkeypatch):
    base = {"PATH": "/bin", "HOME": "/home/user"}
    assert _entrypoint_environ(monkeypatch, base) == dict(base, **dict.fromkeys(THREAD_VARS, "1"))


@pytest.mark.parametrize("name, value", [
    ("OMP_NUM_THREADS", "4"),
    ("OPENBLAS_NUM_THREADS", "2"),
    ("MKL_NUM_THREADS", "3"),
    ("VECLIB_MAXIMUM_THREADS", "2"),
    ("NUMEXPR_NUM_THREADS", "8"),  # any *_NUM_THREADS is a choice
    ("OMP_NUM_THREADS", ""),
])
def test_a_thread_count_the_user_set_leaves_the_environment_as_it_is(monkeypatch, name, value):
    # no per-variable default: OPENBLAS_NUM_THREADS=1 would override OMP_NUM_THREADS=4
    environ = {"PATH": "/bin", name: value}
    assert _entrypoint_environ(monkeypatch, environ) == environ


def test_main_leaves_the_environment_alone(capsys):
    before = dict(os.environ)
    assert cli.main(["parity", "--alpha", "1.5", "--steps", "3"]) == 0
    assert dict(os.environ) == before


def test_only_entrypoint_writes_the_environment():
    # no module of the package reads os.environ, os.putenv or os.unsetenv
    # outside cli.entrypoint, so library calls run as their caller set up
    found = []

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "environb", "putenv", "unsetenv"):
            found.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(ngphase.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "<module>")
    assert found and set(found) == {("cli", "entrypoint")}


# Oracle commands of the corpus, run as a user runs them, in fresh processes.
COLD = ("delta_grid_parity", "oracle_sweep_cat_eta", "readme_sweep_alpha_oracle", "verify_full")


def test_one_thread_prints_the_corpus_bytes():
    src = str(Path(ngphase.__file__).resolve().parent.parent)
    env = _unthreaded(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argvs = {name: shlex.split(COMMANDS[name]) for name in COLD}
    # started together, so the four take about the time of the longest
    procs = {name: subprocess.Popen([sys.executable, "-m", "ngphase", *argv], env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for name, argv in argvs.items()}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        expected = (CORPUS / f"{name}.txt").read_text(encoding="utf-8")
        assert corpus_text(argvs[name], proc.returncode, out, err) == expected, name
