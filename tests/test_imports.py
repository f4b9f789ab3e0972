"""Import contract: numpy is a cost of the oracle only.

The closed-form commands run ``analytic`` and ``protocols`` alone, which use
``math``; ``import ngphase`` and those commands must not load numpy.  The
oracle commands still must, which shows the imports moved into them rather
than vanished.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ngphase

# Runs argv through cli.main (or only imports ngphase, for no argv) and
# reports the exit code and whether numpy was loaded on the last stderr line.
PROBE = """
import sys
import ngphase
code = 0
if sys.argv[1:]:
    from ngphase.cli import main
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


def _python(source, *argv, environ=os.environ):
    src = str(Path(ngphase.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", source, *argv], capture_output=True,
                          text=True, env=dict(environ, PYTHONPATH=path), check=True,
                          timeout=120)


def _run_probe(argv):
    code, numpy_loaded = _python(PROBE, *argv).stderr.splitlines()[-1].split()
    return int(code), numpy_loaded == "True"


@pytest.mark.parametrize("argv, loads_numpy", [
    ((), False),
    (("figure", "--id", "5", "--steps", "3"), False),
    (("optimize", "--family", "cat", "--alpha", "2", "--eta", "0.9"), False),
    (("sweep", "--family", "cat", "--alpha", "2", "--eta", "0.9", "--axis", "eta",
      "--values", "0.8,0.9"), False),
    (("parity", "--alpha", "1.5", "--steps", "5"), True),
    (("verify",), True),
    (("figure", "--id", "4", "--steps", "3"), False),
    (("figure", "--id", "6", "--steps", "3"), False),
    (("sweep", "--family", "cat", "--alpha", "2", "--eta", "0.9", "--axis", "alpha",
      "--grid", "0.5", "4", "5"), False),
])
def test_numpy_is_loaded_by_the_oracle_only(argv, loads_numpy):
    assert _run_probe(argv) == (0, loads_numpy)


# Lists the modules a fresh interpreter's ``import ngphase`` adds.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import ngphase
print(*sorted(set(sys.modules) - before))
"""


def test_import_ngphase_loads_only_itself():
    # perfbench's setup_s times exactly this import; a submodule or a
    # standard-library module loaded here would be paid by every command
    assert _python(IMPORT_PROBE).stdout.split() == ["ngphase"]


def test_public_names_resolve_lazily():
    for name in ngphase.__all__:
        assert callable(getattr(ngphase, name)), name
    assert set(ngphase.__all__) <= set(dir(ngphase))
    with pytest.raises(AttributeError, match="no_such_name"):
        ngphase.no_such_name  # noqa: B018


# Imports ngphase.cli with every argparse parser construction counted, and
# reports the count and whether numpy was loaded.
CLI_IMPORT_PROBE = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import ngphase.cli
print(len(built), ngphase.cli._parser.cache_info().currsize, "numpy" in sys.modules)
"""


def _import_cli():
    built, cached, numpy_loaded = _python(CLI_IMPORT_PROBE).stdout.split()
    return int(built), int(cached), numpy_loaded == "True"


def test_importing_cli_builds_no_parser():
    built, cached, _ = _import_cli()
    assert (built, cached) == (0, 0)


def test_importing_cli_loads_no_numpy():
    assert _import_cli()[2] is False


# Runs argv through cli.entrypoint, as ``python -m ngphase`` does, with
# cli.main wrapped to report, when entrypoint calls it, whether numpy was
# loaded and the OpenBLAS thread variable; and, after it, whether numpy was.
ENTRYPOINT_PROBE = """
import os, sys
from ngphase import cli
real = cli.main
def main():
    before = "numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")
    code = real()
    print(*before, "numpy" in sys.modules, file=sys.stderr)
    return code
cli.main = main
cli.entrypoint()
"""


def test_entrypoint_sets_the_thread_count_before_numpy_loads():
    # numpy reads the thread variables once, when it is first imported
    environ = {k: v for k, v in os.environ.items()
               if not (k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS")}
    done = _python(ENTRYPOINT_PROBE, "parity", "--alpha", "1.5", "--steps", "3",
                   environ=environ)
    assert done.stderr.splitlines()[-1].split() == ["False", "1", "True"]
