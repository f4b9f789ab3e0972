"""Characterization corpus: commands whose full output is held byte for byte.

Each entry of ``COMMANDS`` names one CLI invocation.  Its file
``corpus/<name>.txt`` stores the exit code, the stderr line and the whole
stdout that invocation gave when the file was written; the test reruns it
through ``cli.main`` in-process and compares all three exactly.  The numeric
cells rest on the libm and the numpy (BLAS) of the machine that wrote the
files (x86-64 Linux, Python 3.11, numpy 2.4); on another platform a last
digit may move.  An intended change of output rewrites the affected files in
the same commit and names each moved command in CHANGES.md:

    PYTHONPATH=src python tests/test_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from ngphase.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"

CAT = "--family cat --alpha 2 --eta 0.9"
COMMANDS = {
    # figures 4 and 6, short grids; eta just below 1/2 and a tiny eta put the
    # lowest scan cell outside the first block read
    "figure4": "figure --id 4 --steps 7",
    "figure6": "figure --id 6 --steps 7",
    "figure6_low_etas": "figure --id 6 --steps 7 --etas 0.47,0.48,0.49,0.001",
    # cat operating points, tiny alpha (every parity underflows) included
    "optimize_cat": "optimize --family cat --alpha 2 --eta 0.95",
    "optimize_cat_small": "optimize --family cat --alpha 0.5 --eta 0.8",
    "optimize_cat_lossless": "optimize --family cat --alpha 3.7",
    "optimize_cat_tiny_alpha": "optimize --family cat --alpha 1e-200",
    "optimize_cat_tiny_alpha_lossy": "optimize --family cat --alpha 1e-200 --eta 0.9",
    "optimize_cat_oracle": f"optimize {CAT} --oracle",
    "optimize_cat_out_of_range": "optimize --family cat --alpha 1e-310",
    # operating phases that are no normal float
    "optimize_phase_underflow_fock": "optimize --family fock --n 1 --eta 0.9 --photons 1e300 "
                                     "--r 700",
    "optimize_phase_underflow_cat": f"optimize {CAT} --photons 1e300 --r 705",
    "sweep_phase_underflow": f"sweep {CAT} --photons 1e308 --axis r --grid 690 700 3",
    "optimize_eta_photons_zero": "optimize --family fock --n 1 --eta 1e-300 --photons 1e-300",
    "optimize_eta_photons_subnormal": f"optimize {CAT} --photons 1e-320",
    # cat sweeps on every axis the kernel or the closed forms feed
    "sweep_cat_alpha": f"sweep {CAT} --axis alpha --grid 0.5 4 9",
    "sweep_cat_alpha_oracle": f"sweep {CAT} --axis alpha --grid 0.5 4 9 --oracle",
    "sweep_cat_eta": f"sweep {CAT} --axis eta --grid 0.5 1 9",
    "sweep_cat_eta_oracle": f"sweep {CAT} --axis eta --grid 0.5 1 9 --oracle",
    "sweep_cat_r": f"sweep {CAT} --axis r --grid 0 2 5",
    "sweep_cat_r_oracle": f"sweep {CAT} --axis r --grid 0 2 5 --oracle",
    "sweep_cat_delta": f"sweep {CAT} --axis delta --grid 0 2 9",
    "sweep_cat_delta_oracle": f"sweep {CAT} --axis delta --grid 0 2 9 --oracle",
    # overlap and parity take only the scenario flags they read
    "overlap_fock": "overlap --family fock --n 1 --delta-max 3 --steps 7",
    "overlap_unread_flag": "overlap --family fock --n 1 --steps 7 --eta 0.9",
    "parity": "parity --alpha 1.5 --eta 0.9 --steps 7",
    "parity_unread_flag": "parity --alpha 1.5 --steps 7 --family cat",
    # the oracle's overlap and photon statistics, read off the displaced rows
    "overlap_cat": "overlap --family cat --alpha 2 --delta-max 3 --steps 7",
    "figure2": "figure --id 2",
    "figure2_wide": "figure --id 2 --delta 2.5 --levels 30",
    "evaluate_cat_oracle": f"evaluate {CAT} --delta 1 --oracle",
    "evaluate_fock1_oracle": "evaluate --family fock --n 1 --eta 0.9 --delta 1 --oracle",
    "evaluate_fock2_lossy_oracle": "evaluate --family fock --n 2 --eta 0.9 --delta 1.5 "
                                   "--oracle",
    # one probe per point on the n axis; one eta per point on the eta axis
    "sweep_fock_n_oracle": "sweep --family fock --n 1 --axis n --values 1,2,3 --oracle",
    "sweep_fock_eta_oracle": "sweep --family fock --n 1 --eta 0.9 --axis eta --grid 0.5 1 5 "
                             "--oracle",
    "sweep_fock_delta_oracle": "sweep --family fock --n 1 --eta 0.9 --axis delta "
                               "--grid 0 2 5 --oracle",
    "evaluate_fock_leakage": "evaluate --family fock --n 1 --eta 0.9 --delta 3 --oracle "
                             "--dim 6",
    # the closed_form benchmark workload at seed 1, grids cut to 50
    "closed_form_figure4": "figure --id 4 --steps 50",
    "closed_form_figure5": "figure --id 5 --steps 50 --etas 0.7859,0.9104,0.9442,0.9776",
    "closed_form_figure6": "figure --id 6 --steps 50 --etas 0.7905,0.8995,0.9568,0.9778",
    "closed_form_sweep": "sweep --family cat --alpha 2.411157 --eta 0.957402 --axis alpha "
                         "--grid 0.639167 3.853266 50",
    "closed_form_optimize": "optimize --family cat --alpha 2.411157 --eta 0.957402",
    "closed_form_evaluate": "evaluate --family fock --n 1 --eta 0.957402 --phi 1.120731e-03",
}


def run(argv: list[str]) -> str:
    """The corpus text of one invocation: exit code, stderr, then stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"# ngphase {shlex.join(argv)}\n# exit {code}\n# stderr {err.getvalue()!r}\n" \
           + out.getvalue()


def test_corpus_holds_exactly_the_listed_commands():
    assert sorted(p.stem for p in CORPUS.glob("*.txt")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_prints_its_corpus_bytes(name):
    expected = (CORPUS / f"{name}.txt").read_text(encoding="utf-8")
    assert run(shlex.split(COMMANDS[name])) == expected


if __name__ == "__main__":
    CORPUS.mkdir(exist_ok=True)
    for stale in CORPUS.glob("*.txt"):
        if stale.stem not in COMMANDS:
            stale.unlink()
    for name, command in COMMANDS.items():
        (CORPUS / f"{name}.txt").write_text(run(shlex.split(command)), encoding="utf-8")
