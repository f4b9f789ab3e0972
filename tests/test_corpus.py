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
import functools
import io
import math
import shlex
import sys
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
    # repeated efficiencies, each point thinned by its own
    "sweep_cat_eta_repeated_oracle": f"sweep {CAT} --axis eta "
                                     "--values 0.9,0.8,0.9,0.95,0.8,1 --oracle",
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
    # a probe that leaks out of the largest basis the --dim flag allows
    "evaluate_fock_leakage_max_dim": "evaluate --family fock --n 60 --delta 8 --oracle "
                                     "--dim 256",
    # the closed_form benchmark workload at seed 1, grids cut to 50
    "closed_form_figure4": "figure --id 4 --steps 50",
    "closed_form_figure5": "figure --id 5 --steps 50 --etas 0.7859,0.9104,0.9442,0.9776",
    "closed_form_figure6": "figure --id 6 --steps 50 --etas 0.7905,0.8995,0.9568,0.9778",
    "closed_form_sweep": "sweep --family cat --alpha 2.411157 --eta 0.957402 --axis alpha "
                         "--grid 0.639167 3.853266 50",
    "closed_form_optimize": "optimize --family cat --alpha 2.411157 --eta 0.957402",
    "closed_form_evaluate": "evaluate --family fock --n 1 --eta 0.957402 --phi 1.120731e-03",
    # Fock operating points: the analytic-threshold label and a Laguerre root
    # past the first scan step
    "optimize_fock1": "optimize --family fock --n 1 --eta 0.9",
    "optimize_fock1_oracle": "optimize --family fock --n 1 --eta 0.9 --oracle",
    "optimize_fock3": "optimize --family fock --n 3",
    # a prior other than 1/2 through every Helstrom branch
    "evaluate_cat_p0": f"evaluate {CAT} --delta 1 --p0 0.3",
    "evaluate_cat_p0_oracle": f"evaluate {CAT} --delta 1 --p0 0.3 --oracle",
    "evaluate_fock1_p0": "evaluate --family fock --n 1 --eta 0.9 --delta 1 --p0 0.3",
    "evaluate_fock2_lossless_p0": "evaluate --family fock --n 2 --delta 1.5 --p0 0.3",
    "figure3": "figure --id 3 --steps 7",
    # the delta_grid and oracle_sweep benchmark workloads at seed 1
    "delta_grid_fock": "overlap --family fock --n 2 --delta-max 2.640667 --steps 16",
    "delta_grid_cat": "overlap --family cat --alpha 1.769487 --delta-max 2.422584 --steps 16",
    "delta_grid_parity": "parity --alpha 1.752755 --eta 0.9 --delta-max 2.434717 --steps 16",
    "oracle_sweep_cat_eta": "sweep --family cat --alpha 1.926873 --eta 0.9 --axis eta "
                            "--values 0.807999,0.814671,0.828084,0.838920,0.851989,0.864474,"
                            "0.869470,0.880130,0.898647,0.906270,0.920486,0.924894,0.940133,"
                            "0.953869,0.960684,0.978382 --oracle",
    "oracle_sweep_cat_alpha": "sweep --family cat --alpha 2 --eta 0.913897 --axis alpha "
                              "--values 1.102643,1.140559,1.265045,1.441641,1.606415,"
                              "1.675620,1.784160,1.929712,2.015404,2.159669,2.306289,"
                              "2.437081,2.535808,2.660587,2.784378,2.933460 --oracle",
    "oracle_sweep_fock_eta": "sweep --family fock --n 1 --eta 0.9 --axis eta "
                             "--values 0.803733,0.812568,0.831163,0.839883,0.851906,0.859048,"
                             "0.877558,0.887615,0.892213,0.905369,0.920118,0.931276,"
                             "0.944553,0.951174,0.966095,0.975908 --oracle",
    # a flag of the other probe family is a validation error
    "evaluate_cat_with_n": "evaluate --family cat --alpha 2 --n 5 --delta 1",
    "evaluate_fock_with_alpha": "evaluate --family fock --n 1 --alpha 2 --delta 1",
    "overlap_fock_with_alpha": "overlap --family fock --n 1 --alpha 2 --steps 7",
    "sweep_cat_with_n": f"sweep {CAT} --n 4 --axis eta --grid 0.5 1 3",
    # a sweep axis of the other probe family
    "sweep_fock_alpha_axis": "sweep --family fock --axis alpha --values 1,2",
    "sweep_cat_n_axis": "sweep --family cat --alpha 2 --axis n --values 1,2",
    # every check's status and discrepancy
    "verify_full": "verify --grid full",
    "verify_small": "verify --grid small",
    # the rest of the README's CLI block (test_readme.py reads these files);
    # the README writes figure 3 to --out, whose bytes are this stdout
    "readme_overlap": "overlap --family fock --n 1 --delta-max 3 --steps 300",
    "readme_parity": "parity --alpha 1.5 --eta 0.9",
    "readme_evaluate": "evaluate --family fock --n 1 --eta 0.98 --phi 1.01e-3 --oracle",
    "readme_sweep_eta": "sweep --family cat --alpha 2 --axis eta --values 0.8,0.9,0.95,0.98",
    "readme_sweep_alpha_oracle": "sweep --family cat --alpha 2 --axis alpha --grid 0.5 4 200 "
                                 "--oracle",
    "readme_figure3": "figure --id 3",
    "readme_verify_tolerance": "verify --tolerance 1e-15",
}

# What stands in for the last (``seconds``) cell of each ``verify`` report row.
MASK = "<seconds>"


def _masked_seconds(stdout: str) -> str:
    header, *rows = stdout.splitlines(keepends=True)
    return header + "".join(row.rsplit(",", 1)[0] + f",{MASK}\n" for row in rows)


def run(argv: list[str]) -> str:
    """The corpus text of one invocation: exit code, stderr, then stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = _masked_seconds(out.getvalue()) if argv[0] == "verify" else out.getvalue()
    return f"# ngphase {shlex.join(argv)}\n# exit {code}\n# stderr {err.getvalue()!r}\n" \
           + stdout


@functools.cache
def _output(name: str) -> str:
    """The corpus text ``COMMANDS[name]`` gives now, run once per session."""
    return run(shlex.split(COMMANDS[name]))


def test_corpus_holds_exactly_the_listed_commands():
    assert sorted(p.stem for p in CORPUS.glob("*.txt")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_prints_its_corpus_bytes(name):
    expected = (CORPUS / f"{name}.txt").read_text(encoding="utf-8")
    assert _output(name) == expected


# The relative error the nudge test puts on every displacement.
NUDGE = 1e-6


def test_nudged_displacement_moves_some_command(monkeypatch):
    """The corpus can see a fault in the oracle: with ``fock.displace``'s
    delta scaled by 1 + 1e-6, some command prints other bytes.  Oracle
    commands first, stopping at the first that moves; run outside
    ``_output``, whose cache must hold the unfaulted texts."""
    from ngphase import fock

    real = fock.displace
    monkeypatch.setattr(fock, "displace", lambda space, states, deltas: real(
        space, states, [delta * (1.0 + NUDGE) for delta in deltas]))
    for name in sorted(COMMANDS, key=lambda name: "--oracle" not in COMMANDS[name]):
        if run(shlex.split(COMMANDS[name])) != (CORPUS / f"{name}.txt").read_text(encoding="utf-8"):
            return
    pytest.fail("no corpus command moved under a nudged displacement")


# ---------------------------------------------------------------------------
# the Helstrom floor

RATE_TRIPLES = (("p_fp", "p_fn", "helstrom"),
                ("p_fp_numeric", "p_fn_numeric", "helstrom_numeric"))
# Relative slack of the floor: a few ulps of the rounding in the three cells.
FLOOR_ULPS = 4


def _prior(name: str) -> float:
    argv = shlex.split(COMMANDS[name])
    return float(argv[argv.index("--p0") + 1]) if "--p0" in argv else 0.5


def _rate_triples(text: str, names=RATE_TRIPLES) -> list[tuple[float, float, float]]:
    """Every (p_fp, p_fn, helstrom) a corpus text or a CSV prints under the
    column names ``names`` (by default analytic and numeric); a triple
    with a nan cell (no closed form) holds no number."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    triples = []
    for columns in names:
        if set(columns) <= set(header):
            at = [header.index(column) for column in columns]
            for line in lines[1:]:
                cells = line.split(",")
                triples.append(tuple(float(cells[i]) for i in at))
    return [t for t in triples if not any(math.isnan(x) for x in t)]


# a file not written yet holds no triple; the listing test above fails on it
FLOORED = sorted(name for name in COMMANDS if (CORPUS / f"{name}.txt").is_file()
                 and _rate_triples((CORPUS / f"{name}.txt").read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", FLOORED)
def test_printed_error_never_beats_the_helstrom_floor(name):
    """Loss followed by photon counting is one measurement on the lossless
    pair of states, so its error p0 p_fp + (1 - p0) p_fn is never below the
    least error of any measurement, the Helstrom bound (Helstrom, Quantum
    Detection and Estimation Theory, 1976).  At delta = 0 the two meet."""
    p0 = _prior(name)
    triples = _rate_triples(_output(name))
    assert triples
    slack = 1.0 - FLOOR_ULPS * sys.float_info.epsilon
    for p_fp, p_fn, helstrom in triples:
        assert p0 * p_fp + (1.0 - p0) * p_fn >= helstrom * slack, (p_fp, p_fn, helstrom)


if __name__ == "__main__":
    CORPUS.mkdir(exist_ok=True)
    for stale in CORPUS.glob("*.txt"):
        if stale.stem not in COMMANDS:
            stale.unlink()
    for name, command in COMMANDS.items():
        (CORPUS / f"{name}.txt").write_text(run(shlex.split(command)), encoding="utf-8")
