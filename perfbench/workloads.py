"""Seeded command sets for the four benchmark workloads.

Each workload is a list of ``ngphase`` command lines together with what a
correct run of each must print.  The seed draws probe amplitudes, efficiencies
and grid positions; the quantities that set the cost of a command (basis
size, grid length, Kraus-term count) are pinned, so every seed asks for the
same amount of work and the spread between seeds measures the machine, not
the inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

OVERLAP_HEADER = ("delta", "analytic", "numeric", "abs_diff")
RATE_HEADER = ("p_fp", "p_fn", "helstrom")
NUMERIC_HEADER = ("p_fp_numeric", "p_fn_numeric", "helstrom_numeric", "max_abs_diff")
VERIFY_HEADER = ("status", "check", "max_discrepancy", "tolerance", "seconds")

# Tolerances of the matching ``verify`` checks: overlap and parity are held
# to 1e-8 (cat_overlap_formula, fock_overlap_grid, lossy_cat_parity), oracle
# sweeps to 1e-6 (sweep_dual_path).
GRID_TOL = 1e-8
ORACLE_TOL = 1e-6

# delta_grid: alpha^2 + delta_max^2 stays within 0.2 below this value, which
# pins the basis size recommend_dim picks (58 levels at the default tail
# tolerance); the amplitudes vary little, so delta_max, which sets how much
# squaring each matrix exponential needs, varies little too.
DELTA_GRID_LAMBDA = 9.0
FOCK_N = 2
# Under default BLAS threading the time of one command is bimodal and
# heavy-tailed; many short commands give a steadier median than a few long
# ones, so the grids are short and a run repeats them.
DELTA_GRID_STEPS = 16
ORACLE_POINTS = 16
CLOSED_FORM_STEPS = 1000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the shape of its correct output.

    ``rows`` is None for ``verify``, whose row count is the size of the check
    registry and is learned from the program at run time.
    """

    argv: tuple[str, ...]
    header: tuple[str, ...]
    rows: int | None
    diff_column: str | None = None
    tolerance: float | None = None

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"


def _num(x: float) -> str:
    return f"{x:.6f}"


def _jittered(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One value drawn inside each of ``count`` equal cells of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (i + rng.uniform(0.1, 0.9)) * width for i in range(count)]


def _values(values: list[float]) -> str:
    return ",".join(_num(v) for v in values)


def _delta_max(amplitude_sq: float) -> float:
    # Round down so alpha^2 + delta_max^2 never exceeds the pinned budget.
    return math.floor(math.sqrt(DELTA_GRID_LAMBDA - amplitude_sq) * 1e6) / 1e6


def delta_grid(rng: random.Random) -> list[Command]:
    fock_slack = rng.uniform(0.0, 0.2)
    alpha_c = round(rng.uniform(1.6, 1.8), 6)
    alpha_p = round(rng.uniform(1.6, 1.8), 6)
    steps = str(DELTA_GRID_STEPS)
    grid = dict(header=OVERLAP_HEADER, rows=DELTA_GRID_STEPS,
                diff_column="abs_diff", tolerance=GRID_TOL)
    return [
        Command(("overlap", "--family", "fock", "--n", str(FOCK_N),
                 "--delta-max", _num(_delta_max(FOCK_N + fock_slack)), "--steps", steps),
                **grid),
        Command(("overlap", "--family", "cat", "--alpha", _num(alpha_c),
                 "--delta-max", _num(_delta_max(alpha_c ** 2)), "--steps", steps), **grid),
        Command(("parity", "--alpha", _num(alpha_p), "--eta", "0.9",
                 "--delta-max", _num(_delta_max(alpha_p ** 2)), "--steps", steps), **grid),
    ]


def _sweep_header(axis: str, oracle: bool) -> tuple[str, ...]:
    header = (axis, "phi", "delta", "delta_detected") + RATE_HEADER
    return header + NUMERIC_HEADER if oracle else header


def oracle_sweep(rng: random.Random) -> list[Command]:
    def sweep(family_flags, axis, lo, hi):
        values = _jittered(rng, lo, hi, ORACLE_POINTS)
        return Command(("sweep", *family_flags, "--axis", axis, "--values", _values(values),
                        "--oracle"),
                       header=_sweep_header(axis, True), rows=ORACLE_POINTS,
                       diff_column="max_abs_diff", tolerance=ORACLE_TOL)

    alpha = _num(rng.uniform(1.9, 2.1))
    eta = _num(rng.uniform(0.88, 0.92))
    return [
        sweep(("--family", "cat", "--alpha", alpha, "--eta", "0.9"), "eta", 0.80, 0.98),
        sweep(("--family", "cat", "--alpha", "2", "--eta", eta), "alpha", 1.0, 3.0),
        sweep(("--family", "fock", "--n", "1", "--eta", "0.9"), "eta", 0.80, 0.98),
    ]


def _etas(rng: random.Random) -> list[str]:
    cells = ((0.78, 0.83), (0.88, 0.92), (0.93, 0.96), (0.97, 0.99))
    return [f"{rng.uniform(lo, hi):.4f}" for lo, hi in cells]


def closed_form(rng: random.Random) -> list[Command]:
    def steps() -> int:
        return rng.randrange(CLOSED_FORM_STEPS - 10, CLOSED_FORM_STEPS + 10)

    s4, s5, s6, s_sweep = steps(), steps(), steps(), steps()
    etas5, etas6 = _etas(rng), _etas(rng)
    alpha = _num(rng.uniform(1.5, 3.0))
    eta = _num(rng.uniform(0.85, 0.99))
    lo, hi = rng.uniform(0.5, 0.7), rng.uniform(3.8, 4.0)
    phi = f"{rng.uniform(0.8e-3, 1.2e-3):.6e}"
    return [
        Command(("figure", "--id", "4", "--steps", str(s4)),
                header=("alpha", "delta_opt", "p_even", "p_odd"), rows=s4),
        Command(("figure", "--id", "5", "--steps", str(s5), "--etas", ",".join(etas5)),
                header=("alpha",) + tuple(f"p_fp_eta_{float(e):g}" for e in etas5), rows=s5),
        Command(("figure", "--id", "6", "--steps", str(s6), "--etas", ",".join(etas6)),
                header=("alpha",) + tuple(f"p_fn_eta_{float(e):g}" for e in etas6), rows=s6),
        Command(("sweep", "--family", "cat", "--alpha", alpha, "--eta", eta, "--axis", "alpha",
                 "--grid", _num(lo), _num(hi), str(s_sweep)),
                header=_sweep_header("alpha", False), rows=s_sweep),
        Command(("optimize", "--family", "cat", "--alpha", alpha, "--eta", eta),
                header=("source", "phi0", "delta_detected") + RATE_HEADER, rows=1),
        Command(("evaluate", "--family", "fock", "--n", "1", "--eta", eta, "--phi", phi),
                header=("phi", "delta", "delta_detected") + RATE_HEADER, rows=1),
    ]


def verify_full(rng: random.Random) -> list[Command]:
    # The verify grid is fixed by the program; the seed is recorded, not used.
    return [Command(("verify", "--grid", "full"), header=VERIFY_HEADER, rows=None)]


WORKLOADS = {
    "delta_grid": delta_grid,
    "oracle_sweep": oracle_sweep,
    "closed_form": closed_form,
    "verify_full": verify_full,
}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](random.Random(seed))
