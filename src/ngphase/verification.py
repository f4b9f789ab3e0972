"""Analytic-vs-numeric verification suite.

Each check evaluates one family of closed-form results against the
truncated-basis numerics (or an internal consistency identity) and reports
its worst discrepancy.  The CLI ``verify`` subcommand and the acceptance
tests both run through this registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import analytic
from .analytic import ProtocolParams, StateFamily
from .fock import FockSpace, cat_state, displace, fock_state, parity_signs, recommend_dim, squeeze
from .loss import apply_loss_via_purification, thin
from .protocols import evaluate, optimize_delta, sweep


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  A check that raised carries its message in
    ``error``, an infinite discrepancy and ``passed`` False."""

    name: str
    passed: bool
    discrepancy: float
    tolerance: float
    seconds: float
    error: str | None = None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "ERROR"
        return "PASS" if self.passed else "FAIL"


_REGISTRY: list[tuple[str, float, Callable[[str], float]]] = []


def _check(name: str, tolerance: float):
    def wrap(fn: Callable[[str], float]):
        _REGISTRY.append((name, tolerance, fn))
        return fn
    return wrap


def check_names() -> list[str]:
    return [name for name, _, _ in _REGISTRY]


def run_checks(grid: str = "full", tolerance: float | None = None,
               names: list[str] | None = None) -> list[CheckResult]:
    """Run the registered checks and collect their worst discrepancies.

    ``tolerance`` overrides every check's own threshold (useful to probe how
    tight the agreement actually is); ``grid='small'`` shrinks the parameter
    grids for a quick smoke run.  A check that raises is recorded as an
    ERROR result and the remaining checks still run.  A ``tolerance`` that is
    not finite and > 0 would pass or fail every check whatever it measured, so
    it is a ValueError; so is an unknown name in ``names``.
    """
    if grid not in ("small", "full"):
        raise ValueError(f"grid must be 'small' or 'full', got {grid!r}")
    if tolerance is not None and not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    unknown = sorted(set(names or ()) - set(check_names()))
    if unknown:
        raise ValueError(f"no check named {', '.join(unknown)}")
    results = []
    for name, default_tol, fn in _REGISTRY:
        if names is not None and name not in names:
            continue
        tol = default_tol if tolerance is None else tolerance
        start = time.perf_counter()
        try:
            disc, error = fn(grid), None
        except Exception as exc:
            disc, error = math.inf, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, error is None and disc < tol, disc, tol,
                                   elapsed, error))
    return results


# ---------------------------------------------------------------------------
# grids


def _etas(grid: str) -> list[float]:
    return [0.5, 0.98] if grid == "small" else [0.5, 0.8, 0.9, 0.95, 0.98, 1.0]


def _space_for(alpha: float, delta: float) -> FockSpace:
    return FockSpace(recommend_dim(alpha, delta))


def _displaced(points) -> list[tuple[np.ndarray, np.ndarray]]:
    """(probe, D(delta) probe) for each point (space, probe, delta), where
    ``probe(space)`` builds the state: one ``displace`` per distinct space,
    over all of its points' states and deltas.  In input order."""
    members: dict[FockSpace, list[int]] = {}
    for i, (space, _, _) in enumerate(points):
        members.setdefault(space, []).append(i)
    out = [None] * len(points)
    for space, indices in members.items():
        probes = [points[i][1](space) for i in indices]
        # a lone state stays a vector, so its row keeps a one-point call's rounding
        rows = displace(space, probes[0] if len(probes) == 1 else np.array(probes),
                        [points[i][2] for i in indices])
        for i, probe, row in zip(indices, probes, rows):
            out[i] = probe, row
    return out


def _self_overlaps(points) -> list[complex]:
    """<probe|D(delta) probe> for each point of ``_displaced``, read off the
    displaced row as the oracle reads it."""
    return [complex(np.vdot(probe, row)) for probe, row in _displaced(points)]


# ---------------------------------------------------------------------------
# acceptance-criteria checks


@_check("fock_orthogonality", 1e-8)
def _fock_orthogonality(grid: str) -> float:
    """|<n|D(sqrt(R_n))|n>| vanishes at the first Laguerre root."""
    top = 4 if grid == "small" else 10
    points = []
    for n in range(1, top + 1):
        delta = math.sqrt(analytic.laguerre_first_root(n))
        points.append((_space_for(math.sqrt(n), delta), partial(fock_state, n=n), delta))
    return max(abs(o) for o in _self_overlaps(points))


@_check("fock1_operating_point_analytic", 1e-12)
def _fock1_point_analytic(grid: str) -> float:
    """Closed-form rates at d'^2 = 1 equal (1-eta, (1-eta)/e)."""
    worst = 0.0
    for eta in (0.8, 0.9, 0.98):
        rates = analytic.fock1_error_rates(1.0 / math.sqrt(eta), eta)
        worst = max(worst, abs(rates.p_fp - (1.0 - eta)),
                    abs(rates.p_fn - (1.0 - eta) / math.e))
    return worst


@_check("fock1_operating_point_numeric", 1e-8)
def _fock1_point_numeric(grid: str) -> float:
    """The oracle's rates at the optimized phase, as ``sweep --oracle``
    prints them along eta, reproduce (1-eta, (1-eta)/e)."""
    fock = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1)
    etas = (0.8, 0.9, 0.98)
    return max(max(abs(ev.numeric.p_fp - (1.0 - eta)),
                   abs(ev.numeric.p_fn - (1.0 - eta) / math.e))
               for eta, ev in zip(etas, sweep(fock, "eta", etas, with_oracle=True)))


@_check("cat_overlap_zeros_analytic", 1e-12)
def _cat_zeros_analytic(grid: str) -> float:
    """The closed-form overlap vanishes at the first three closed-form zeros."""
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0, 2.5, 3.0):
        for k in (0, 1, 2):
            worst = max(worst, abs(analytic.cat_overlap(alpha, analytic.cat_overlap_zero(alpha, k))))
    return worst


@_check("cat_overlap_zeros_numeric", 1e-8)
def _cat_zeros_numeric(grid: str) -> float:
    points = []
    for alpha in (1.5, 2.0, 3.0):
        for k in (0, 1):
            delta = analytic.cat_overlap_zero(alpha, k)
            points.append((_space_for(alpha, delta), partial(cat_state, alpha=alpha), delta))
    return max(abs(o) for o in _self_overlaps(points))


@_check("lossy_cat_statistics", 1e-8)
def _lossy_cat_statistics(grid: str) -> float:
    """Parity and per-n photon probabilities of the thinned distribution (the
    oracle's readout) of the displaced cat against their closed forms."""
    alphas = (1.0, 3.0) if grid == "small" else (1.0, 2.0, 3.0)
    deltas = (0.4,) if grid == "small" else (0.1, 0.4, 0.8)
    etas = _etas(grid)
    cases = [(alpha, delta) for alpha in alphas for delta in deltas]
    displaced = _displaced([(_space_for(alpha, delta), partial(cat_state, alpha=alpha), delta)
                            for alpha, delta in cases])
    worst = 0.0
    for (alpha, delta), (_, shifted) in zip(cases, displaced):
        p = np.abs(shifted) ** 2
        # one row per eta, thinned and closed-form
        q = thin([p] * len(etas), etas)
        closed = np.array([analytic.cat_pn(alpha, delta, eta, len(p)) for eta in etas])
        signs = parity_signs(len(p))
        worst = max(worst, float(np.max(np.abs(q - closed))),
                    *(abs(float(signs @ q_eta) - analytic.cat_parity(alpha, delta, eta))
                      for eta, q_eta in zip(etas, q)))
    return worst


@_check("cat_fp_product_identity", 1e-12)
def _fp_product_identity(grid: str) -> float:
    """(1 - P_0)/2 against its factored form on the (alpha, eta) grid."""
    worst = 0.0
    for alpha in (1.0, 2.0, 3.0):
        for eta in (0.5, 0.9, 0.98):
            direct = 0.5 * (1.0 - analytic.cat_parity(alpha, 0.0, eta))
            worst = max(worst, abs(direct - analytic.cat_false_positive_product_form(alpha, eta)))
    return worst


# ---------------------------------------------------------------------------
# module invariants


@_check("squeeze_displacement_sandwich", 1e-8)
def _squeeze_sandwich(grid: str) -> float:
    """S(r)† D(delta) S(r) = D(delta e^r) on |0>..|3>: squeezing scales the signal by e^r."""
    deltas = (0.05, 0.5, 1.0)
    squeezes = (0.25, 0.5)
    worst = 0.0
    for dim in (96, 128):
        space = FockSpace(dim)
        low = np.array([fock_state(space, n) for n in range(4)])
        squeezed = {r: squeeze(space, low, r) for r in squeezes}
        # one row per (r, n, delta): D(delta) S|n>, then D(delta e^r)|n>
        cases = [(r, n, delta) for r in squeezes for n in range(4) for delta in deltas]
        rows = displace(space,
                        [squeezed[r][n] for r, n, _ in cases] + [low[n] for _, n, _ in cases],
                        [delta for *_, delta in cases]
                        + [delta * math.exp(r) for r, _, delta in cases])
        sides = [np.split(side, len(squeezes)) for side in np.split(rows, 2)]
        for r, shifted, plain in zip(squeezes, *sides):
            # S(r)† = S(-r)
            worst = max(worst, float(np.max(np.abs(squeeze(space, shifted, -r) - plain))))
    return worst


@_check("fock_overlap_grid", 1e-8)
def _fock_overlap_grid(grid: str) -> float:
    """<n|D(delta)|n> against L_n(delta^2) exp(-delta^2/2) for n <= 10."""
    top = 4 if grid == "small" else 10
    cases = [(n, delta) for delta in (0.1, 0.5, 1.0, 2.0) for n in range(top + 1)]
    spaces = {delta: _space_for(math.sqrt(top), delta) for _, delta in cases}
    numeric = _self_overlaps([(spaces[delta], partial(fock_state, n=n), delta)
                              for n, delta in cases])
    return max(abs(o - analytic.fock_overlap(n, delta)) for o, (n, delta) in zip(numeric, cases))


@_check("cat_overlap_formula", 1e-8)
def _cat_overlap_formula(grid: str) -> float:
    cases = [(alpha, delta) for alpha in (1.0, 1.5, 3.0) for delta in (0.1, 0.3, 1.0, 2.0)]
    numeric = _self_overlaps([(_space_for(alpha, delta), partial(cat_state, alpha=alpha), delta)
                              for alpha, delta in cases])
    return max(abs(o - analytic.cat_overlap(alpha, delta))
               for o, (alpha, delta) in zip(numeric, cases))


@_check("loss_composition", 1e-8)
def _loss_composition(grid: str) -> float:
    """Thinning at eta1 after thinning at eta2 equals thinning at eta1 * eta2."""
    space = _space_for(1.5, 0.5)
    p = np.abs(displace(space, cat_state(space, 1.5), [0.5])[0]) ** 2
    pairs = ((0.9, 0.8), (0.95, 0.5))
    # p thinned at each eta2 and at each eta1 * eta2, then the first at eta1
    once = thin([p] * 2 * len(pairs), [eta2 for _, eta2 in pairs]
                + [eta1 * eta2 for eta1, eta2 in pairs])
    seq = thin(once[:len(pairs)], [eta1 for eta1, _ in pairs])
    return float(np.max(np.abs(seq - once[len(pairs):])))


@_check("loss_thinning_vs_purification", 1e-9)
def _thinning_purification(grid: str) -> float:
    """Binomial thinning of |psi|^2 matches the diagonal of the lossy state
    built by the beamsplitter purification, which shares no code with it."""
    space = FockSpace(24)
    states = (fock_state(space, 2), cat_state(space, 1.0),
              displace(space, cat_state(space, 1.0), [0.6])[0])
    etas = [0.5, 0.9, 0.98]
    # thinned[j, i]: state i at eta j; purified[j]: one state at eta j
    thinned = thin([np.abs(np.stack(states)) ** 2] * len(etas), etas)
    worst = 0.0
    for i, state in enumerate(states):
        purified = np.diagonal(apply_loss_via_purification(state, etas), axis1=1, axis2=2).real
        worst = max(worst, float(np.max(np.abs(thinned[:, i] - purified))))
    return worst


@_check("fock1_fn_stationarity", 1e-8)
def _fock1_stationarity(grid: str) -> float:
    """d p_fn / d(d'^2) vanishes at d'^2 = 1 (central finite difference)."""
    worst = 0.0
    step = 1e-6
    for eta in (0.8, 0.9, 0.98, 1.0):
        def fn_of_d2(d2: float) -> float:
            return analytic.fock1_false_negative(math.sqrt(d2 / eta), eta)
        worst = max(worst, abs(fn_of_d2(1.0 + step) - fn_of_d2(1.0 - step)) / (2.0 * step))
    return worst


@_check("parity_bounds", 1e-12)
def _parity_bounds(grid: str) -> float:
    """|P_delta| never exceeds 1."""
    deltas = [float(delta) for delta in np.linspace(0.0, 2.0, 21)]
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for eta in _etas(grid):
            for delta in deltas:
                worst = max(worst, abs(analytic.cat_parity(alpha, delta, eta)) - 1.0)
    return max(0.0, worst)


@_check("sweep_dual_path", 1e-6)
def _sweep_dual_path(grid: str) -> float:
    """Analytic and numeric routes agree along optimizer-driven sweeps."""
    cat = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=1.5, eta=0.9)
    worst = max(ev.max_discrepancy for ev in sweep(cat, "alpha", (1.0, 2.0), with_oracle=True))
    fock = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, eta=0.9)
    op = optimize_delta(fock)
    ev = evaluate(fock, op.phi0, with_oracle=True)
    return max(worst, ev.max_discrepancy)
