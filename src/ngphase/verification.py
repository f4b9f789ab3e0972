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
from typing import Callable

import numpy as np

from . import analytic
from .analytic import ProtocolParams, StateFamily
from .fock import FockSpace, cat_state, displace, fock_state, parity_signs, recommend_dim, squeeze
from .loss import apply_loss_via_purification, thin
from .protocols import _numeric_rates, evaluate, optimize_delta, sweep


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


def _self_overlap(space: FockSpace, probe: np.ndarray, delta: float) -> complex:
    """<probe|D(delta) probe>, read off the displaced row as the oracle reads it."""
    return complex(np.vdot(probe, displace(space, probe, [delta])[0]))


# ---------------------------------------------------------------------------
# acceptance-criteria checks


@_check("fock_orthogonality", 1e-8)
def _fock_orthogonality(grid: str) -> float:
    """|<n|D(sqrt(R_n))|n>| vanishes at the first Laguerre root."""
    top = 4 if grid == "small" else 10
    worst = 0.0
    for n in range(1, top + 1):
        delta = math.sqrt(analytic.laguerre_first_root(n))
        space = _space_for(math.sqrt(n), delta)
        worst = max(worst, abs(_self_overlap(space, fock_state(space, n), delta)))
    return worst


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
    """The oracle's rates (``protocols._numeric_rates``: thinned photon
    statistics, read as the detector reads them) reproduce the closed-form
    rates."""
    worst = 0.0
    for eta in (0.8, 0.9, 0.98):
        delta = 1.0 / math.sqrt(eta)
        params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, eta=eta)
        (rates,) = _numeric_rates([(params, delta)], _space_for(1.0, delta))
        worst = max(worst, abs(rates.p_fp - (1.0 - eta)),
                    abs(rates.p_fn - (1.0 - eta) / math.e))
    return worst


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
    worst = 0.0
    for alpha in (1.5, 2.0, 3.0):
        for k in (0, 1):
            delta = analytic.cat_overlap_zero(alpha, k)
            space = _space_for(alpha, delta)
            worst = max(worst, abs(_self_overlap(space, cat_state(space, alpha), delta)))
    return worst


@_check("lossy_cat_statistics", 1e-8)
def _lossy_cat_statistics(grid: str) -> float:
    """Parity and per-n photon probabilities of the thinned distribution (the
    oracle's readout) of the displaced cat against their closed forms."""
    alphas = (1.0, 3.0) if grid == "small" else (1.0, 2.0, 3.0)
    deltas = (0.4,) if grid == "small" else (0.1, 0.4, 0.8)
    worst = 0.0
    for alpha in alphas:
        for delta in deltas:
            space = _space_for(alpha, delta)
            p = np.abs(displace(space, cat_state(space, alpha), [delta])[0]) ** 2
            for eta in _etas(grid):
                q = thin(p, eta)
                closed = np.array([analytic.cat_pn(alpha, delta, eta, n)
                                   for n in range(space.dim)])
                worst = max(worst,
                            abs(float(parity_signs(space.dim) @ q)
                                - analytic.cat_parity(alpha, delta, eta)),
                            float(np.max(np.abs(q - closed))))
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
    deltas = np.array([0.05, 0.5, 1.0])
    worst = 0.0
    for dim in (96, 128):
        space = FockSpace(dim)
        for r in (0.25, 0.5):
            s_mat = squeeze(space, r)
            for n in range(4):
                # rows of S† D(delta) S|n>, as (S† v)^T = v^T conj(S)
                lhs = displace(space, s_mat[:, n], deltas) @ s_mat.conj()
                rhs = displace(space, fock_state(space, n), deltas * math.exp(r))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@_check("fock_overlap_grid", 1e-8)
def _fock_overlap_grid(grid: str) -> float:
    """<n|D(delta)|n> against L_n(delta^2) exp(-delta^2/2) for n <= 10."""
    top = 4 if grid == "small" else 10
    worst = 0.0
    for delta in (0.1, 0.5, 1.0, 2.0):
        space = _space_for(math.sqrt(top), delta)
        for n in range(top + 1):
            numeric = _self_overlap(space, fock_state(space, n), delta)
            worst = max(worst, abs(numeric - analytic.fock_overlap(n, delta)))
    return worst


@_check("cat_overlap_formula", 1e-8)
def _cat_overlap_formula(grid: str) -> float:
    worst = 0.0
    for alpha in (1.0, 1.5, 3.0):
        for delta in (0.1, 0.3, 1.0, 2.0):
            space = _space_for(alpha, delta)
            numeric = _self_overlap(space, cat_state(space, alpha), delta)
            worst = max(worst, abs(numeric - analytic.cat_overlap(alpha, delta)))
    return worst


@_check("loss_composition", 1e-8)
def _loss_composition(grid: str) -> float:
    """Thinning at eta1 after thinning at eta2 equals thinning at eta1 * eta2."""
    space = _space_for(1.5, 0.5)
    p = np.abs(displace(space, cat_state(space, 1.5), [0.5])[0]) ** 2
    worst = 0.0
    for eta1, eta2 in ((0.9, 0.8), (0.95, 0.5)):
        seq = thin(thin(p, eta2), eta1)
        direct = thin(p, eta1 * eta2)
        worst = max(worst, float(np.max(np.abs(seq - direct))))
    return worst


@_check("loss_thinning_vs_purification", 1e-9)
def _thinning_purification(grid: str) -> float:
    """Binomial thinning of |psi|^2 matches the diagonal of the lossy state
    built by the beamsplitter purification, which shares no code with it."""
    space = FockSpace(24)
    states = (fock_state(space, 2), cat_state(space, 1.0),
              displace(space, cat_state(space, 1.0), [0.6])[0])
    worst = 0.0
    for eta in (0.5, 0.9, 0.98):
        thinned = thin(np.abs(np.stack(states)) ** 2, eta)
        for q, state in zip(thinned, states):
            purified = np.diagonal(apply_loss_via_purification(state, eta)).real
            worst = max(worst, float(np.max(np.abs(q - purified))))
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
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for eta in _etas(grid):
            for delta in np.linspace(0.0, 2.0, 21):
                worst = max(worst, abs(analytic.cat_parity(alpha, float(delta), eta)) - 1.0)
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
