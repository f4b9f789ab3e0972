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
from .fock import FockSpace, cat_state, displace, fock_state, parity_signs, squeeze
from .loss import apply_loss_via_purification, thin
from .protocols import _displaced_probes, _oracle_space, _overlaps, evaluate, optimize_delta, sweep


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


_REGISTRY: list[tuple[str, float, Callable[[], float]]] = []


def _check(name: str, tolerance: float):
    def wrap(fn: Callable[[], float]):
        _REGISTRY.append((name, tolerance, fn))
        return fn
    return wrap


def check_names() -> list[str]:
    return [name for name, _, _ in _REGISTRY]


def run_checks(tolerance: float | None = None,
               names: list[str] | None = None) -> list[CheckResult]:
    """Run the registered checks, or those in ``names``, and collect their
    worst discrepancies.  The suite is fixed: every check runs its own grid.

    ``tolerance`` overrides every check's own threshold (useful to probe how
    tight the agreement actually is).  A check that raises is recorded as an
    ERROR result and the remaining checks still run.  A ``tolerance`` that is
    not finite and > 0 would pass or fail every check whatever it measured, so
    it is a ValueError; so is an unknown name in ``names``.
    """
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
            disc, error = fn(), None
        except Exception as exc:
            disc, error = math.inf, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, error is None and disc < tol, disc, tol,
                                   elapsed, error))
    return results


# ---------------------------------------------------------------------------
# grids


# The detector efficiencies of the lossy cat checks.
_ETAS = (0.5, 0.8, 0.9, 0.95, 0.98, 1.0)


# ---------------------------------------------------------------------------
# acceptance-criteria checks


@_check("fock_orthogonality", 1e-8)
def _fock_orthogonality() -> float:
    """|<n|D(sqrt(R_n))|n>| vanishes at the first Laguerre root."""
    points = [((StateFamily.FOCK, n), math.sqrt(analytic.laguerre_first_root(n)))
              for n in range(1, 11)]
    return max(abs(o) for o in _overlaps(points, _oracle_space(points)))


@_check("fock1_operating_point_analytic", 1e-12)
def _fock1_point_analytic() -> float:
    """Closed-form rates at d'^2 = 1 equal (1-eta, (1-eta)/e)."""
    worst = 0.0
    for eta in (0.8, 0.9, 0.98):
        rates = analytic.fock1_error_rates(1.0 / math.sqrt(eta), eta)
        worst = max(worst, abs(rates.p_fp - (1.0 - eta)),
                    abs(rates.p_fn - (1.0 - eta) / math.e))
    return worst


@_check("fock1_operating_point_numeric", 1e-8)
def _fock1_point_numeric() -> float:
    """The oracle's rates at the optimized phase, as ``sweep --oracle``
    prints them along eta, reproduce (1-eta, (1-eta)/e)."""
    fock = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1)
    etas = (0.8, 0.9, 0.98)
    return max(max(abs(ev.numeric.p_fp - (1.0 - eta)),
                   abs(ev.numeric.p_fn - (1.0 - eta) / math.e))
               for eta, ev in zip(etas, sweep(fock, "eta", etas, with_oracle=True)))


@_check("cat_overlap_zeros_analytic", 1e-12)
def _cat_zeros_analytic() -> float:
    """The closed-form overlap vanishes at the first three closed-form zeros."""
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0, 2.5, 3.0):
        for k in (0, 1, 2):
            worst = max(worst, abs(analytic.cat_overlap(alpha, analytic.cat_overlap_zero(alpha, k))))
    return worst


@_check("cat_overlap_zeros_numeric", 1e-8)
def _cat_zeros_numeric() -> float:
    points = [((StateFamily.CAT, alpha), analytic.cat_overlap_zero(alpha, k))
              for alpha in (1.5, 2.0, 3.0) for k in (0, 1)]
    return max(abs(o) for o in _overlaps(points, _oracle_space(points)))


@_check("lossy_cat_statistics", 1e-8)
def _lossy_cat_statistics() -> float:
    """Parity and per-n photon probabilities of the thinned distribution (the
    oracle's readout) of the displaced cat against their closed forms."""
    cases = [(alpha, delta) for alpha in (1.0, 2.0, 3.0) for delta in (0.1, 0.4, 0.8)]
    points = [((StateFamily.CAT, alpha), delta) for alpha, delta in cases]
    _, _, shifted = _displaced_probes(points, _oracle_space(points))
    # q[j, i]: case i thinned at the j-th eta
    q = thin([np.abs(shifted) ** 2] * len(_ETAS), _ETAS)
    levels = shifted.shape[1]
    signs = parity_signs(levels)
    worst = 0.0
    for i, (alpha, delta) in enumerate(cases):
        closed = np.array([analytic.cat_pn(alpha, delta, eta, levels) for eta in _ETAS])
        worst = max(worst, float(np.max(np.abs(q[:, i] - closed))),
                    *(abs(float(signs @ q_eta) - analytic.cat_parity(alpha, delta, eta))
                      for eta, q_eta in zip(_ETAS, q[:, i])))
    return worst


@_check("cat_fp_product_identity", 1e-12)
def _fp_product_identity() -> float:
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
def _squeeze_sandwich() -> float:
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
def _fock_overlap_grid() -> float:
    """<n|D(delta)|n> against L_n(delta^2) exp(-delta^2/2) for n <= 10."""
    points = [((StateFamily.FOCK, n), delta) for delta in (0.1, 0.5, 1.0, 2.0) for n in range(11)]
    return max(abs(o - analytic.fock_overlap(n, delta))
               for o, ((_, n), delta) in zip(_overlaps(points, _oracle_space(points)), points))


@_check("cat_overlap_formula", 1e-8)
def _cat_overlap_formula() -> float:
    points = [((StateFamily.CAT, alpha), delta)
              for alpha in (1.0, 1.5, 3.0) for delta in (0.1, 0.3, 1.0, 2.0)]
    return max(abs(o - analytic.cat_overlap(alpha, delta))
               for o, ((_, alpha), delta) in zip(_overlaps(points, _oracle_space(points)), points))


@_check("loss_composition", 1e-8)
def _loss_composition() -> float:
    """Thinning at eta1 after thinning at eta2 equals thinning at eta1 * eta2."""
    points = [((StateFamily.CAT, 1.5), 0.5)]
    _, _, (shifted,) = _displaced_probes(points, _oracle_space(points))
    p = np.abs(shifted) ** 2
    pairs = ((0.9, 0.8), (0.95, 0.5))
    # p thinned at each eta2 and at each eta1 * eta2, then the first at eta1
    once = thin([p] * 2 * len(pairs), [eta2 for _, eta2 in pairs]
                + [eta1 * eta2 for eta1, eta2 in pairs])
    seq = thin(once[:len(pairs)], [eta1 for eta1, _ in pairs])
    return float(np.max(np.abs(seq - once[len(pairs):])))


@_check("loss_thinning_vs_purification", 1e-9)
def _thinning_purification() -> float:
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
def _fock1_stationarity() -> float:
    """d p_fn / d(d'^2) vanishes at d'^2 = 1 (central finite difference)."""
    worst = 0.0
    step = 1e-6
    for eta in (0.8, 0.9, 0.98, 1.0):
        def fn_of_d2(d2: float) -> float:
            return analytic.fock1_false_negative(math.sqrt(d2 / eta), eta)
        worst = max(worst, abs(fn_of_d2(1.0 + step) - fn_of_d2(1.0 - step)) / (2.0 * step))
    return worst


@_check("cat_fn_stationarity", 1e-8)
def _cat_stationarity() -> float:
    """d p_fn / d d' vanishes at the optimized cat d', p_fn = (1 + P) / 2
    (central finite difference of the closed-form parity P at d' (1 +- 1e-6))."""
    worst = 0.0
    step = 1e-6
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for eta in (0.8, 0.9, 0.95, 0.98, 1.0):
            params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha, eta=eta)
            delta = optimize_delta(params).delta / math.sqrt(eta)
            parity = analytic.cat_parity_curve(alpha, eta)
            slope = ((parity(delta * (1.0 + step)) - parity(delta * (1.0 - step)))
                     / (4.0 * step * math.sqrt(eta) * delta))
            worst = max(worst, abs(slope))
    return worst


@_check("parity_bounds", 1e-12)
def _parity_bounds() -> float:
    """|P_delta| never exceeds 1."""
    deltas = [float(delta) for delta in np.linspace(0.0, 2.0, 21)]
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for eta in _ETAS:
            for delta in deltas:
                worst = max(worst, abs(analytic.cat_parity(alpha, delta, eta)) - 1.0)
    return max(0.0, worst)


@_check("sweep_dual_path", 1e-6)
def _sweep_dual_path() -> float:
    """Analytic and numeric routes agree along optimizer-driven sweeps."""
    cat = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=1.5, eta=0.9)
    worst = max(ev.max_discrepancy for ev in sweep(cat, "alpha", (1.0, 2.0), with_oracle=True))
    fock = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, eta=0.9)
    op = optimize_delta(fock)
    ev = evaluate(fock, op.phi0, with_oracle=True)
    return max(worst, ev.max_discrepancy)
