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
from .fock import (
    FockSpace,
    PureState,
    cat_state,
    displace,
    fock_state,
    overlap,
    parity_signs,
    photon_distribution,
    recommend_dim,
    squeeze,
    trace_distance,
)
from .loss import (
    LossChannel,
    apply_loss,
    apply_loss_via_purification,
    lossy_displaced_cat,
    lossy_displaced_fock1,
    thin,
)
from .protocols import evaluate, optimize_delta, sweep


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    discrepancy: float
    tolerance: float
    seconds: float


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
    grids for a quick smoke run.
    """
    if grid not in ("small", "full"):
        raise ValueError(f"grid must be 'small' or 'full', got {grid!r}")
    results = []
    for name, default_tol, fn in _REGISTRY:
        if names is not None and name not in names:
            continue
        tol = default_tol if tolerance is None else tolerance
        start = time.perf_counter()
        disc = fn(grid)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, disc < tol, disc, tol, elapsed))
    return results


# ---------------------------------------------------------------------------
# grids


def _etas(grid: str) -> list[float]:
    return [0.5, 0.98] if grid == "small" else [0.5, 0.8, 0.9, 0.95, 0.98, 1.0]


def _space_for(alpha: float, delta: float) -> FockSpace:
    return FockSpace(recommend_dim(alpha, delta))


def _rows(states) -> np.ndarray:
    return np.array([state.amplitudes for state in states])


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
        probe = fock_state(space, n)
        worst = max(worst, abs(overlap(probe, displace(probe, [delta])[0])))
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
    """Thinned photon statistics, read as the oracle reads them, reproduce the
    closed-form rates."""
    worst = 0.0
    for eta in (0.8, 0.9, 0.98):
        delta = 1.0 / math.sqrt(eta)
        space = _space_for(1.0, delta)
        probe = fock_state(space, 1)
        displaced = displace(probe, [delta])[0]
        p_quiet, p_signal = thin(LossChannel(space, eta),
                                 [photon_distribution(probe), photon_distribution(displaced)])
        worst = max(worst, abs((1.0 - p_quiet[1]) - (1.0 - eta)),
                    abs(p_signal[1] - (1.0 - eta) / math.e))
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
            probe = cat_state(space, alpha)
            worst = max(worst, abs(overlap(probe, displace(probe, [delta])[0])))
    return worst


@_check("lossy_cat_statistics", 1e-8)
def _lossy_cat_statistics(grid: str) -> float:
    """Parity of the thinned distribution (the oracle's readout) and per-n
    photon probabilities of the Kraus-channel state, for the displaced cat,
    against their closed forms."""
    alphas = (1.0, 3.0) if grid == "small" else (1.0, 2.0, 3.0)
    deltas = (0.4,) if grid == "small" else (0.1, 0.4, 0.8)
    worst = 0.0
    for alpha in alphas:
        for delta in deltas:
            space = _space_for(alpha, delta)
            displaced = displace(cat_state(space, alpha), [delta])[0]
            for eta in _etas(grid):
                channel = LossChannel(space, eta)
                q = thin(channel, photon_distribution(displaced))
                rho = apply_loss(channel, displaced)
                closed = np.array([analytic.cat_pn(alpha, delta, eta, n)
                                   for n in range(space.dim)])
                worst = max(worst,
                            abs(float(parity_signs(space.dim) @ q)
                                - analytic.cat_parity(alpha, delta, eta)),
                            float(np.max(np.abs(photon_distribution(rho) - closed))))
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
                lhs = _rows(displace(PureState(space, s_mat[:, n]), deltas)) @ s_mat.conj()
                rhs = _rows(displace(fock_state(space, n), deltas * math.exp(r)))
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
            probe = fock_state(space, n)
            numeric = overlap(probe, displace(probe, [delta])[0])
            worst = max(worst, abs(numeric - analytic.fock_overlap(n, delta)))
    return worst


@_check("cat_overlap_formula", 1e-8)
def _cat_overlap_formula(grid: str) -> float:
    worst = 0.0
    for alpha in (1.0, 1.5, 3.0):
        for delta in (0.1, 0.3, 1.0, 2.0):
            space = _space_for(alpha, delta)
            probe = cat_state(space, alpha)
            numeric = overlap(probe, displace(probe, [delta])[0])
            worst = max(worst, abs(numeric - analytic.cat_overlap(alpha, delta)))
    return worst


@_check("loss_trace_positivity", 1e-9)
def _loss_trace_positivity(grid: str) -> float:
    """Channel outputs stay unit-trace and positive."""
    worst = 0.0
    for eta in _etas(grid):
        for make in (lambda s: fock_state(s, 3), lambda s: cat_state(s, 1.5),
                     lambda s: displace(cat_state(s, 1.5), [0.7])[0]):
            space = _space_for(1.5, 0.7)
            rho = apply_loss(LossChannel(space, eta), make(space))
            worst = max(worst, abs(rho.trace - 1.0))
            worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(rho.matrix)[0])))
    return worst


@_check("loss_composition", 1e-8)
def _loss_composition(grid: str) -> float:
    """loss(eta1) after loss(eta2) equals loss(eta1 * eta2)."""
    space = _space_for(1.5, 0.5)
    state = displace(cat_state(space, 1.5), [0.5])[0]
    worst = 0.0
    for eta1, eta2 in ((0.9, 0.8), (0.95, 0.5)):
        seq = apply_loss(LossChannel(space, eta1), apply_loss(LossChannel(space, eta2), state))
        direct = apply_loss(LossChannel(space, eta1 * eta2), state)
        worst = max(worst, trace_distance(seq, direct))
    return worst


@_check("kraus_purification_equivalence", 1e-9)
def _kraus_purification(grid: str) -> float:
    """Tracing the bath out of the beamsplitter purification matches the Kraus sum."""
    space = FockSpace(24)
    worst = 0.0
    for eta in (0.5, 0.9, 0.98):
        channel = LossChannel(space, eta)
        for state in (fock_state(space, 2), cat_state(space, 1.0)):
            worst = max(worst, trace_distance(
                apply_loss(channel, state),
                apply_loss_via_purification(channel, state)))
    return worst


@_check("loss_thinning_vs_purification", 1e-9)
def _thinning_purification(grid: str) -> float:
    """Binomial thinning of |psi|^2 matches the diagonal of the purified lossy state."""
    space = FockSpace(24)
    states = (fock_state(space, 2), cat_state(space, 1.0),
              displace(cat_state(space, 1.0), [0.6])[0])
    worst = 0.0
    for eta in (0.5, 0.9, 0.98):
        channel = LossChannel(space, eta)
        thinned = thin(channel, [photon_distribution(state) for state in states])
        for q, state in zip(thinned, states):
            purified = photon_distribution(apply_loss_via_purification(channel, state))
            worst = max(worst, float(np.max(np.abs(q - purified))))
    return worst


@_check("lossy_closed_forms_vs_kraus", 1e-9)
def _lossy_closed_forms(grid: str) -> float:
    """The commuted closed-form lossy states equal the Kraus-channel outputs."""
    worst = 0.0
    space = _space_for(1.0, 0.8)
    displaced = displace(fock_state(space, 1), [0.8])[0]
    worst = max(worst, trace_distance(
        lossy_displaced_fock1(space, 0.8, 0.9),
        apply_loss(LossChannel(space, 0.9), displaced)))
    space = _space_for(1.5, 0.3)
    displaced = displace(cat_state(space, 1.5), [0.3])[0]
    worst = max(worst, trace_distance(
        lossy_displaced_cat(space, 1.5, 0.3, 0.8),
        apply_loss(LossChannel(space, 0.8), displaced)))
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
    result = sweep(cat, "alpha", (1.0, 2.0), with_oracle=True)
    worst = result.max_discrepancy
    fock = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, eta=0.9)
    op = optimize_delta(fock)
    ev = evaluate(fock, op.phi0, with_oracle=True)
    return max(worst, ev.max_discrepancy)
