"""End-to-end evaluation of detection scenarios.

Maps a candidate phase to the effective displacement, produces error rates
through the closed forms and (optionally) through the full truncated-basis
numeric path, and locates the optimal operating point for each probe family.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from . import analytic
from .analytic import ErrorRates, ProtocolParams, StateFamily
from .fock import (
    DEFAULT_TAIL_TOL,
    FockSpace,
    cat_state,
    displace,
    fock_state,
    overlap,
    parity_signs,
    photon_distribution,
    recommend_dim,
)
from .loss import LossChannel, thin
from .search import golden_section_minimize


class UnsupportedProtocolError(ValueError):
    """Requested combination has no analytic form (lossy Fock with n >= 2)."""


class OperatingPointSource(enum.Enum):
    ANALYTIC_THRESHOLD = "analytic-threshold"
    PARITY_MINIMIZED = "parity-minimized"


@dataclass(frozen=True)
class OperatingPoint:
    """Chosen phase and the displacement the detector sees there.

    ``delta`` is the detector-side displacement sqrt(eta) sqrt(N) phi0 e^r;
    at eta = 1 it coincides with the displacement at the interferometer output.
    """

    phi0: float
    delta: float
    source: OperatingPointSource


@dataclass(frozen=True)
class Evaluation:
    """Error rates of one scenario at one phase, by one or both routes."""

    phi: float
    delta: float
    delta_detected: float
    analytic: ErrorRates | None
    numeric: ErrorRates | None

    @property
    def rates(self) -> ErrorRates:
        rates = self.analytic if self.analytic is not None else self.numeric
        if rates is None:
            raise ValueError("evaluation carries no rates")
        return rates

    @property
    def max_discrepancy(self) -> float | None:
        if self.analytic is None or self.numeric is None:
            return None
        return max(
            abs(self.analytic.p_fp - self.numeric.p_fp),
            abs(self.analytic.p_fn - self.numeric.p_fn),
            abs(self.analytic.helstrom - self.numeric.helstrom),
        )


def phi_to_delta(params: ProtocolParams, phi: float) -> float:
    """Effective displacement sqrt(N) phi e^r at the interferometer output;
    a phase that gives no finite displacement is a ValueError."""
    delta = math.sqrt(params.photons) * phi * math.exp(params.r)
    if not math.isfinite(delta):
        raise ValueError(f"phi {phi!r} gives a non-finite displacement delta = {delta!r}")
    return delta


def delta_to_phi(params: ProtocolParams, delta: float) -> float:
    return delta * math.exp(-params.r) / math.sqrt(params.photons)


def _probe_amplitude(params: ProtocolParams) -> float:
    if params.family is StateFamily.FOCK:
        return math.sqrt(params.n)
    return params.alpha


def _default_space(params: ProtocolParams, delta: float, tail_tol: float) -> FockSpace:
    dim = recommend_dim(_probe_amplitude(params), abs(delta), tail_tol)
    return FockSpace(dim, tail_tol)


def _numeric_rates(params: ProtocolParams, delta: float, space: FockSpace) -> ErrorRates:
    """Rates from the truncated-basis simulation: build the probe, displace it,
    thin the photon-number distributions of both through the loss channel, and
    read off the counting statistics."""
    if params.family is StateFamily.FOCK:
        probe = fock_state(space, params.n)
    else:
        probe = cat_state(space, params.alpha)
    displaced = displace(probe, [delta])[0]
    q_quiet, q_signal = thin(LossChannel(space, params.eta),
                             [photon_distribution(probe), photon_distribution(displaced)])
    if params.family is StateFamily.FOCK:
        p_fp = 1.0 - q_quiet[params.n]
        p_fn = q_signal[params.n]
    else:
        signs = parity_signs(space.dim)
        p_fp = 0.5 * (1.0 - float(signs @ q_quiet))
        p_fn = 0.5 * (1.0 + float(signs @ q_signal))
    overlap_sq = abs(overlap(probe, displaced)) ** 2
    return ErrorRates(
        p_fp=min(max(p_fp, 0.0), 1.0),
        p_fn=min(max(p_fn, 0.0), 1.0),
        helstrom=analytic.helstrom(params.p0, params.p_delta, min(overlap_sq, 1.0)),
    )


def _analytic_rates(params: ProtocolParams, delta: float) -> ErrorRates | None:
    """Closed-form rates, or None where no closed form exists."""
    if params.family is StateFamily.CAT:
        return analytic.cat_error_rates(
            params.alpha, delta, params.eta, params.p0, params.p_delta
        )
    if params.n == 1:
        return analytic.fock1_error_rates(delta, params.eta, params.p0, params.p_delta)
    if params.eta == 1.0:
        # Lossless n-photon counting: orthogonality drives both errors.
        s = analytic.fock_overlap(params.n, delta) ** 2
        return ErrorRates(p_fp=0.0, p_fn=s, helstrom=analytic.helstrom(params.p0, params.p_delta, s))
    return None


def evaluate(params: ProtocolParams, phi: float, *, with_oracle: bool = False,
             space: FockSpace | None = None,
             tail_tol: float = DEFAULT_TAIL_TOL) -> Evaluation:
    """Error rates for detecting phase ``phi`` under ``params``.

    ``with_oracle`` additionally runs the independent numeric route and
    reports both.  Lossy Fock probes with n >= 2 have no closed form; they
    require the oracle.
    """
    delta = phi_to_delta(params, phi)
    rates = _analytic_rates(params, delta)
    if rates is None and not with_oracle:
        raise UnsupportedProtocolError(
            f"no closed form for lossy Fock n={params.n}; rerun with the numeric oracle"
        )
    numeric = None
    if with_oracle:
        numeric = _numeric_rates(params, delta, space or _default_space(params, delta, tail_tol))
    return Evaluation(
        phi=phi,
        delta=delta,
        delta_detected=math.sqrt(params.eta) * delta,
        analytic=rates,
        numeric=numeric,
    )


def optimize_delta(params: ProtocolParams) -> OperatingPoint:
    """Operating point with the lowest false-negative rate.

    Fock: the detector-side displacement sits at the first overlap zero,
    d' = sqrt(R_n) (for n = 1 this is d'^2 = 1, which also minimizes the lossy
    false-negative rate).  Cat: golden-section minimization of the lossy
    parity over d' in (0, pi / (2 alpha')), seeded by a coarse scan since the
    parity develops a secondary ripple inside the bracket.
    """
    if params.family is StateFamily.FOCK:
        if params.n != 1 and params.eta < 1.0:
            raise UnsupportedProtocolError(
                f"no lossy operating-point formula for Fock n={params.n}"
            )
        delta_detected = math.sqrt(analytic.laguerre_first_root(params.n))
        source = OperatingPointSource.ANALYTIC_THRESHOLD
    else:
        alpha_p = math.sqrt(params.eta) * params.alpha
        hi = 0.5 * math.pi / alpha_p

        def parity_at(delta_p: float) -> float:
            return analytic.cat_parity(params.alpha, delta_p / math.sqrt(params.eta), params.eta)

        n_cells = 64
        probes = [(i * hi / n_cells, parity_at(i * hi / n_cells)) for i in range(1, n_cells + 1)]
        best = min(range(len(probes)), key=lambda i: probes[i][1])
        lo_cell = probes[best - 1][0] if best > 0 else probes[0][0] / 2.0
        hi_cell = probes[best + 1][0] if best + 1 < len(probes) else hi
        delta_detected, _ = golden_section_minimize(parity_at, lo_cell, hi_cell, tol=1e-10)
        source = OperatingPointSource.PARITY_MINIMIZED
    phi0 = delta_detected / (math.sqrt(params.eta * params.photons) * math.exp(params.r))
    return OperatingPoint(phi0=phi0, delta=delta_detected, source=source)


SWEEP_AXES = ("alpha", "eta", "n", "delta", "r")


class SweepPointError(RuntimeError):
    """Failure at one sweep point, tagged with its index."""

    def __init__(self, index: int, value: float, cause: Exception):
        super().__init__(f"sweep point {index} (value {value!r}) failed: {cause}")
        self.index = index
        self.value = value


class InvalidSweepPointError(SweepPointError, ValueError):
    """A sweep point whose parameters are invalid (the cause is a ValueError)."""


@dataclass(frozen=True)
class SweepResult:
    """Per-point evaluations along one axis, in input order."""

    axis: str
    values: tuple[float, ...]
    points: tuple[Evaluation, ...]
    operating_points: tuple[OperatingPoint | None, ...]

    @property
    def max_discrepancy(self) -> float | None:
        gaps = [p.max_discrepancy for p in self.points if p.max_discrepancy is not None]
        return max(gaps) if gaps else None


def _params_at(params: ProtocolParams, axis: str, value: float) -> ProtocolParams:
    if axis == "n":
        return dataclasses.replace(params, n=int(value))
    return dataclasses.replace(params, **{axis: value})


def sweep(params: ProtocolParams, axis: str, values, *, with_oracle: bool = False,
          tail_tol: float = DEFAULT_TAIL_TOL) -> SweepResult:
    """Evaluate a scenario along one axis.

    For the ``delta`` axis each value is taken as the displacement itself;
    for every other axis the operating point is re-optimized per point.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    evaluations = []
    operating = []
    for index, value in enumerate(values):
        try:
            if axis == "delta":
                point_params = params
                phi = delta_to_phi(params, float(value))
                op = None
            else:
                point_params = _params_at(params, axis, value)
                op = optimize_delta(point_params)
                phi = op.phi0
            ev = evaluate(point_params, phi, with_oracle=with_oracle, tail_tol=tail_tol)
        except Exception as exc:
            error = InvalidSweepPointError if isinstance(exc, ValueError) else SweepPointError
            raise error(index, float(value), exc) from exc
        evaluations.append(ev)
        operating.append(op)
    return SweepResult(
        axis=axis,
        values=tuple(float(v) for v in values),
        points=tuple(evaluations),
        operating_points=tuple(operating),
    )
