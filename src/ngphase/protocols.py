"""End-to-end evaluation of detection scenarios.

Maps a candidate phase to the effective displacement, produces error rates
through the closed forms and (optionally) through the full truncated-basis
numeric path, and locates the optimal operating point for each probe family.
The oracle modules (``fock``, ``loss``) are imported inside the functions that
use them, so the closed-form route runs without numpy.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import analytic
from .analytic import ErrorRates, ProtocolParams, StateFamily
from .limits import DEFAULT_TAIL_TOL

if TYPE_CHECKING:
    import numpy as np

    from .fock import FockSpace


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


def _oracle_space(points, dim: int | None, tail_tol: float) -> FockSpace:
    """The one basis of an oracle command over ``points``, pairs (params,
    delta): ``dim`` levels if given, else ``recommend_dim`` for the largest
    probe amplitude and the largest |delta| among them."""
    from .fock import FockSpace, recommend_dim

    if dim is None:
        amplitude = max(math.sqrt(params.n) if params.family is StateFamily.FOCK
                        else params.alpha for params, _ in points)
        dim = recommend_dim(amplitude, max(abs(delta) for _, delta in points), tail_tol)
    return FockSpace(dim, tail_tol)


def _probe_state(params: ProtocolParams, space: FockSpace) -> np.ndarray:
    """The probe on ``space``: the Fock state |n> or the even cat of amplitude alpha."""
    from .fock import cat_state, fock_state

    if params.family is StateFamily.FOCK:
        return fock_state(space, params.n)
    return cat_state(space, params.alpha)


def _readout(points, space: FockSpace):
    """The oracle's counting statistics for ``points``, pairs (params, delta)
    of one probe family: each distinct probe built once on ``space``, one
    ``displace`` of every point's probe by its delta, and one ``thin`` of the
    displaced states and the quiet probes with one table per distinct eta.
    Returns, per point, the quiet readout, the signal readout (the
    probability of n photons for a Fock probe, the parity for a cat) and the
    overlap <probe|D(delta) probe>."""
    import numpy as np

    from .fock import displace, parity_signs
    from .loss import thin

    fock = points[0][0].family is StateFamily.FOCK
    index, probes, which = {}, [], []  # distinct probes, and the probe of each point
    for params, _ in points:
        key = params.n if fock else params.alpha
        if key not in index:
            index[key] = len(probes)
            probes.append(_probe_state(params, space))
        which.append(index[key])
    probes = np.array(probes)
    displaced = displace(space, probes[0] if len(probes) == 1 else probes[which],
                         [delta for _, delta in points])
    signal, quiet = np.abs(displaced) ** 2, np.abs(probes) ** 2
    etas = [params.eta for params, _ in points]
    if len(set(etas)) == 1:
        # quiet rows last, so each signal row keeps its index (BLAS rounding
        # can depend on it)
        q = thin(np.concatenate((signal, quiet)), etas[0])
        signal_rows, quiet_rows = np.arange(len(points)), len(points) + np.array(which)
    else:
        q = thin(np.stack((signal, quiet[which]), axis=1), etas)
        q = q.reshape(-1, space.dim)  # point i: signal row 2i, quiet row 2i + 1
        signal_rows, quiet_rows = np.arange(0, len(q), 2), np.arange(1, len(q), 2)
    if fock:
        ns = [params.n for params, _ in points]
        counts_signal, counts_quiet = q[signal_rows, ns], q[quiet_rows, ns]
    else:
        counts = q @ parity_signs(space.dim)
        counts_signal, counts_quiet = counts[signal_rows], counts[quiet_rows]
    return (counts_quiet.tolist(), counts_signal.tolist(),
            [complex(np.vdot(probes[i], row)) for i, row in zip(which, displaced)])


# Rounding moves the oracle's rates past [0, 1] by at most about 2e-15; a rate
# further out than this is a fault, not rounding.
_CLAMP_TOL = 1e-12


class OracleRangeError(ArithmeticError):
    """A numeric rate lies outside [0, 1] by more than rounding explains."""


def _clamped(p: float, name: str) -> float:
    """``p`` clamped into [0, 1], or OracleRangeError beyond ``_CLAMP_TOL``."""
    if not -_CLAMP_TOL <= p <= 1.0 + _CLAMP_TOL:
        raise OracleRangeError(f"numeric {name} {p!r} lies outside [0, 1] by more than "
                               f"{_CLAMP_TOL:g}")
    return min(max(p, 0.0), 1.0)


def _numeric_rates(points, space: FockSpace) -> list[ErrorRates]:
    """Rates from the truncated-basis simulation, one per point (params,
    delta), from one ``_readout`` on ``space``."""
    rates = []
    for (params, _), quiet, signal, o in zip(points, *_readout(points, space)):
        if params.family is StateFamily.FOCK:
            # a count of exactly n photons reads "no signal"
            p_fp, p_fn = 1.0 - quiet, signal
        else:
            # an odd count reads "signal"
            p_fp, p_fn = 0.5 * (1.0 - quiet), 0.5 * (1.0 + signal)
        rates.append(ErrorRates(p_fp=_clamped(p_fp, "p_fp"), p_fn=_clamped(p_fn, "p_fn"),
                                helstrom=analytic.helstrom(params.p0, params.p_delta,
                                                           min(abs(o) ** 2, 1.0))))
    return rates


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


def _closed_form_evaluation(params: ProtocolParams, phi: float, with_oracle: bool) -> Evaluation:
    """The closed-form half of ``evaluate``; ``_add_oracle`` adds the other."""
    delta = phi_to_delta(params, phi)
    try:
        rates = _analytic_rates(params, delta)
    except ValueError as exc:
        # with valid params, only a delta past float range gets here: an
        # overflowing cosine argument, square or Laguerre value
        raise ValueError(f"displacement delta {delta!r} is out of the closed forms' "
                         f"float range") from exc
    if rates is None and not with_oracle:
        raise UnsupportedProtocolError(
            f"no closed form for lossy Fock n={params.n}; rerun with the numeric oracle"
        )
    return Evaluation(phi=phi, delta=delta, delta_detected=math.sqrt(params.eta) * delta,
                      analytic=rates, numeric=None)


def _add_oracle(points, dim: int | None, tail_tol: float) -> list[Evaluation]:
    """The evaluations of ``points``, pairs (params, evaluation), with the
    rates of one ``_numeric_rates`` on one basis."""
    pairs = [(params, ev.delta) for params, ev in points]
    rates = _numeric_rates(pairs, _oracle_space(pairs, dim, tail_tol))
    return [Evaluation(ev.phi, ev.delta, ev.delta_detected, ev.analytic, numeric)
            for (_, ev), numeric in zip(points, rates)]


def evaluate(params: ProtocolParams, phi: float, *, with_oracle: bool = False,
             dim: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL) -> Evaluation:
    """Error rates for detecting phase ``phi`` under ``params``.

    ``with_oracle`` additionally runs the independent numeric route, on a
    basis of ``dim`` levels if given, and reports both.  Lossy Fock probes
    with n >= 2 have no closed form; they require the oracle.
    """
    ev = _closed_form_evaluation(params, phi, with_oracle)
    return _add_oracle([(params, ev)], dim, tail_tol)[0] if with_oracle else ev


_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

# The scan's cells: cell i ends at d' = i hi / 64, where the parity's cosine
# argument 4 alpha' d' is i pi / 32 for every (alpha, eta).
_N_CELLS = 64
_CELL_COS = [math.cos(i * math.pi / 32) for i in range(_N_CELLS + 1)]
# Blocks of 4 cells as (first, last, least cosine on them), deepest first.  The
# cosine falls to -1 at cell 32 and rises after it, so a block without cell 32
# has its least cosine at an end.
_SCAN_BLOCKS = sorted(
    ((a, a + 3, -1.0 if a <= 32 <= a + 3 else min(_CELL_COS[a], _CELL_COS[a + 3]))
     for a in range(1, _N_CELLS + 1, 4)),
    key=lambda block: block[2])
# Rounding moves a parity value and its bound by about 1e-15 each.
_SCAN_MARGIN = 1e-12


def _cat_parity_minimum(alpha: float, eta: float) -> tuple[float, float]:
    """Detector-side displacement d' that minimizes the lossy cat parity over
    (0, pi / (2 alpha')), and the parity there.

    A 64-cell scan finds the lowest cell (the parity develops a secondary
    ripple inside the bracket), then a golden-section search narrows it.  Both
    read the factors K, D and F of one ``analytic.cat_parity_curve`` and
    evaluate the curve's own expression, operands in its order, at delta =
    d' / sqrt(eta), with no call per value; tests hold the result to a search
    that calls the curve.  The parity returned is the curve's value at the
    returned d'.

    The scan takes the cells in blocks of 4, deepest cosine first, and skips a
    block whose lower bound is at least the lowest parity read so far plus
    ``_SCAN_MARGIN``.
    The parity is (2/K) e^{-2 d'^2} g with g = D cos(4 alpha' d') + F, where
    K, D and F are the curve's own factors.  On cells a..b, g is at least
    g_min = D c_min + F, with c_min the least tabled cosine there, and
    e^{-2 d'^2} falls with d'; so the parity is at least (2/K) e^{-2 x^2} g_min,
    with x the d' of cell b if g_min >= 0 and of cell a if not.  Each computed
    value and each computed bound is off by about 1e-15 (at most 8.3e-16
    apart over 30,000 random and figure-grid (alpha, eta)), far inside the
    1e-12 margin, so every skipped cell lies strictly above a value already
    read: it can neither be the lowest cell nor tie it.  Blocks come in order
    of c_min and D >= 0, so after the first block with g_min >= 0 every block
    has one, and a bound >= 0; once the lowest value plus the margin is <= 0,
    the scan stops there, skipping exactly the blocks the bound would.  The
    lowest cell, the first of equal ones, is the one a full scan finds, and
    the search, which only it feeds, returns the same bits.  Where every
    parity underflows to zero (tiny alpha), every bound is zero too and all 64
    cells are read.
    """
    # The search runs in d' and the curve takes delta, which it scales by
    # sqrt(eta) again; the d' -> delta -> d' round trip is kept because
    # printed optima depend on its rounding.
    root_eta = math.sqrt(eta)
    amplitude = root_eta * alpha
    hi = 0.5 * math.pi / amplitude if amplitude > 0.0 else math.inf
    # the scan reads the curve at delta = (i hi / 64) / sqrt(eta) for i <= 64
    if not math.isfinite(_N_CELLS * hi / root_eta):
        raise ValueError(f"alpha {alpha!r} and eta {eta!r} put the cat operating point "
                         f"out of float range")
    curve = analytic.cat_parity_curve(alpha, eta)
    k, damping, floor = curve.norm, curve.damping, curve.floor
    scale, four_alpha_p = 2.0 / k, 4.0 * amplitude
    exp, cos, golden = math.exp, math.cos, _GOLDEN_RATIO

    best, best_parity = 0, math.inf
    for first, last, c_min in _SCAN_BLOCKS:
        g_min = damping * c_min + floor
        if g_min >= 0.0 and best_parity + _SCAN_MARGIN <= 0.0:
            break  # this and every later block has g_min >= 0: a bound >= 0, skipped
        x = (last if g_min >= 0.0 else first) * hi / _N_CELLS
        if scale * exp(-2.0 * x * x) * g_min >= best_parity + _SCAN_MARGIN:
            continue
        for i in range(first, last + 1):
            d = root_eta * (i * hi / _N_CELLS / root_eta)
            parity = (2.0 * exp(-2.0 * d * d) / k) * (damping * cos(four_alpha_p * d) + floor)
            if parity < best_parity or (parity == best_parity and i < best):
                best, best_parity = i, parity
    lo = (best - 1) * hi / _N_CELLS if best > 1 else (hi / _N_CELLS) / 2.0
    hi = (best + 1) * hi / _N_CELLS if best < _N_CELLS else hi

    # Golden-section search on [lo, hi] down to a width of 1e-10.
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    d = root_eta * (x1 / root_eta)
    f1 = (2.0 * exp(-2.0 * d * d) / k) * (damping * cos(four_alpha_p * d) + floor)
    d = root_eta * (x2 / root_eta)
    f2 = (2.0 * exp(-2.0 * d * d) / k) * (damping * cos(four_alpha_p * d) + floor)
    for _ in range(500):
        if hi - lo < 1e-10:
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            d = root_eta * (x1 / root_eta)
            f1 = (2.0 * exp(-2.0 * d * d) / k) * (damping * cos(four_alpha_p * d) + floor)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            d = root_eta * (x2 / root_eta)
            f2 = (2.0 * exp(-2.0 * d * d) / k) * (damping * cos(four_alpha_p * d) + floor)
    delta_detected = 0.5 * (lo + hi)
    return delta_detected, curve(delta_detected / root_eta)


def optimize_delta(params: ProtocolParams) -> OperatingPoint:
    """Operating point with the lowest false-negative rate.

    Fock: the detector-side displacement sits at the first overlap zero,
    d' = sqrt(R_n) (for n = 1 this is d'^2 = 1, which also minimizes the lossy
    false-negative rate).  Cat: the d' that minimizes the lossy parity, found
    by ``_cat_parity_minimum`` (a coarse scan, then a golden-section search,
    both evaluating one ``analytic.cat_parity_curve``'s expression inline).

    The phase is phi0 = d' / (sqrt(eta N) e^r).  An eta N below the least
    normal float, or a phi0 that is not a finite normal float, is a
    ValueError naming eta, N and r: phi0 would print as 0 (the rates of
    delta = 0) or lose digits to subnormal rounding.
    """
    if params.family is StateFamily.FOCK:
        if params.n != 1 and params.eta < 1.0:
            raise UnsupportedProtocolError(
                f"no lossy operating-point formula for Fock n={params.n}"
            )
        delta_detected = math.sqrt(analytic.laguerre_first_root(params.n))
        source = OperatingPointSource.ANALYTIC_THRESHOLD
    else:
        delta_detected, _ = _cat_parity_minimum(params.alpha, params.eta)
        source = OperatingPointSource.PARITY_MINIMIZED
    eta_photons = params.eta * params.photons
    phi0 = (delta_detected / (math.sqrt(eta_photons) * math.exp(params.r))
            if eta_photons >= sys.float_info.min else 0.0)
    if not sys.float_info.min <= phi0 < math.inf:
        raise ValueError(f"eta {params.eta!r}, photons {params.photons!r} and r {params.r!r} "
                         f"put the operating phase phi0 out of float range")
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


def _params_at(params: ProtocolParams, axis: str, value: float) -> ProtocolParams:
    if axis == "n":
        if not float(value).is_integer():
            raise ValueError(f"n axis values must be finite integers, got {value!r}")
        # checked before int(), which would spell out a huge value in full
        if not 1 <= value <= analytic.MAX_N:
            raise ValueError(f"n axis values require n in [1, {analytic.MAX_N}], "
                             f"got {value!r}")
        return dataclasses.replace(params, n=int(value))
    return dataclasses.replace(params, **{axis: value})


def sweep(params: ProtocolParams, axis: str, values, *, with_oracle: bool = False,
          dim: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[Evaluation, ...]:
    """The evaluations of a scenario along one axis, one per value, in input order.

    For the ``delta`` axis each value is taken as the displacement itself;
    along every other axis the operating point is re-optimized per point.
    Every point is checked first (its parameters, its operating point and its
    closed form); then the oracle runs once over all of them on one basis, as
    ``evaluate`` runs it for one point.  ``dim`` sets that basis.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    points = []
    for index, value in enumerate(values):
        try:
            if axis == "delta":
                point_params, phi = params, delta_to_phi(params, float(value))
            else:
                point_params = _params_at(params, axis, value)
                phi = optimize_delta(point_params).phi0
            points.append((point_params, _closed_form_evaluation(point_params, phi, with_oracle)))
        except Exception as exc:
            error = InvalidSweepPointError if isinstance(exc, ValueError) else SweepPointError
            raise error(index, float(value), exc) from exc
    if with_oracle and points:
        return tuple(_add_oracle(points, dim, tail_tol))
    return tuple(ev for _, ev in points)
