"""Closed-form results for the Fock and cat detection protocols.

Conventions used throughout:

* ``delta`` is the effective displacement seen by the probe,
  delta = sqrt(N) * phi * exp(r) for phase phi, photon number N at the phase
  object and squeeze factor r.
* A detector of quantum efficiency ``eta`` shrinks amplitudes by sqrt(eta):
  delta' = sqrt(eta) delta, alpha' = sqrt(eta) alpha.
* The cat normalization is K = 2 (1 + exp(-2 alpha^2)).

Every formula here is cross-checked against the truncated-basis numerics in
the test suite.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .search import bisect_root

PRIOR_ATOL = 1e-12

# Largest Fock photon number.  The closed forms run the Laguerre recurrence,
# O(n) per evaluation, and the first-root search about 40 of them: 0.09 s at
# n = 10 000.  A number state in the oracle's basis needs n < MAX_DIM anyway.
MAX_N = 10_000

# Largest squeeze factor whose e^r is a finite float.
MAX_R = math.log(sys.float_info.max)


class StateFamily(enum.Enum):
    FOCK = "fock"
    CAT = "cat"


@dataclass(frozen=True)
class ProtocolParams:
    """One detection scenario.

    ``n`` applies to the Fock family, ``alpha`` to the cat family; ``photons``
    is the mean photon number N at the phase object; ``p0``/``p_delta`` are
    the prior probabilities of signal absence/presence (they enter only the
    Helstrom reference bound).
    """

    family: StateFamily
    photons: float
    n: int | None = None
    alpha: float | None = None
    eta: float = 1.0
    r: float = 0.0
    p0: float = 0.5
    p_delta: float = 0.5

    def __post_init__(self):
        if self.family is StateFamily.FOCK:
            if self.n is None or not 1 <= self.n <= MAX_N:
                raise ValueError(f"Fock family requires n in [1, {MAX_N}], got {self.n}")
            if self.alpha is not None:
                raise ValueError("alpha is a cat-family field")
        elif self.family is StateFamily.CAT:
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise ValueError(f"cat family requires a finite alpha > 0, got {self.alpha}")
            if self.n is not None:
                raise ValueError("n is a Fock-family field")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0 <= self.r <= MAX_R:
            raise ValueError(f"squeeze factor r must be in [0, {MAX_R:.6g}] so that e^r "
                             f"is finite, got {self.r}")
        if not 0 < self.photons < math.inf:
            raise ValueError(f"photons must be finite and > 0, got {self.photons}")
        if not (0.0 <= self.p0 <= 1.0 and 0.0 <= self.p_delta <= 1.0):
            raise ValueError("priors must lie in [0, 1]")
        if abs(self.p0 + self.p_delta - 1.0) > PRIOR_ATOL:
            raise ValueError(f"priors must sum to 1, got {self.p0 + self.p_delta}")


@dataclass(frozen=True)
class ErrorRates:
    """False-positive and false-negative probabilities of a counting strategy,
    with the Helstrom bound of the corresponding lossless discrimination as a
    reference."""

    p_fp: float
    p_fn: float
    helstrom: float

    def __post_init__(self):
        if not 0.0 <= self.p_fp <= 1.0:
            raise ValueError(f"p_fp out of range: {self.p_fp}")
        if not 0.0 <= self.p_fn <= 1.0:
            raise ValueError(f"p_fn out of range: {self.p_fn}")
        if not 0.0 <= self.helstrom <= 0.5:
            raise ValueError(f"helstrom out of range: {self.helstrom}")


# ---------------------------------------------------------------------------
# Laguerre machinery


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def laguerre_first_root(n: int) -> float:
    """Smallest positive root R_n of L_n; strictly decreasing in n."""
    if n < 1:
        raise ValueError("L_0 has no roots")
    step = 1.0 / n  # roots of L_n interlace below ~1/n scale
    x_prev, f_prev = 0.0, 1.0  # L_n(0) = 1
    x = step
    while True:
        f = laguerre(n, x)
        if f == 0.0:
            return x
        if f_prev * f < 0.0:
            return bisect_root(lambda t: laguerre(n, t), x_prev, x, tol=1e-12)
        x_prev, f_prev = x, f
        x += step


# ---------------------------------------------------------------------------
# overlaps and thresholds


def fock_overlap(n: int, delta: float) -> float:
    """<n|D(delta)|n> = L_n(delta^2) exp(-delta^2 / 2)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    d2 = delta * delta
    return laguerre(n, d2) * math.exp(-0.5 * d2)


def cat_norm(alpha: float) -> float:
    """Normalization K = 2 (1 + exp(-2 alpha^2)) of the even cat."""
    return 2.0 * (1.0 + math.exp(-2.0 * alpha * alpha))


def cat_overlap(alpha: float, delta: float) -> float:
    """Overlap of the even cat with its displaced copy:
    (2 exp(-delta^2/2) / K) (cos(2 alpha delta) + exp(-2 alpha^2))."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    k = cat_norm(alpha)
    return (2.0 * math.exp(-0.5 * delta * delta) / k) * (
        math.cos(2.0 * alpha * delta) + math.exp(-2.0 * alpha * alpha)
    )


def cat_overlap_zero(alpha: float, k: int = 0) -> float:
    """k-th zero of the cat overlap:
    delta_k = (arccos(-exp(-2 alpha^2)) + 2 pi k) / (2 alpha)."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return (math.acos(-math.exp(-2.0 * alpha * alpha)) + 2.0 * math.pi * k) / (2.0 * alpha)


def threshold_phase(params: ProtocolParams) -> float:
    """Smallest phase whose displaced probe is orthogonal to the original.

    Fock:  sqrt(R_n) exp(-r) / sqrt(eta N);
    cat:   delta_0(alpha) exp(-r) / sqrt(eta N).
    The 1/sqrt(eta) factor restores the detector-side displacement eaten by
    the loss; at eta = 1 these are the lossless thresholds.
    """
    if params.family is StateFamily.FOCK:
        target = math.sqrt(laguerre_first_root(params.n))
    else:
        target = cat_overlap_zero(params.alpha, 0)
    return target * math.exp(-params.r) / math.sqrt(params.eta * params.photons)


def helstrom(p0: float, p_delta: float, overlap_sq: float) -> float:
    """Minimum binary-discrimination error
    (1/2)(1 - sqrt(1 - 4 p0 p_delta |<psi0|psi_delta>|^2))."""
    arg = 1.0 - 4.0 * p0 * p_delta * overlap_sq
    if arg < -PRIOR_ATOL:
        raise ValueError(f"inconsistent priors/overlap: 1 - 4 p0 pd s = {arg}")
    return 0.5 * (1.0 - math.sqrt(max(0.0, arg)))


# ---------------------------------------------------------------------------
# single-photon protocol (count == 1 means "no signal")


def fock1_false_negative(delta: float, eta: float) -> float:
    """Probability of still counting one photon in the displaced lossy state:
    [eta (1 - d'^2)^2 + (1 - eta) d'^2] exp(-d'^2), d' = delta sqrt(eta)."""
    d2 = eta * delta * delta  # d'^2
    return (eta * (1.0 - d2) ** 2 + (1.0 - eta) * d2) * math.exp(-d2)


def fock1_error_rates(delta: float, eta: float,
                      p0: float = 0.5, p_delta: float = 0.5) -> ErrorRates:
    """Error rates of the single-photon counting strategy at displacement delta.

    A count of exactly one photon is read as "no signal".  The false-positive
    rate 1 - eta is the chance the photon is lost with no signal present; the
    false-negative rate is minimal at d'^2 = 1 where it equals (1 - eta)/e.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    s = fock_overlap(1, delta) ** 2
    return ErrorRates(
        p_fp=1.0 - eta,
        p_fn=fock1_false_negative(delta, eta),
        helstrom=helstrom(p0, p_delta, s),
    )


# ---------------------------------------------------------------------------
# cat protocol (odd count means "signal")


def cat_parity(alpha: float, delta: float, eta: float = 1.0) -> float:
    """Parity of the displaced cat after detection loss:
    (2 exp(-2 d'^2) / K) (exp(-2 (1-eta) alpha^2) cos(4 a' d') + exp(-2 a'^2)).

    The coherence damping exponent eps^2 alpha'^2 with
    eps = sqrt((1-eta)/eta) reduces to (1-eta) alpha^2.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    alpha_p = math.sqrt(eta) * alpha
    delta_p = math.sqrt(eta) * delta
    damping = math.exp(-2.0 * (1.0 - eta) * alpha * alpha)
    return (2.0 * math.exp(-2.0 * delta_p * delta_p) / cat_norm(alpha)) * (
        damping * math.cos(4.0 * alpha_p * delta_p) + math.exp(-2.0 * alpha_p * alpha_p)
    )


def cat_false_positive_product_form(alpha: float, eta: float) -> float:
    """(1/K)(1 - exp(-2 (1-eta) alpha^2))(1 - exp(-2 eta alpha^2)); algebraically
    identical to (1 - P_0)/2 with P_0 the undisplaced lossy parity."""
    a2 = alpha * alpha
    return (1.0 - math.exp(-2.0 * (1.0 - eta) * a2)) * (
        1.0 - math.exp(-2.0 * eta * a2)
    ) / cat_norm(alpha)


def cat_error_rates(alpha: float, delta: float, eta: float,
                    p0: float = 0.5, p_delta: float = 0.5) -> ErrorRates:
    """Error rates of the even/odd counting strategy at displacement delta.

    An odd photon count is read as "signal".  The undisplaced cat is even, so
    p_fp = (1 - P_0)/2 vanishes at eta = 1; p_fn = (1 + P_delta)/2 is the
    weight remaining on even photon numbers after displacement.  p_fp is
    evaluated through its factored form, which is exactly zero at eta = 1 and
    nonnegative by construction (the difference form rounds to +-1 ulp there).
    """
    p_delta_parity = cat_parity(alpha, delta, eta)
    s = cat_overlap(alpha, delta) ** 2
    return ErrorRates(
        p_fp=cat_false_positive_product_form(alpha, eta),
        p_fn=0.5 * (1.0 + p_delta_parity),
        helstrom=helstrom(p0, p_delta, s),
    )


def cat_pn(alpha: float, delta: float, eta: float, n: int) -> float:
    """Photon-number probability of the displaced lossy cat.

    p_n = (2 e^{-a'^2-d'^2} / (K n!)) [ (a'^2+d'^2)^n
          + e^{-2(1-eta) a^2} Re{ e^{2i a'd'} (-(a'+i d')^2)^n } ].
    Evaluated in log space so large n does not overflow the factorial.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    alpha_p = math.sqrt(eta) * alpha
    delta_p = math.sqrt(eta) * delta
    lam = alpha_p * alpha_p + delta_p * delta_p
    if lam == 0.0:
        envelope = 1.0 if n == 0 else 0.0
    else:
        envelope = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
    if envelope == 0.0:
        return 0.0
    damping = math.exp(-2.0 * (1.0 - eta) * alpha * alpha)
    # -(a'+id')^2 has modulus lam; only its phase survives in the ratio.
    angle = 2.0 * alpha_p * delta_p + n * (math.pi + 2.0 * math.atan2(delta_p, alpha_p))
    return (2.0 / cat_norm(alpha)) * envelope * (1.0 + damping * math.cos(angle))


# ---------------------------------------------------------------------------
# baselines


def baseline_phase_errors(photons: float, r: float = 0.0) -> tuple[float, float]:
    """(shot-noise, squeezed) mean phase errors 1/(2 sqrt(N)) and e^-r/(2 sqrt(N))."""
    if not photons > 0:
        raise ValueError(f"photon number must be > 0, got {photons}")
    snl = 0.5 / math.sqrt(photons)
    return snl, snl * math.exp(-r)
