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
from typing import Callable

PRIOR_ATOL = 1e-12

# Largest Fock photon number.  The closed forms run the Laguerre recurrence,
# O(n) per evaluation, and the first-root search about 45 of them: 0.09 s at
# n = 10 000.  A number state in the oracle's basis needs n < MAX_DIM anyway.
MAX_N = 10_000

# Largest squeeze factor whose e^r is a finite float.
MAX_R = math.log(sys.float_info.max)


def cat_amplitude_in_range(alpha: float) -> bool:
    """Whether alpha > 0 and 2 alpha^2, the exponent of the cat's norm and
    parity, is a finite float (alpha up to about 9.5e153)."""
    return alpha > 0 and math.isfinite(2.0 * alpha * alpha)


class StateFamily(enum.Enum):
    FOCK = "fock"
    CAT = "cat"


@dataclass(frozen=True)
class ProtocolParams:
    """One detection scenario.

    ``n`` applies to the Fock family, ``alpha`` to the cat family; ``photons``
    is the mean photon number N at the phase object; ``p0`` is the prior
    probability of signal absence, 1 - p0 that of its presence (they enter
    only the Helstrom reference bound).
    """

    family: StateFamily
    photons: float
    n: int | None = None
    alpha: float | None = None
    eta: float = 1.0
    r: float = 0.0
    p0: float = 0.5

    def __post_init__(self):
        if self.family is StateFamily.FOCK:
            if self.n is None or not 1 <= self.n <= MAX_N:
                raise ValueError(f"Fock family requires n in [1, {MAX_N}], got {self.n}")
            if self.alpha is not None:
                raise ValueError("alpha is a cat-family field")
        elif self.family is StateFamily.CAT:
            if self.alpha is None or not cat_amplitude_in_range(self.alpha):
                raise ValueError(f"cat family requires alpha > 0 with 2 alpha^2 a finite "
                                 f"float, got {self.alpha}")
            if self.n is not None:
                raise ValueError("n is a Fock-family field")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0 <= self.r <= MAX_R:
            raise ValueError(f"squeeze factor r must be in [0, {MAX_R:.6g}] so that e^r "
                             f"is finite, got {self.r}")
        if not 0 < self.photons < math.inf:
            raise ValueError(f"photons must be finite and > 0, got {self.photons}")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("priors must lie in [0, 1]")


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
    return _laguerre_pair(n, x)[1]


def _laguerre_pair(n: int, x: float) -> tuple[float, float]:
    """(L_{n-1}(x), L_n(x)) by the three-term recurrence, for n >= 1."""
    prev, cur = 1.0, 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return prev, cur


def laguerre_first_root(n: int) -> float:
    """Smallest positive root R_n of L_n; strictly decreasing in n.

    A scan in steps of 1/n brackets the root by the first sign change,
    bisection narrows the bracket below a width of 1e-12 (at most 200
    halvings), and up to four Newton steps, with L_n' = n (L_n - L_{n-1}) / x,
    polish the midpoint inside that bracket: the bisection alone leaves the
    root about 1e-12 off, 1,945 ulps at n = 2.
    """
    if n < 1:
        raise ValueError("L_0 has no roots")
    step = 1.0 / n  # roots of L_n interlace below ~1/n scale
    lo, flo = 0.0, 1.0  # L_n(0) = 1
    hi = step
    while True:
        f = laguerre(n, hi)
        if f == 0.0:
            return hi
        if flo * f < 0.0:
            break
        lo, flo = hi, f
        hi += step
    for _ in range(200):
        x = 0.5 * (lo + hi)
        fx = laguerre(n, x)
        if fx == 0.0:
            return x
        if hi - lo < 1e-12:
            break
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx
    for _ in range(4):
        prev, cur = _laguerre_pair(n, x)
        if cur == 0.0 or cur == prev:
            break
        step = x * cur / (n * (cur - prev))
        if not lo <= x - step <= hi:
            break
        x -= step
    return x


# ---------------------------------------------------------------------------
# overlaps and thresholds


# Where the Laguerre recurrence would overflow, ``fock_overlap`` divides it by
# 2^_SCALE_BITS (about 1e200) and counts the bits divided out.
_SCALE_BITS = 664
# ln 2 split so that _LN2_HI times an integer below 2^21 is exact (fdlibm's
# split): the power of two then meets exp(-delta^2 / 2) in one exponent whose
# rounding is relative to the result, not to delta^2.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def fock_overlap(n: int, delta: float) -> float:
    """<n|D(delta)|n> = L_n(delta^2) exp(-delta^2 / 2).

    Where that product is not finite (L_n overflowing while the exponential
    underflows), the recurrence is rerun with L divided by 2^_SCALE_BITS
    whenever |L| exceeds it, and the bits divided out are carried into the
    exponent.  A negative n is laguerre's ValueError.
    """
    d2 = delta * delta
    value = laguerre(n, d2) * math.exp(-0.5 * d2)
    if math.isfinite(value) or not math.isfinite(d2):
        return value
    prev, cur, bits = 1.0, 1.0 - d2, 0
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - d2) * cur - k * prev) / (k + 1)
        if abs(cur) > 2.0 ** _SCALE_BITS:
            prev, cur = math.ldexp(prev, -_SCALE_BITS), math.ldexp(cur, -_SCALE_BITS)
            bits += _SCALE_BITS
    mantissa, exponent = math.frexp(cur)
    bits += exponent
    return mantissa * math.exp((bits * _LN2_HI - 0.5 * d2) + bits * _LN2_LO)


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

    Nothing else in the package calls it, on purpose: with
    ``baseline_phase_errors`` it encodes the paper's threshold-versus-shot-noise
    claim, acceptance criterion 7.
    """
    if params.family is StateFamily.FOCK:
        target = math.sqrt(laguerre_first_root(params.n))
    else:
        target = cat_overlap_zero(params.alpha, 0)
    return target * math.exp(-params.r) / math.sqrt(params.eta * params.photons)


def helstrom(p0: float, overlap_sq: float) -> float:
    """Minimum error of discriminating two pure states with priors p0 and
    1 - p0: (1/2)(1 - sqrt(1 - 4 q s)), q = p0 (1 - p0), s = |<psi0|psi_delta>|^2.

    It is evaluated as 2 q s / (1 + sqrt(a)) with a = (1 - 2 p0)^2 + 4 q (1 - s),
    the same number without cancellation: a sum of two nonnegative terms in
    place of 1 - 4 q s, and a sum in place of 1 - sqrt(a).  The direct form
    loses about eight ulps at a prior of 0.98 on a barely displaced state, and
    all but a few digits near p0 = 1/2, s = 1; this one stays within two ulps.
    """
    q = p0 * (1.0 - p0)
    arg = (1.0 - 2.0 * p0) ** 2 + 4.0 * q * (1.0 - overlap_sq)
    if arg < -PRIOR_ATOL:
        raise ValueError(f"inconsistent prior/overlap: 1 - 4 p0 (1 - p0) s = {arg}")
    return 2.0 * q * overlap_sq / (1.0 + math.sqrt(max(0.0, arg)))


# ---------------------------------------------------------------------------
# single-photon protocol (count == 1 means "no signal")


def fock1_false_negative(delta: float, eta: float) -> float:
    """Probability of still counting one photon in the displaced lossy state:
    [eta (1 - d'^2)^2 + (1 - eta) d'^2] exp(-d'^2), d' = delta sqrt(eta)."""
    d2 = eta * delta * delta  # d'^2
    return (eta * (1.0 - d2) ** 2 + (1.0 - eta) * d2) * math.exp(-d2)


def fock1_error_rates(delta: float, eta: float, p0: float = 0.5) -> ErrorRates:
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
        helstrom=helstrom(p0, s),
    )


# ---------------------------------------------------------------------------
# cat protocol (odd count means "signal")


def cat_parity_curve(alpha: float, eta: float = 1.0) -> Callable[[float], float]:
    """Lossy parity of the displaced cat as a function of delta, for one
    (alpha, eta):
    (2 exp(-2 d'^2) / K) (exp(-2 (1-eta) alpha^2) cos(4 a' d') + exp(-2 a'^2)).

    The coherence damping exponent eps^2 alpha'^2 with
    eps = sqrt((1-eta)/eta) reduces to (1-eta) alpha^2.  Every delta-free
    factor is computed here once; the returned function does one exp and one
    cos per delta, and carries those factors as the attributes ``norm`` (K),
    ``damping`` (exp(-2 (1-eta) alpha^2)) and ``floor`` (exp(-2 a'^2)), so a
    caller can bound the curve without rebuilding them.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    root_eta = math.sqrt(eta)
    alpha_p = root_eta * alpha
    four_alpha_p = 4.0 * alpha_p
    k = cat_norm(alpha)
    damping = math.exp(-2.0 * (1.0 - eta) * alpha * alpha)
    floor = math.exp(-2.0 * alpha_p * alpha_p)

    def parity(delta: float) -> float:
        delta_p = root_eta * delta
        return (2.0 * math.exp(-2.0 * delta_p * delta_p) / k) * (
            damping * math.cos(four_alpha_p * delta_p) + floor
        )

    parity.norm, parity.damping, parity.floor = k, damping, floor
    return parity


def cat_parity(alpha: float, delta: float, eta: float = 1.0) -> float:
    """Parity of the displaced cat after detection loss at one delta; see
    ``cat_parity_curve``."""
    return cat_parity_curve(alpha, eta)(delta)


def cat_false_positive_product_form(alpha: float, eta: float) -> float:
    """(1/K)(1 - exp(-2 (1-eta) alpha^2))(1 - exp(-2 eta alpha^2)); algebraically
    identical to (1 - P_0)/2 with P_0 the undisplaced lossy parity.  Each
    factor 1 - exp(-x) is formed as -expm1(-x): the difference cancels as
    eta -> 1, to a relative error of 2.6e-7 at alpha = 0.31, eta = 1 - 1.05e-9."""
    a2 = alpha * alpha
    return (-math.expm1(-2.0 * (1.0 - eta) * a2)) * (
        -math.expm1(-2.0 * eta * a2)
    ) / cat_norm(alpha)


def cat_error_rates(alpha: float, delta: float, eta: float, p0: float = 0.5) -> ErrorRates:
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
        helstrom=helstrom(p0, s),
    )


def cat_pn(alpha: float, delta: float, eta: float, levels: int) -> list[float]:
    """Photon-number distribution p_0 .. p_{levels-1} of the displaced lossy cat.

    p_n = (2 e^{-a'^2-d'^2} / (K n!)) [ (a'^2+d'^2)^n
          + e^{-2(1-eta) a^2} Re{ e^{2i a'd'} (-(a'+i d')^2)^n } ].
    Each entry is evaluated in log space, so large n does not overflow the
    factorial; the n-free factors (a', d', their log-modulus and phase, the
    damping and K) are computed once for all levels.
    """
    if not levels >= 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    alpha_p = math.sqrt(eta) * alpha
    delta_p = math.sqrt(eta) * delta
    lam = alpha_p * alpha_p + delta_p * delta_p
    if lam == 0.0:
        envelopes = [1.0] + [0.0] * (levels - 1)
    else:
        log_lam = math.log(lam)
        envelopes = [math.exp(n * log_lam - lam - math.lgamma(n + 1)) for n in range(levels)]
    scale = 2.0 / cat_norm(alpha)
    damping = math.exp(-2.0 * (1.0 - eta) * alpha * alpha)
    # -(a'+id')^2 has modulus lam; only its phase survives in the ratio.
    shift = 2.0 * alpha_p * delta_p
    turn = math.pi + 2.0 * math.atan2(delta_p, alpha_p)
    return [0.0 if envelope == 0.0
            else scale * envelope * (1.0 + damping * math.cos(shift + n * turn))
            for n, envelope in enumerate(envelopes)]


# ---------------------------------------------------------------------------
# baselines


def baseline_phase_errors(photons: float, r: float = 0.0) -> tuple[float, float]:
    """(shot-noise, squeezed) mean phase errors 1/(2 sqrt(N)) and e^-r/(2 sqrt(N)).

    Nothing else in the package calls it, on purpose: with ``threshold_phase``
    it encodes the paper's threshold-versus-shot-noise claim, acceptance
    criterion 7.
    """
    if not photons > 0:
        raise ValueError(f"photon number must be > 0, got {photons}")
    snl = 0.5 / math.sqrt(photons)
    return snl, snl * math.exp(-r)
