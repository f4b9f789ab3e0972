"""The lossy cat's photon-number probabilities, one n per call, kept in the
tests as the reference ``analytic.cat_pn`` must match bit for bit.

This is the scalar form the program evaluated once per level before
``cat_pn`` returned a whole distribution; every factor is recomputed per n.
"""

import math

from ngphase.analytic import cat_norm


def scalar_cat_pn(alpha: float, delta: float, eta: float, n: int) -> float:
    """p_n = (2 e^{-a'^2-d'^2} / (K n!)) [ (a'^2+d'^2)^n
    + e^{-2(1-eta) a^2} Re{ e^{2i a'd'} (-(a'+i d')^2)^n } ], in log space."""
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
    angle = 2.0 * alpha_p * delta_p + n * (math.pi + 2.0 * math.atan2(delta_p, alpha_p))
    return (2.0 / cat_norm(alpha)) * envelope * (1.0 + damping * math.cos(angle))
