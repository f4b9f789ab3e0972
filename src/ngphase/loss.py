"""Photon loss with detector quantum efficiency eta.

The detector is modeled as a beamsplitter of power transmissivity eta mixing
the signal with vacuum.  Two equivalent constructions are provided: the Kraus
form (``apply_loss``) and a two-mode purification that traces out the bath
(``apply_loss_via_purification``), plus closed-form lossy states for the
single-photon and cat protocols.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityOperator,
    FockSpace,
    PureState,
    _checked_eigenbasis,
    _lowering,
    coherent_state,
    displace,
    fock_state,
)


@dataclass(frozen=True)
class LossChannel:
    """Trace-preserving photon-loss map of efficiency eta on a Fock space."""

    space: FockSpace
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")

    @property
    def epsilon(self) -> float:
        """Bath-amplitude ratio sqrt((1-eta)/eta)."""
        return math.sqrt((1.0 - self.eta) / self.eta)

    def kraus_terms(self) -> int:
        """Number of Kraus operators needed for this space.

        k photons are lost with binomial probability; terms are added until
        the discarded tail on the worst basis state |dim-1> drops below the
        space's tail tolerance.  k never exceeds dim-1, where the finite
        binomial sum makes the channel exactly trace preserving.
        """
        n = self.space.dim - 1
        if self.eta == 1.0:
            return 1
        p = 1.0 - self.eta
        pmf = self.eta ** n  # k = 0
        cdf = pmf
        k = 0
        target = 1.0 - self.space.tail_tol
        while cdf < target and k < n:
            pmf *= (n - k) / (k + 1) * (p / self.eta)
            k += 1
            cdf += pmf
        return k + 1

    def kraus_operators(self) -> list[np.ndarray]:
        """E_k = sqrt((1-eta)^k / k!) eta^(n/2) a^k for k = 0..kraus_terms-1."""
        d = self.space.dim
        a = _lowering(d)
        damp = np.diag(self.eta ** (0.5 * np.arange(d)))
        ops = []
        a_pow = np.eye(d, dtype=complex)
        log_loss = math.log(1.0 - self.eta) if self.eta < 1.0 else -math.inf
        for k in range(self.kraus_terms()):
            if k == 0:
                coeff = 1.0
            else:
                coeff = math.exp(0.5 * (k * log_loss - math.lgamma(k + 1)))
            ops.append(coeff * damp @ a_pow)
            a_pow = a_pow @ a
        return ops


def apply_loss(channel: LossChannel, state: PureState | DensityOperator) -> DensityOperator:
    """Kraus-sum action of the loss channel; trace preserved within tolerance."""
    if channel.space != state.space:
        raise ValueError("channel and state live in different spaces")
    if channel.eta == 1.0:
        return state.density() if isinstance(state, PureState) else state
    kraus = channel.kraus_operators()
    d = channel.space.dim
    out = np.zeros((d, d), dtype=complex)
    if isinstance(state, PureState):
        for ek in kraus:
            vec = ek @ state.amplitudes
            out += np.outer(vec, vec.conj())
    else:
        for ek in kraus:
            out += ek @ state.matrix @ ek.conj().T
    out = 0.5 * (out + out.conj().T)
    return DensityOperator(channel.space, out)


# The two-mode eigenbasis takes 16 d^4 bytes (5 MiB at d = 24): keep two.
@functools.lru_cache(maxsize=2)
def _beamsplitter_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of H = i(a b† - a† b) on the dim^2 signal ⊗ bath space.

    exp(-i theta H) maps a -> a cos(theta) + b sin(theta): coherent
    |alpha>|0> goes to |sqrt(eta) alpha>|sqrt(1-eta) alpha> at
    cos(theta)^2 = eta.
    """
    a = _lowering(dim)
    eye = np.eye(dim)
    a_sig = np.kron(a, eye)
    a_bath = np.kron(eye, a)
    return _checked_eigenbasis(1j * (a_sig @ a_bath.T - a_sig.T @ a_bath), "beamsplitter")


def apply_loss_via_purification(channel: LossChannel,
                                state: PureState) -> DensityOperator:
    """Couple to a vacuum bath with a beamsplitter unitary, then trace it out.

    Exact on the truncated space because the beamsplitter conserves total
    photon number; intended for cross-validation at small dimensions.  The
    joint state is evolved in the beamsplitter's eigenbasis, so the d^2 x d^2
    unitary is never formed.
    """
    d = channel.space.dim
    lam, vec = _beamsplitter_eigenbasis(d)
    theta = math.acos(math.sqrt(channel.eta))
    joint = np.zeros(d * d, dtype=complex)
    joint[::d] = state.amplitudes  # signal ⊗ |0>
    joint = vec @ (np.exp(-1j * theta * lam) * (vec.conj().T @ joint))
    psi = joint.reshape(d, d)
    rho = psi @ psi.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(channel.space, rho)


def lossy_displaced_fock1(space: FockSpace, delta: float, eta: float) -> DensityOperator:
    """Displaced single photon after detection loss.

    eta D(d')|1><1|D(d')† + (1-eta) D(d')|0><0|D(d')† with d' = delta sqrt(eta):
    loss commutes through the displacement at the cost of shrinking it.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    delta_p = [delta * math.sqrt(eta)]
    one = displace(fock_state(space, 1), delta_p)[0].amplitudes
    vac = displace(fock_state(space, 0), delta_p)[0].amplitudes
    rho = eta * np.outer(one, one.conj()) + (1.0 - eta) * np.outer(vac, vac.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(space, rho)


def lossy_displaced_cat(space: FockSpace, alpha: float, delta: float,
                        eta: float) -> DensityOperator:
    """Displaced even cat after detection loss, in closed coherent-state form.

    With alpha' = sqrt(eta) alpha, delta' = sqrt(eta) delta the state is a
    mixture of |±alpha' + i delta'> whose coherences are damped by
    exp(-2 (1-eta) alpha^2):

        (1/K) [ |u><u| + |v><v|
                + e^{-2(1-eta) alpha^2} (e^{2i a'd'} |u><v| + h.c.) ],

    u = alpha' + i delta', v = -alpha' + i delta', K = 2(1 + e^{-2 alpha^2}).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    alpha = float(alpha)
    alpha_p = math.sqrt(eta) * alpha
    delta_p = math.sqrt(eta) * delta
    u = coherent_state(space, alpha_p + 1j * delta_p).amplitudes
    v = coherent_state(space, -alpha_p + 1j * delta_p).amplitudes
    damping = math.exp(-2.0 * (1.0 - eta) * alpha * alpha)
    phase = np.exp(2j * alpha_p * delta_p)
    norm_k = 2.0 * (1.0 + math.exp(-2.0 * alpha * alpha))
    cross = damping * phase * np.outer(u, v.conj())
    rho = (np.outer(u, u.conj()) + np.outer(v, v.conj()) + cross + cross.conj().T) / norm_k
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(space, rho)
