"""Photon loss with detector quantum efficiency eta.

The detector is modeled as a beamsplitter of power transmissivity eta mixing
the signal with vacuum.  Counting statistics go through the binomial thinning
table (``thin``): loss maps a photon-number distribution p to B p with
B_mn = C(n, m) eta^m (1-eta)^(n-m) (Kelley & Kleiner, Phys. Rev. 136, A316,
1964).  The full lossy state is built only as an independent reference: a
two-mode purification that traces out the bath
(``apply_loss_via_purification``), which shares no code with ``thin``.  The
beamsplitter conserves total photon number (Campos, Saleh & Teich, Phys. Rev.
A 40, 1371, 1989), so the purification diagonalizes its generator once per
photon-number sector rather than on the whole two-mode space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, PureState, _check_same_space, _checked_eigenbasis

# Bounds ``thin`` holds every lossy distribution to: no entry below
# -NEGATIVITY_ATOL, and every distribution sums to 1 within TRACE_ATOL.
TRACE_ATOL = 1e-10
NEGATIVITY_ATOL = 1e-10


@dataclass(frozen=True)
class LossChannel:
    """Trace-preserving photon-loss map of efficiency eta on a Fock space."""

    space: FockSpace
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")


def _thinning_table(dim: int, eta: float) -> np.ndarray:
    """B[m, n] = C(n, m) eta^m (1-eta)^(n-m): the probability that n photons
    leave m after loss.  Upper triangular, columns sum to 1, and the identity
    at eta = 1.  Built from log-factorials on the triangle m <= n, so no
    factorial overflows and no 0 log 0 is formed.  Not cached: the build costs
    the same order, O(dim^2), as the product it feeds, and the oracle rarely
    asks twice for one (dim, eta)."""
    if eta == 1.0:
        return np.eye(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    m, n = np.triu_indices(dim)
    log_b = (log_fact[n] - log_fact[m] - log_fact[n - m]
             + m * math.log(eta) + (n - m) * math.log1p(-eta))
    table = np.zeros((dim, dim))
    table[m, n] = np.exp(log_b)
    return table


def thin(channel: LossChannel, probs) -> np.ndarray:
    """Photon-number distribution after loss, q = B p, for one distribution p
    or for each row of a stack of them.

    Every result entry must be >= -NEGATIVITY_ATOL and every result must sum
    to 1 within TRACE_ATOL; otherwise ValueError.
    """
    probs = np.asarray(probs, dtype=float)
    d = channel.space.dim
    if probs.shape[-1:] != (d,):
        raise ValueError(f"distribution has shape {probs.shape}, expected (..., {d})")
    out = probs @ _thinning_table(d, channel.eta).T
    low = float(np.min(out))
    if not low >= -NEGATIVITY_ATOL:
        raise ValueError(f"thinned distribution not positive: min entry {low:.3e}")
    defect = float(np.max(np.abs(np.sum(out, axis=-1) - 1.0)))
    if not defect <= TRACE_ATOL:
        raise ValueError(f"thinned distribution sums to 1 only within {defect:.3e}, "
                         f"beyond {TRACE_ATOL}")
    return out


# One eigenbasis per photon-number sector N < d, 16 (N+1)^2 bytes each and
# about 16 d^3 / 3 bytes in all (78 KB at d = 24): keep two.
@functools.lru_cache(maxsize=2)
def _beamsplitter_eigenbasis(dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs of H = i(a b† - a† b) in each sector of total photon number
    N = 0..dim-1, on the basis |k>|N-k> for k = 0..N.

    H conserves N, and a b† |k, N-k> = sqrt(k (N-k+1)) |k-1, N-k+1>, so each
    sector's generator is tridiagonal.  exp(-i theta H) maps
    a -> a cos(theta) + b sin(theta): coherent |alpha>|0> goes to
    |sqrt(eta) alpha>|sqrt(1-eta) alpha> at cos(theta)^2 = eta.
    """
    sectors = []
    for n in range(dim):
        k = np.arange(1, n + 1)
        hop = np.diag(np.sqrt(k * (n - k + 1.0)), k=1)  # a b† on |k>|n-k>
        sectors.append(_checked_eigenbasis(1j * (hop - hop.T), "beamsplitter"))
    return tuple(sectors)


def apply_loss_via_purification(channel: LossChannel, state: PureState) -> np.ndarray:
    """Density matrix of ``state`` after loss: couple it to a vacuum bath with a
    beamsplitter unitary, then trace the bath out.

    Exact on the truncated space because the beamsplitter conserves total
    photon number; intended for cross-validation at small dimensions.  Each
    amplitude psi_n of |n>|0> is evolved inside its own sector N = n, in that
    sector's eigenbasis, so no d^2-dimensional operator is ever formed.
    ``state`` must live in ``channel.space`` (else SpaceMismatchError).
    """
    _check_same_space(state, channel)
    d = channel.space.dim
    theta = math.acos(math.sqrt(channel.eta))
    psi = np.zeros((d, d), dtype=complex)  # psi[k, m]: signal k, bath m
    for n, (lam, vec) in enumerate(_beamsplitter_eigenbasis(d)):
        k = np.arange(n + 1)
        # |n>|0> is the sector's last basis vector, so V† e_last = conj(V[-1])
        psi[k, n - k] = vec @ (np.exp(-1j * theta * lam) * vec[-1].conj()) * state.amplitudes[n]
    rho = psi @ psi.conj().T
    return 0.5 * (rho + rho.conj().T)
