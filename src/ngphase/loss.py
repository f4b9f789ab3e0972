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

import numpy as np

from .fock import _checked_eigenbasis, _freeze, _powers_of
from .limits import MAX_DIM

# Bounds ``thin`` holds every lossy distribution to: no entry below
# -NEGATIVITY_ATOL, and every distribution sums to 1 within TRACE_ATOL.
TRACE_ATOL = 1e-10
NEGATIVITY_ATOL = 1e-10


def _check_eta(eta) -> None:
    """ValueError unless every efficiency in ``eta`` lies in (0, 1]."""
    etas = np.asarray(eta, dtype=float)
    bad = etas[~((etas > 0.0) & (etas <= 1.0))]
    if bad.size:
        raise ValueError(f"eta must be in (0, 1], got {bad[0]}")


# One dim x dim float64 matrix for the basis in use, 8 dim^2 bytes, so the
# cache holds at most 512 KiB (at MAX_DIM); the build peaks below 1 MiB.
@functools.lru_cache(maxsize=1)
def _log_binomials(dim: int) -> np.ndarray:
    """L[m, n] = log C(n, m) = log n! - log m! - log (n-m)! for m, n < dim
    with m <= n, and -inf below the diagonal, where exp(L + ...) is then
    zero.  Read-only.  Each entry has the same bits at every dim, because
    the cumulative log-factorials share their prefix."""
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    # window i is padded[i:i + dim], so reversed window m holds log (n-m)!
    # at n >= m and +inf (making L = -inf) at n < m; a view, not a matrix
    padded = np.concatenate((np.full(dim - 1, np.inf), log_fact))
    log_binom = log_fact - log_fact[:, None]
    log_binom -= np.lib.stride_tricks.sliding_window_view(padded, dim)[::-1]
    log_binom.flags.writeable = False
    return log_binom


def _thinning_table(dim: int, eta: float) -> np.ndarray:
    """B[m, n] = C(n, m) eta^m (1-eta)^(n-m): the probability that n photons
    leave m after loss.  Upper triangular, columns sum to 1, and the identity
    at eta = 1.  Built from log-factorials, so no factorial overflows and no
    0 log 0 is formed.  The eta-free half, log C(n, m), is cached for the
    last basis size (``_log_binomials``); the eta half and the exp are built
    per call."""
    if eta == 1.0:
        return np.eye(dim)
    k = np.arange(dim)
    log_b = _log_binomials(dim) + k[:, None] * math.log(eta)
    log_b += (k - k[:, None]) * math.log1p(-eta)
    return np.exp(log_b, out=log_b)


def thin(probs, eta) -> np.ndarray:
    """Photon-number distribution after loss, q = B p, for one distribution p
    or for each row of a stack of them, on a basis of ``probs.shape[-1]``
    levels.

    ``eta`` is one efficiency, applied to every row in one product, or a
    sequence of them, one per entry of the leading axis of ``probs`` (a
    distribution or a stack of them each), each entry thinned by its own
    table in turn.

    An efficiency outside (0, 1] or a last axis outside [1, MAX_DIM] is a
    ValueError.  Every result entry must be >= -NEGATIVITY_ATOL and every
    result must sum to 1 within TRACE_ATOL; otherwise ValueError.
    """
    probs = np.asarray(probs, dtype=float)
    if not (probs.ndim and 1 <= probs.shape[-1] <= MAX_DIM):
        raise ValueError(f"distribution has shape {probs.shape}, expected a last axis "
                         f"of 1 to {MAX_DIM} levels")
    _check_eta(eta)
    d = probs.shape[-1]
    if np.ndim(eta) == 0:
        out = probs @ _thinning_table(d, eta).T
    else:
        if len(eta) != len(probs):
            raise ValueError(f"{len(eta)} efficiencies for {len(probs)} distributions")
        stacks = probs.reshape(len(probs), -1, d)
        out = np.empty_like(stacks)
        for i, e in enumerate(eta):
            out[i] = stacks[i] @ _thinning_table(d, e).T
        out = out.reshape(probs.shape)
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
    sector's generator is tridiagonal, i(hop - hop^T) with hop the sector's
    a b†.  It is diag((-i)^k) (hop + hop^T) diag((-i)^k)^dag, so its
    eigenvectors are V = diag((-i)^k) W with W those of the real
    hop + hop^T.  exp(-i theta H) maps a -> a cos(theta) + b sin(theta):
    coherent |alpha>|0> goes to |sqrt(eta) alpha>|sqrt(1-eta) alpha> at
    cos(theta)^2 = eta.
    """
    sectors = []
    for n in range(dim):
        k = np.arange(1, n + 1)
        lam, vec = _checked_eigenbasis(np.sqrt(k * (n - k + 1.0)), "beamsplitter")
        sectors.append((lam, _freeze(_powers_of(-1j, n + 1)[:, None] * vec)))
    return tuple(sectors)


def apply_loss_via_purification(state: np.ndarray, eta) -> np.ndarray:
    """Density matrix of ``state``, an amplitude vector, after loss of
    efficiency ``eta``: couple it to a vacuum bath with a beamsplitter
    unitary, then trace the bath out.

    ``eta`` is one efficiency, or a sequence of them; a sequence gives a
    stack of density matrices, one per efficiency, in its order.  Exact on
    the truncated space because the beamsplitter conserves total photon
    number; intended for cross-validation at small dimensions.  Each
    amplitude psi_n of |n>|0> is evolved inside its own sector N = n, in that
    sector's eigenbasis, once for all efficiencies (sectors with a zero
    amplitude are skipped), so no d^2-dimensional operator is ever formed.
    An efficiency outside (0, 1] or a state that is not a vector of 1 to
    MAX_DIM amplitudes is a ValueError.
    """
    _check_eta(eta)
    state = np.asarray(state)
    if not (state.ndim == 1 and 1 <= len(state) <= MAX_DIM):
        raise ValueError(f"state has shape {state.shape}, expected 1 to {MAX_DIM} amplitudes")
    d = len(state)
    # scalar angles, as math takes them
    theta = np.array([math.acos(math.sqrt(e)) for e in np.ravel(eta)])
    psi = np.zeros((len(theta), d, d), dtype=complex)  # psi[j, k, m]: eta j, signal k, bath m
    for n, (lam, vec) in enumerate(_beamsplitter_eigenbasis(d)):
        if state[n] == 0:
            continue  # an empty sector stays zero
        k = np.arange(n + 1)
        # |n>|0> is the sector's last basis vector, so V† e_last = conj(V[-1])
        evolved = np.exp(-1j * np.multiply.outer(theta, lam)) * vec[-1].conj()
        psi[:, k, n - k] = evolved @ vec.T * state[n]
    rho = psi @ psi.conj().mT
    rho = 0.5 * (rho + rho.conj().mT)
    return rho[0] if np.ndim(eta) == 0 else rho
