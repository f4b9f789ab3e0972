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

from .fock import _checked_eigenbasis
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


# One MAX_DIM x MAX_DIM float64 matrix, 8 MAX_DIM^2 bytes (512 KiB at 256),
# shared by every dim and built once per process; the build peaks below
# 1 MiB.
@functools.cache
def _log_binomials() -> np.ndarray:
    """L[m, n] = log C(n, m) = log n! - log m! - log (n-m)! for m <= n, and
    -inf below the diagonal, where exp(L + ...) is then zero.  Read-only."""
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, MAX_DIM)))))
    # window i is padded[i:i + MAX_DIM], so reversed window m holds log (n-m)!
    # at n >= m and +inf (making L = -inf) at n < m; a view, not a matrix
    padded = np.concatenate((np.full(MAX_DIM - 1, np.inf), log_fact))
    log_binom = log_fact - log_fact[:, None]
    log_binom -= np.lib.stride_tricks.sliding_window_view(padded, MAX_DIM)[::-1]
    log_binom.flags.writeable = False
    return log_binom


def _thinning_table(dim: int, eta) -> np.ndarray:
    """B[m, n] = C(n, m) eta^m (1-eta)^(n-m): the probability that n photons
    leave m after loss.  Upper triangular, columns sum to 1, and the identity
    at eta = 1.  Built from log-factorials, so no factorial overflows and no
    0 log 0 is formed.  The eta-free half, log C(n, m), is cached once per
    process (``_log_binomials``); the eta half and the exp are built per
    call.  ``eta`` is one efficiency, or a 1-D array of them for a stack of
    tables, one per entry, each with the bits of its single table."""
    etas = np.asarray(eta, dtype=float)
    lossless = etas == 1.0
    if lossless.all():
        return np.broadcast_to(np.eye(dim), etas.shape + (dim, dim)).copy()
    # scalar logs, as math takes them; log1p(-1) is never formed
    column = etas.shape + (1, 1)
    log_eta = np.array([math.log(e) for e in etas.flat]).reshape(column)
    log_loss = np.array([0.0 if e == 1.0 else math.log1p(-e) for e in etas.flat]).reshape(column)
    k = np.arange(dim)
    log_b = _log_binomials()[:dim, :dim] + k[:, None] * log_eta
    log_b += (k - k[:, None]) * log_loss
    table = np.exp(log_b, out=log_b)
    if lossless.any():
        table[lossless] = np.eye(dim)
    return table


# Bytes of thinning tables one batched product in ``thin`` builds at once.
# Larger stacks made no measurable difference to an eta sweep's time but did
# raise its peak memory; at MAX_DIM a product holds one table (512 KiB).
_PRODUCT_BYTES = 2 ** 17


def _tables_per_product(dim: int) -> int:
    """Efficiencies per batched product in ``thin``: at least one, and
    otherwise as many as keep their tables within ``_PRODUCT_BYTES``."""
    return max(1, _PRODUCT_BYTES // (8 * dim * dim))


def thin(probs, eta) -> np.ndarray:
    """Photon-number distribution after loss, q = B p, for one distribution p
    or for each row of a stack of them, on a basis of ``probs.shape[-1]``
    levels.

    ``eta`` is one efficiency, or a sequence of them, one per entry of the
    leading axis of ``probs`` (a distribution or a stack of them each).  A
    sequence is applied as batched products over at most
    ``_tables_per_product`` efficiencies each, with one table per distinct
    efficiency among them.

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
        step = _tables_per_product(d)
        for start in range(0, len(eta), step):
            etas = eta[start:start + step]
            distinct = dict.fromkeys(etas)
            tables = _thinning_table(d, np.array(list(distinct)))
            if len(distinct) < len(etas):
                position = {e: i for i, e in enumerate(distinct)}
                tables = tables[[position[e] for e in etas]]
            out[start:start + step] = stacks[start:start + step] @ tables.transpose(0, 2, 1)
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


def apply_loss_via_purification(state: np.ndarray, eta: float) -> np.ndarray:
    """Density matrix of ``state``, an amplitude vector, after loss of
    efficiency ``eta``: couple it to a vacuum bath with a beamsplitter
    unitary, then trace the bath out.

    Exact on the truncated space because the beamsplitter conserves total
    photon number; intended for cross-validation at small dimensions.  Each
    amplitude psi_n of |n>|0> is evolved inside its own sector N = n, in that
    sector's eigenbasis, so no d^2-dimensional operator is ever formed.  An
    efficiency outside (0, 1] or a state that is not a vector of 1 to
    MAX_DIM amplitudes is a ValueError.
    """
    _check_eta(eta)
    state = np.asarray(state)
    if not (state.ndim == 1 and 1 <= len(state) <= MAX_DIM):
        raise ValueError(f"state has shape {state.shape}, expected 1 to {MAX_DIM} amplitudes")
    d = len(state)
    theta = math.acos(math.sqrt(eta))
    psi = np.zeros((d, d), dtype=complex)  # psi[k, m]: signal k, bath m
    for n, (lam, vec) in enumerate(_beamsplitter_eigenbasis(d)):
        k = np.arange(n + 1)
        # |n>|0> is the sector's last basis vector, so V† e_last = conj(V[-1])
        psi[k, n - k] = vec @ (np.exp(-1j * theta * lam) * vec[-1].conj()) * state[n]
    rho = psi @ psi.conj().T
    return 0.5 * (rho + rho.conj().T)
