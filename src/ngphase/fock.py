"""Truncated Fock-space engine: states, displacement, squeezing, sizing.

Everything lives in a finite basis |0>..|D-1>, described by a ``FockSpace``,
the one carrier of the basis size and the leakage tolerance.  A state is a
read-only complex amplitude vector of that length, and ``displace`` returns
one read-only row per displacement; overlaps (``np.vdot``) and photon-number
distributions (``np.abs(rows) ** 2``) are read off those arrays directly.
The truncation dimension holds the probability mass the untruncated state
would carry above the cutoff ("leakage") near the space's tolerance, by
the exact Poisson tail; see ``recommend_dim``.  ``cat_state`` and ``displace``
raise LeakageError where a state's leakage exceeds that tolerance.  All
values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import cat_norm
from .limits import DEFAULT_TAIL_TOL, MAX_DIM

# Extra levels on top of the leakage-based cutoff.  Truncating the generator
# a + a† makes exp(i delta (a + a†)) wrong near the top of the basis, however
# exactly it is exponentiated; the margin quarantines that block, and
# ``displace`` raises where a state reaches it anyway.
DIM_MARGIN = 20

# Eigenbases kept per generator, one per basis size.
_EIGENBASIS_CACHE = 32


class LeakageError(RuntimeError):
    """A state cannot be represented in the space within its tail tolerance."""


class ConvergenceError(RuntimeError):
    """An eigendecomposition or a generator parameter came out non-finite."""


@dataclass(frozen=True)
class FockSpace:
    """Finite photon-number basis |0>..|dim-1| with a leakage budget."""

    dim: int
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if not 2 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in [2, {MAX_DIM}], got {self.dim}")
        if not self.tail_tol > 0:
            raise ValueError(f"tail_tol must be > 0, got {self.tail_tol}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# generators


def _checked_eigenbasis(off: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs (lam, W) of the real symmetric tridiagonal T with
    zero diagonal and off-diagonal ``off``: T = W diag(lam) W^T, W real
    orthogonal.  Every generator H here is such a T, or is one up to a
    diagonal unitary of phases, H = P T P^dag; then exp(-i t H) =
    V diag(e^{-i t lam}) V^dag with V = P W."""
    lam, vec = np.linalg.eigh(np.diag(off, k=1) + np.diag(off, k=-1))
    if not (np.isfinite(lam).all() and np.isfinite(vec).all()):
        raise ConvergenceError(f"{label}: eigendecomposition produced non-finite entries")
    return _freeze(lam), _freeze(vec)


def _phases(times, lam: np.ndarray, label: str) -> np.ndarray:
    """e^{-i t lam} for each t (one row per t); non-finite times are rejected."""
    times = np.asarray(times, dtype=float)
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ConvergenceError(f"{label}({bad[0]}): non-finite parameter")
    return np.exp(-1j * np.multiply.outer(times, lam))


def _powers_of(unit: complex, count: int) -> np.ndarray:
    """unit^k for k = 0..count-1, exactly, for unit one of 1j and -1j."""
    return np.array([1.0, unit, -1.0, -unit])[np.arange(count) % 4]


def _as_states(space: FockSpace, states) -> np.ndarray:
    """``states`` as a contiguous complex array: one state on ``space``, or a
    2-D array of them, one per row; any other shape is a ValueError."""
    states = np.ascontiguousarray(states, dtype=complex)
    if states.ndim not in (1, 2) or states.shape[-1] != space.dim:
        raise ValueError(f"states have shape {states.shape}, expected ({space.dim},) or "
                         f"(k, {space.dim})")
    return states


@functools.lru_cache(maxsize=_EIGENBASIS_CACHE)
def _quadrature_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the real tridiagonal X = a + a†; V is real orthogonal.

    The eigenvalues are sqrt(2) times the roots of the Hermite polynomial
    H_dim (Golub & Welsch, Math. Comp. 23, 1969).
    """
    return _checked_eigenbasis(np.sqrt(np.arange(1, dim, dtype=float)), "displacement")


@functools.lru_cache(maxsize=_EIGENBASIS_CACHE)
def _squeeze_eigenbasis(dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs (lam, W) of H = (i/2)(a†^2 - a^2), with S(r) = exp(-i r H),
    one pair per photon-number parity p = 0, 1 on the levels n = p + 2k.

    H couples n only to n + 2, by <n+2|H|n> = (i/2) sqrt((n+1)(n+2)), so on
    each parity it is diag(i^k) T diag(i^k)^dag with T real symmetric
    tridiagonal, and its eigenvectors there are V = diag(i^k) W.
    """
    n = np.arange(dim - 2, dtype=float)
    off = 0.5 * np.sqrt((n + 1.0) * (n + 2.0))
    return tuple(_checked_eigenbasis(off[parity::2], "squeeze") for parity in (0, 1))


def squeeze(space: FockSpace, states, r: float) -> np.ndarray:
    """S(r) psi for each state psi in ``states``, one read-only row per state
    (a lone state gives one vector), with S†(r) a S(r) = a cosh r + a† sinh r
    and S†(r) = S(-r).

    ``states`` is one state on ``space`` or a 2-D array of them, one per row;
    a last axis other than ``space.dim`` is a ValueError.  Each parity block
    is one product in its real eigenbasis (``_squeeze_eigenbasis``), so no
    dense S(r) is formed.
    """
    states = _as_states(space, states)
    out = np.empty_like(states)
    for parity, (lam, vec) in enumerate(_squeeze_eigenbasis(space.dim)):
        # as rows, S psi = psi^T conj(V) diag(e^{-i r lam}) V^T with V = diag(i^k) W
        phases = _powers_of(1j, len(lam))
        coeffs = (states[..., parity::2] * phases.conj()) @ vec
        coeffs *= _phases(r, lam, "squeeze")
        out[..., parity::2] = (coeffs @ vec.T) * phases
    return _freeze(out)


# ---------------------------------------------------------------------------
# states


def fock_state(space: FockSpace, n: int) -> np.ndarray:
    """Number state |n>."""
    if not 0 <= n < space.dim:
        raise ValueError(f"n={n} outside [0, {space.dim})")
    amps = np.zeros(space.dim, dtype=complex)
    amps[n] = 1.0
    return _freeze(amps)


def _coherent_amplitudes(space: FockSpace, alpha: float) -> np.ndarray:
    """Untruncated coherent amplitudes <n|alpha> on the finite basis.

    A float recurrence; multiplying by 1/sqrt(n) rounds as numpy's complex
    division by sqrt(n) did, so every amplitude keeps its bits.
    """
    amp = math.exp(-0.5 * abs(alpha) ** 2)
    amps = [amp]
    for n in range(1, space.dim):
        amp = amp * alpha * (1.0 / math.sqrt(n))
        amps.append(amp)
    return np.array(amps, dtype=complex)


def cat_state(space: FockSpace, alpha: float) -> np.ndarray:
    """Even superposition (|alpha> + |-alpha>)/sqrt(K), K = 2(1+exp(-2 alpha^2))
    from ``analytic.cat_norm``.

    Contains even photon numbers only; the odd amplitudes are exactly zero.
    """
    alpha = float(alpha)
    amps = _coherent_amplitudes(space, alpha)
    amps[1::2] = 0.0
    amps[0::2] *= 2.0
    captured = float(np.vdot(amps, amps).real)
    leakage = max(0.0, 1.0 - captured / cat_norm(alpha))
    if leakage > space.tail_tol:
        raise LeakageError(
            f"cat_state(alpha={alpha}): leakage {leakage:.3e} exceeds "
            f"tail_tol {space.tail_tol:.3e} at dim {space.dim}"
        )
    return _freeze(amps / math.sqrt(captured))


# ---------------------------------------------------------------------------
# readout and displacement


def parity_signs(dim: int) -> np.ndarray:
    """(-1)^n for n = 0..dim-1: the parity readout of a photon-number distribution."""
    return np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)


def _top_levels(dim: int) -> int:
    """Levels at the top of the basis that the displacement guard watches.

    Not all DIM_MARGIN of them: on a recommended basis the margin's lowest
    levels hold up to 1.6e-12, which would trip the default tail_tol, while
    the top five hold under 1e-9 of it.  dim // 4 keeps tiny bases guarded.
    """
    return min(5, max(1, dim // 4))


def displace(space: FockSpace, states, deltas) -> np.ndarray:
    """D(delta) psi = exp(i delta (a + a†)) psi for every delta in ``deltas``:
    one read-only (len(deltas), space.dim) array, a row per delta.

    ``states`` is one state on ``space`` displaced by every delta, or a 2-D
    array of them, one row per delta.  A last axis other than ``space.dim``,
    a row count other than ``len(deltas)`` or a state norm further than 1e-6
    from 1 is a ValueError (a gross-error guard; ``fock_state`` and
    ``cat_state`` hold 1e-12).  One matrix product in the cached eigenbasis
    of a + a†.  Truncating the generator makes D(delta) wrong once a
    displaced state reaches the top of the basis, so a LeakageError is
    raised where the probability a result puts on its top
    ``_top_levels(dim)`` levels exceeds the space's ``tail_tol``; its
    message advises a larger dim below ``MAX_DIM`` and names that limit at it.
    """
    states = _as_states(space, states)
    if states.ndim == 2 and len(states) != len(deltas):
        raise ValueError(f"{len(states)} states for {len(deltas)} displacements")
    norms = np.linalg.norm(states, axis=-1).reshape(-1)
    bad = norms[~(np.abs(norms - 1.0) <= 1e-6)]
    if bad.size:
        raise ValueError(f"state norm {bad[0]} too far from 1")
    lam, vec = _quadrature_eigenbasis(space.dim)
    phases = _phases(np.negative(deltas), lam, "displacement")
    # in place: a steps x dim block fewer at MAX_STEPS
    phases *= vec.T @ states if states.ndim == 1 else states @ vec
    rows = phases @ vec.T
    levels = _top_levels(space.dim)
    top = np.sum(np.abs(rows[:, -levels:]) ** 2, axis=1)
    bad = np.flatnonzero(~(top <= space.tail_tol))
    if bad.size:
        i = bad[0]
        advice = ("increase dim" if space.dim < MAX_DIM
                  else f"the state needs a basis above MAX_DIM={MAX_DIM}")
        raise LeakageError(
            f"displace(delta={float(deltas[i])!r}): {top[i]:.3e} of the probability sits "
            f"in the top {levels} levels, above tail_tol {space.tail_tol:.3e} at dim "
            f"{space.dim}; {advice}"
        )
    return _freeze(rows)


# ---------------------------------------------------------------------------
# truncation sizing


def recommend_dim(max_alpha: float, max_delta: float,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Basis size for states of coherent amplitude up to sqrt(alpha^2 + delta^2).

    The size is ``DIM_MARGIN`` levels above n0 (at least 2), the least level
    with P(N >= n0) <= tail_tol for N ~ Poisson(alpha^2 + delta^2); the margin
    absorbs what truncating the generator a + a† does to the top of the
    basis.  The tail is summed from the top, smallest term first, starting
    past the mean where a term falls below 2^-60 tail_tol, so n0 is the exact
    cutoff (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, ch. 4).  A size above ``MAX_DIM`` is a ValueError.
    """
    if not (0 <= max_alpha < math.inf and 0 <= max_delta < math.inf):
        raise ValueError(f"amplitudes must be finite and >= 0, got {max_alpha}, {max_delta}")
    if not tail_tol > 0:
        raise ValueError("tail_tol must be > 0")
    lam = max_alpha * max_alpha + max_delta * max_delta
    negligible = math.ldexp(tail_tol, -60)
    term = math.exp(-lam)
    terms = [term]
    for n in range(1, 2 * MAX_DIM + 1):
        if n > lam and term <= negligible:
            # the terms fall from here on
            break
        term *= lam / n
        terms.append(term)
    n0, tail = len(terms), 0.0
    while n0 and tail + terms[n0 - 1] <= tail_tol:
        n0 -= 1
        tail += terms[n0]
    dim = max(2, n0) + DIM_MARGIN
    if len(terms) > 2 * MAX_DIM or dim > MAX_DIM:
        raise ValueError(f"mean photon number {lam:g} needs a basis above MAX_DIM={MAX_DIM} "
                         f"at tail_tol {tail_tol:g}")
    return dim
