"""Truncated Fock-space engine: states, displacement, photon statistics.

Everything lives in a finite basis |0>..|D-1>.  The truncation dimension is
chosen so that the probability mass the untruncated state would carry above
the cutoff ("leakage") stays below a configurable tolerance; see
``recommend_dim``.  ``cat_state`` and ``displace`` raise LeakageError where a
state's leakage exceeds that tolerance; no state stores it.  All values are
immutable after construction and safe to share between threads.
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


class SpaceMismatchError(ValueError):
    """Operands live in different Fock spaces."""


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


def _check_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"space mismatch: {a.space} vs {b.space}")


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over the Fock basis."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)"
            )
        # Gross-error guard only; constructors guarantee 1e-12.
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state norm {norm} too far from 1")
        object.__setattr__(self, "amplitudes", _freeze(amps))


# ---------------------------------------------------------------------------
# generators


def _lowering(dim: int) -> np.ndarray:
    """Real matrix of the ladder operator a on dim levels."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def _checked_eigenbasis(hermitian: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs (lam, V) of a Hermitian generator H = V diag(lam) V†,
    so that exp(-i t H) = V diag(e^{-i t lam}) V† for every t."""
    lam, vec = np.linalg.eigh(hermitian)
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


@functools.lru_cache(maxsize=_EIGENBASIS_CACHE)
def _quadrature_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the real tridiagonal X = a + a†; V is real orthogonal.

    The eigenvalues are sqrt(2) times the roots of the Hermite polynomial
    H_dim (Golub & Welsch, Math. Comp. 23, 1969).
    """
    a = _lowering(dim)
    return _checked_eigenbasis(a + a.T, "displacement")


@functools.lru_cache(maxsize=_EIGENBASIS_CACHE)
def _squeeze_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of H = (i/2)(a†^2 - a^2), with S(r) = exp(-i r H)."""
    a = _lowering(dim)
    return _checked_eigenbasis(0.5j * (a.T @ a.T - a @ a), "squeeze")


def squeeze(space: FockSpace, r: float) -> np.ndarray:
    """Matrix of the squeeze operator S(r), with S†(r) a S(r) = a cosh r + a† sinh r."""
    lam, vec = _squeeze_eigenbasis(space.dim)
    return (vec * _phases(r, lam, "squeeze")) @ vec.conj().T


# ---------------------------------------------------------------------------
# states


def fock_state(space: FockSpace, n: int) -> PureState:
    """Number state |n>."""
    if not 0 <= n < space.dim:
        raise ValueError(f"n={n} outside [0, {space.dim})")
    amps = np.zeros(space.dim, dtype=complex)
    amps[n] = 1.0
    return PureState(space, amps)


def _coherent_amplitudes(space: FockSpace, alpha: float) -> np.ndarray:
    """Untruncated coherent amplitudes <n|alpha> on the finite basis."""
    amps = np.empty(space.dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, space.dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def cat_state(space: FockSpace, alpha: float) -> PureState:
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
    return PureState(space, amps / math.sqrt(captured))


# ---------------------------------------------------------------------------
# expectations and maps


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    _check_same_space(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def photon_distribution(state: PureState) -> np.ndarray:
    """Probability of each photon number; sums to 1 for valid inputs."""
    return np.abs(state.amplitudes) ** 2


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


def displace(state, deltas) -> list[PureState]:
    """D(delta) state = exp(i delta (a + a†)) state for every delta in ``deltas``.

    ``state`` is one PureState displaced by every delta, or a sequence of
    them, one per delta, all on one space.  One matrix product in the cached
    eigenbasis of a + a†.  Truncating the generator makes D(delta) wrong once
    a displaced state reaches the top of the basis, so a LeakageError is
    raised where the probability a result puts on its top ``_top_levels(dim)``
    levels exceeds the space's ``tail_tol``.
    """
    single = isinstance(state, PureState)
    states = [state] if single else list(state)
    space = states[0].space
    for other in states[1:]:
        _check_same_space(states[0], other)
    lam, vec = _quadrature_eigenbasis(space.dim)
    phases = _phases(np.negative(deltas), lam, "displacement")
    if single:
        coefficients = vec.T @ state.amplitudes
    elif len(states) == len(phases):
        coefficients = np.array([s.amplitudes for s in states]) @ vec
    else:
        raise ValueError(f"{len(states)} states for {len(phases)} displacements")
    phases *= coefficients  # in place: a steps x dim block fewer at MAX_STEPS
    rows = phases @ vec.T
    levels = _top_levels(space.dim)
    top = np.sum(np.abs(rows[:, -levels:]) ** 2, axis=1)
    bad = np.flatnonzero(~(top <= space.tail_tol))
    if bad.size:
        i = bad[0]
        raise LeakageError(
            f"displace(delta={float(deltas[i])!r}): {top[i]:.3e} of the probability sits "
            f"in the top {levels} levels, above tail_tol {space.tail_tol:.3e} at dim "
            f"{space.dim}; increase dim"
        )
    return [PureState(space, row) for row in rows]


# ---------------------------------------------------------------------------
# truncation sizing


def poisson_tail_cutoff(lam: float, tail_tol: float) -> int:
    """Smallest n0 with P(Poisson(lam) >= n0) <= tail_tol.

    Raises ValueError when n0 plus ``DIM_MARGIN`` would exceed ``MAX_DIM``,
    and for a non-finite ``lam`` (an overflowed alpha^2 + delta^2).
    """
    if not lam < math.inf:
        raise ValueError(f"mean photon number {lam:g} needs a basis above MAX_DIM={MAX_DIM}")
    if lam <= 0.0:
        return 1
    pmf = math.exp(-lam)
    cdf = pmf
    n = 0
    target = 1.0 - tail_tol
    while cdf < target:
        n += 1
        if n + 1 + DIM_MARGIN > MAX_DIM:
            raise ValueError(
                f"mean photon number {lam:g} needs a basis above MAX_DIM={MAX_DIM} "
                f"at tail_tol {tail_tol:g}"
            )
        pmf *= lam / n
        cdf += pmf
    return n + 1


def recommend_dim(max_alpha: float, max_delta: float,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Basis size for states of coherent amplitude up to sqrt(alpha^2 + delta^2).

    The returned dimension keeps the Poisson tail above ``dim - DIM_MARGIN``
    below ``tail_tol``; the margin absorbs what truncating the generator
    a + a† does to the top of the basis.  Monotone nondecreasing in both
    amplitudes and in 1/tail_tol; a size above ``MAX_DIM`` is a ValueError.
    """
    if not (0 <= max_alpha < math.inf and 0 <= max_delta < math.inf):
        raise ValueError(f"amplitudes must be finite and >= 0, got {max_alpha}, {max_delta}")
    if not tail_tol > 0:
        raise ValueError("tail_tol must be > 0")
    lam = max_alpha * max_alpha + max_delta * max_delta
    return max(2, poisson_tail_cutoff(lam, tail_tol)) + DIM_MARGIN
