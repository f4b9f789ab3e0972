"""Truncated Fock-space engine: states, displacement, photon statistics.

Everything lives in a finite basis |0>..|D-1>.  The truncation dimension is
chosen so that the probability mass the untruncated state would carry above
the cutoff ("leakage") stays below a configurable tolerance; see
``recommend_dim``.  All values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Extra levels on top of the leakage-based cutoff.  Truncating the generator
# a + a† makes exp(i delta (a + a†)) wrong near the top of the basis, however
# exactly it is exponentiated; the margin quarantines that block, and
# ``displace`` raises where a state reaches it anyway.
DIM_MARGIN = 20

DEFAULT_TAIL_TOL = 1e-12

# Largest basis any space may have.  A dense matrix takes 16 dim^2 bytes
# (1 MiB at 256), a cached eigenbasis at most as much, and the Kraus stack of
# the loss channel up to dim such matrices (256 MiB at 256 levels and
# eta -> 0); eigh costs O(dim^3).  256 levels hold |alpha|^2 + delta^2 up to
# 143 at the default tail tolerance, far past the alpha <= 4 of the paper's
# figures (84 levels at delta = 2.5).
MAX_DIM = 256

# Longest delta (or axis) grid a command may ask for.  ``displace`` holds a
# steps x dim complex array, 41 MB at MAX_DIM; the benchmark's largest grid
# has 1009 points.
MAX_STEPS = 10_000

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

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.dim)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_same_space(a, b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"space mismatch: {a.space} vs {b.space}")


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over the Fock basis.

    ``leakage`` is the constructor's estimate of the probability mass the
    untruncated state would carry at n >= dim (0 for exact finite states).
    """

    space: FockSpace
    amplitudes: np.ndarray
    leakage: float = 0.0

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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density(self) -> "DensityOperator":
        """Rank-one density operator |psi><psi|."""
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.space, rho)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive matrix over the Fock basis."""

    space: FockSpace
    matrix: np.ndarray

    HERM_ATOL = 1e-12
    TRACE_ATOL = 1e-10
    EIG_ATOL = 1e-10

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        herm_defect = np.max(np.abs(mat - mat.conj().T))
        if herm_defect > self.HERM_ATOL:
            raise ValueError(f"matrix not Hermitian: defect {herm_defect:.3e}")
        tr = mat.trace().real
        if abs(tr - 1.0) > self.TRACE_ATOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond {self.TRACE_ATOL}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -self.EIG_ATOL:
            raise ValueError(f"matrix not positive: min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


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
    return PureState(space, amps, leakage=0.0)


def _coherent_amplitudes(space: FockSpace, alpha: complex) -> np.ndarray:
    """Untruncated coherent amplitudes <n|alpha> on the finite basis."""
    amps = np.empty(space.dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, space.dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def coherent_state(space: FockSpace, alpha: complex) -> PureState:
    """Coherent state |alpha> with Poissonian number statistics."""
    amps = _coherent_amplitudes(space, alpha)
    captured = float(np.vdot(amps, amps).real)
    leakage = max(0.0, 1.0 - captured)
    if leakage > space.tail_tol:
        raise LeakageError(
            f"coherent_state(alpha={alpha}): leakage {leakage:.3e} exceeds "
            f"tail_tol {space.tail_tol:.3e} at dim {space.dim}"
        )
    return PureState(space, amps / math.sqrt(captured), leakage=leakage)


def cat_state(space: FockSpace, alpha: float) -> PureState:
    """Even superposition (|alpha> + |-alpha>)/sqrt(K), K = 2(1+exp(-2 alpha^2)).

    Contains even photon numbers only; the odd amplitudes are exactly zero.
    """
    alpha = float(alpha)
    base = _coherent_amplitudes(space, alpha)
    amps = base.copy()
    amps[1::2] = 0.0
    amps[0::2] *= 2.0
    norm_exact = 2.0 * (1.0 + math.exp(-2.0 * alpha * alpha))
    captured = float(np.vdot(amps, amps).real)
    leakage = max(0.0, 1.0 - captured / norm_exact)
    if leakage > space.tail_tol:
        raise LeakageError(
            f"cat_state(alpha={alpha}): leakage {leakage:.3e} exceeds "
            f"tail_tol {space.tail_tol:.3e} at dim {space.dim}"
        )
    return PureState(space, amps / math.sqrt(captured), leakage=leakage)


# ---------------------------------------------------------------------------
# expectations and maps


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    _check_same_space(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def photon_distribution(state: PureState | DensityOperator) -> np.ndarray:
    """Probability of each photon number; sums to 1 for valid inputs."""
    if isinstance(state, PureState):
        return np.abs(state.amplitudes) ** 2
    return np.real(np.diag(state.matrix)).copy()


def parity_signs(dim: int) -> np.ndarray:
    """(-1)^n for n = 0..dim-1: the parity readout of a photon-number distribution."""
    return np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)


def parity_expectation(state: PureState | DensityOperator) -> float:
    """Expectation of (-1)^n; lies in [-1, 1]."""
    p = photon_distribution(state)
    return float(np.dot(parity_signs(p.size), p))


def _top_levels(dim: int) -> int:
    """Levels at the top of the basis that the displacement guard watches.

    Not all DIM_MARGIN of them: on a recommended basis the margin's lowest
    levels hold up to 1.6e-12, which would trip the default tail_tol, while
    the top five hold under 1e-9 of it.  dim // 4 keeps tiny bases guarded.
    """
    return min(5, max(1, dim // 4))


def displace(state: PureState, deltas) -> list[PureState]:
    """D(delta) state = exp(i delta (a + a†)) state for every delta in ``deltas``.

    One matrix product in the cached eigenbasis of a + a†.  Truncating the
    generator makes D(delta) wrong once a displaced state reaches the top of
    the basis, so the probability each result puts on its top
    ``_top_levels(dim)`` levels is folded into its leakage, and a
    LeakageError is raised where it exceeds the space's ``tail_tol``.
    """
    space = state.space
    levels = _top_levels(space.dim)
    lam, vec = _quadrature_eigenbasis(space.dim)
    phases = _phases(np.negative(deltas), lam, "displacement")
    rows = (phases * (vec.T @ state.amplitudes)) @ vec.T
    top = np.sum(np.abs(rows[:, -levels:]) ** 2, axis=1)
    bad = np.flatnonzero(~(top <= space.tail_tol))
    if bad.size:
        i = bad[0]
        raise LeakageError(
            f"displace(delta={float(deltas[i])!r}): {top[i]:.3e} of the probability sits "
            f"in the top {levels} levels, above tail_tol {space.tail_tol:.3e} at dim "
            f"{space.dim}; increase dim"
        )
    return [PureState(space, row, leakage=max(state.leakage, float(t)))
            for row, t in zip(rows, top)]


# ---------------------------------------------------------------------------
# metrics


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2)||rho - sigma||_1."""
    _check_same_space(rho, sigma)
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return 0.5 * float(np.sum(np.abs(eigs)))


# ---------------------------------------------------------------------------
# truncation sizing


def poisson_tail_cutoff(lam: float, tail_tol: float) -> int:
    """Smallest n0 with P(Poisson(lam) >= n0) <= tail_tol.

    Raises ValueError when n0 plus ``DIM_MARGIN`` would exceed ``MAX_DIM``.
    """
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
