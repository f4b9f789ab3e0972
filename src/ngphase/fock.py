"""Truncated Fock-space engine: states, operators, expectations.

Everything lives in a finite basis |0>..|D-1>.  The truncation dimension is
chosen so that the probability mass the untruncated state would carry above
the cutoff ("leakage") stays below a configurable tolerance; see
``recommend_dim``.  All values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Extra levels on top of the leakage-based cutoff.  Truncating the generator
# a + a† makes exp(i delta (a + a†)) wrong near the top of the basis, however
# exactly it is exponentiated; the margin quarantines that block.
DIM_MARGIN = 20

DEFAULT_TAIL_TOL = 1e-12

# Largest basis any space may have.  A dense operator takes 16 dim^2 bytes
# (1 MiB at 256), a cached eigenbasis at most as much, and the Kraus stack of
# the loss channel up to dim such matrices (256 MiB at 256 levels and
# eta -> 0); eigh costs O(dim^3).  256 levels hold |alpha|^2 + delta^2 up to
# 143 at the default tail tolerance, far past the alpha <= 4 of the paper's
# figures (84 levels at delta = 2.5).
MAX_DIM = 256

# Low-block unitarity defect above which an eigenbasis is rejected.
UNITARITY_GUARD = 1e-6

# Eigenbases kept per generator, one per basis size.
_EIGENBASIS_CACHE = 32


class LeakageError(RuntimeError):
    """A state cannot be represented in the space within its tail tolerance."""


class ConvergenceError(RuntimeError):
    """An operator exponential came out non-finite or not unitary."""


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
        # Gross-error guard only; constructors guarantee 1e-12, while apply()
        # without renormalization may drift by the (controlled) leakage.
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


@dataclass(frozen=True)
class LinearOperator:
    """Dense operator matrix on a Fock space."""

    space: FockSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        object.__setattr__(self, "matrix", _freeze(mat))

    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        _check_same_space(self, other)
        return LinearOperator(self.space, self.matrix @ other.matrix)


# ---------------------------------------------------------------------------
# operators


def _lowering(dim: int) -> np.ndarray:
    """Real matrix of the ladder operator a on dim levels."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def annihilation(space: FockSpace) -> LinearOperator:
    """Ladder operator with <m|a|n> = sqrt(n) for m = n-1."""
    return LinearOperator(space, _lowering(space.dim).astype(complex))


def creation(space: FockSpace) -> LinearOperator:
    return annihilation(space).dagger()


def number_operator(space: FockSpace) -> LinearOperator:
    return LinearOperator(space, np.diag(space.levels.astype(complex)))


def parity_operator(space: FockSpace) -> LinearOperator:
    """(-1)^n on the number basis."""
    signs = np.where(space.levels % 2 == 0, 1.0, -1.0)
    return LinearOperator(space, np.diag(signs.astype(complex)))


def identity(space: FockSpace) -> LinearOperator:
    return LinearOperator(space, np.eye(space.dim, dtype=complex))


def _low_block_unitarity_defect(mat: np.ndarray) -> float:
    half = mat.shape[0] // 2
    gram = mat.conj().T @ mat
    block = gram[:half, :half] - np.eye(half)
    return float(np.linalg.norm(block))


def _checked_eigenbasis(hermitian: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs (lam, V) of a Hermitian generator H = V diag(lam) V†.

    exp(-i t H) = V diag(e^{-i t lam}) V† for every t, and its U†U equals
    V V†, so the unitarity guard is evaluated here once for all t.
    """
    lam, vec = np.linalg.eigh(hermitian)
    if not (np.isfinite(lam).all() and np.isfinite(vec).all()):
        raise ConvergenceError(f"{label}: eigendecomposition produced non-finite entries")
    defect = _low_block_unitarity_defect(vec.conj().T)
    if defect > UNITARITY_GUARD:
        raise ConvergenceError(
            f"{label}: low-block unitarity defect {defect:.3e} exceeds "
            f"{UNITARITY_GUARD:.0e}; increase dim"
        )
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


def displacement(space: FockSpace, delta: float) -> LinearOperator:
    """Displacement exp(i*delta*(a + a†)) along the phase quadrature."""
    lam, vec = _quadrature_eigenbasis(space.dim)
    return LinearOperator(space, (vec * _phases(-delta, lam, "displacement")) @ vec.T)


def squeeze(space: FockSpace, r: float) -> LinearOperator:
    """Squeeze operator S(r) with S†(r) a S(r) = a cosh r + a† sinh r."""
    lam, vec = _squeeze_eigenbasis(space.dim)
    return LinearOperator(space, (vec * _phases(r, lam, "squeeze")) @ vec.conj().T)


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


def parity_expectation(state: PureState | DensityOperator) -> float:
    """Expectation of (-1)^n; lies in [-1, 1]."""
    p = photon_distribution(state)
    signs = np.where(np.arange(p.size) % 2 == 0, 1.0, -1.0)
    return float(np.dot(signs, p))


def mean_photon_number(state: PureState | DensityOperator) -> float:
    p = photon_distribution(state)
    return float(np.dot(np.arange(p.size), p))


def apply(op: LinearOperator, state: PureState, *, renormalize: bool = False) -> PureState:
    """Matrix-vector product op @ state.

    Truncation makes nominally unitary operators lose a little norm; the
    deficit is folded into the returned state's leakage estimate.
    Renormalization is opt-in and logged, never silent; genuinely non-unitary
    operators (ladder operators etc.) require it, since the result must still
    be a valid unit-norm state.
    """
    _check_same_space(op, state)
    out = op.matrix @ state.amplitudes
    norm = float(np.linalg.norm(out))
    norm_loss = abs(1.0 - norm * norm)
    if renormalize:
        logger.info("apply: renormalizing, norm changed by %.3e", norm - 1.0)
        out = out / norm
    return PureState(state.space, out, leakage=max(state.leakage, norm_loss))


def displace(state: PureState, deltas) -> list[PureState]:
    """D(delta) state for every delta in ``deltas``, in one matrix product.

    Works in the cached eigenbasis of a + a† without building any D(delta);
    each result carries the leakage estimate ``apply`` would give it.
    """
    lam, vec = _quadrature_eigenbasis(state.space.dim)
    phases = _phases(np.negative(deltas), lam, "displacement")
    rows = (phases * (vec.T @ state.amplitudes)) @ vec.T
    norms = np.linalg.norm(rows, axis=1)
    return [PureState(state.space, row, leakage=max(state.leakage, abs(1.0 - norm * norm)))
            for row, norm in zip(rows, norms)]


def conjugate(op: LinearOperator, rho: DensityOperator) -> DensityOperator:
    """Map rho -> op @ rho @ op†."""
    _check_same_space(op, rho)
    out = op.matrix @ rho.matrix @ op.matrix.conj().T
    out = 0.5 * (out + out.conj().T)  # rounding symmetrization; exact in real arithmetic
    return DensityOperator(rho.space, out)


def expectation(op: LinearOperator, state: PureState | DensityOperator) -> complex:
    _check_same_space(op, state)
    if isinstance(state, PureState):
        return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    return complex(np.trace(op.matrix @ state.matrix))


# ---------------------------------------------------------------------------
# metrics


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2)||rho - sigma||_1."""
    _check_same_space(rho, sigma)
    eigs = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return 0.5 * float(np.sum(np.abs(eigs)))


def fidelity_with_pure(psi: PureState, rho: DensityOperator) -> float:
    """<psi|rho|psi>."""
    _check_same_space(psi, rho)
    return float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)


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
    if max_alpha < 0 or max_delta < 0:
        raise ValueError("amplitudes must be nonnegative")
    if not tail_tol > 0:
        raise ValueError("tail_tol must be > 0")
    lam = max_alpha * max_alpha + max_delta * max_delta
    return max(2, poisson_tail_cutoff(lam, tail_tol)) + DIM_MARGIN
