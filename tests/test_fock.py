"""Truncated Fock-space engine tests.

Derived expectations are checked against independent oracles: closed-form
coherent overlaps, direct series summation, Poisson tail sums, Hermite
roots, and scipy's matrix exponential of the truncated generators.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import pdtrc

import ngphase
from reference_coherent_amplitudes import loop_coherent_amplitudes
from reference_ladder import lowering
from ngphase.cli import main
from ngphase.fock import (
    DIM_MARGIN,
    MAX_DIM,
    ConvergenceError,
    FockSpace,
    LeakageError,
    _coherent_amplitudes,
    _quadrature_eigenbasis,
    _squeeze_eigenbasis,
    cat_state,
    displace,
    fock_state,
    parity_signs,
    recommend_dim,
    squeeze,
)
from ngphase.limits import DEFAULT_TAIL_TOL

E_MINUS_HALF = 0.60653065971263342  # exp(-1/2)
E_MINUS_ONE = 0.36787944117144233  # exp(-1)


def displaced(space, state, delta):
    return displace(space, state, [delta])[0]


def unguarded(dim):
    """A space whose tail_tol (above 1) lets every state through the truncation
    guard, for comparing whole operators column by column."""
    return FockSpace(dim, tail_tol=2.0)


def coherent_amplitudes(dim, alpha):
    """Poisson amplitudes alpha^n / sqrt(n!) of |alpha> for n < dim, without
    their common factor exp(-alpha^2/2)."""
    return np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(dim)])


def mean_photon_number(state):
    p = np.abs(state) ** 2
    return float(np.dot(np.arange(p.size), p))


def parity(state):
    """<(-1)^n>, read off the photon-number distribution."""
    return float(parity_signs(len(state)) @ np.abs(state) ** 2)


# ---------------------------------------------------------------------------
# spaces and validation


def test_space_rejects_tiny_dim():
    with pytest.raises(ValueError):
        FockSpace(1)


def test_space_rejects_dim_above_max():
    # rejected in the constructor, before any array of that size exists
    with pytest.raises(ValueError, match=str(MAX_DIM)):
        FockSpace(MAX_DIM + 1)
    assert FockSpace(MAX_DIM).dim == MAX_DIM


def test_space_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        FockSpace(8, tail_tol=0.0)


def test_displace_requires_unit_norm_states():
    # a gross-error guard on the input, once per call: the one probe, or any
    # row of a stack, further than 1e-6 from unit norm (a NaN norm included)
    space = unguarded(4)
    with pytest.raises(ValueError, match="state norm 1.414"):
        displace(space, np.array([1.0, 1.0, 0.0, 0.0]), [0.1])
    rows = np.eye(4, dtype=complex)[:3]
    rows[1] *= 1.0 + 5e-7
    displace(space, rows, [0.1, 0.2, 0.3])
    for off in (1.0 + 2e-6, 1.0 - 2e-6, math.nan):
        rows[1] = off * np.eye(4)[1]
        with pytest.raises(ValueError, match="too far from 1"):
            displace(space, rows, [0.1, 0.2, 0.3])


def test_states_are_immutable():
    space = FockSpace(16)
    state = fock_state(space, 1)
    for frozen in (state, cat_state(space, 1.0), displace(space, state, [0.1, 0.2])):
        with pytest.raises(ValueError):
            frozen[0] = 1.0


# ---------------------------------------------------------------------------
# generators and displacement


def test_annihilation_dim2():
    np.testing.assert_array_equal(lowering(2), np.array([[0, 1], [0, 0]]))


def test_annihilation_entry_sqrt2():
    assert lowering(3)[1, 2] == pytest.approx(math.sqrt(2))


def test_number_operator_from_ladders():
    a = lowering(12)
    np.testing.assert_allclose(a.T @ a, np.diag(np.arange(12.0)), atol=1e-12)


def test_displacement_zero_is_identity():
    space = FockSpace(16)
    for state in (fock_state(space, 3), cat_state(space, 0.5)):
        np.testing.assert_allclose(displaced(space, state, 0.0), state, atol=1e-14)


def test_displacement_vacuum_matrix_element():
    space = FockSpace(32)
    assert abs(displaced(space, fock_state(space, 0), 1.0)[0] - E_MINUS_HALF) < 1e-9


def test_displacement_single_photon_orthogonality():
    # first Laguerre root: <1|D(1)|1> = 0
    space = FockSpace(32)
    assert abs(displaced(space, fock_state(space, 1), 1.0)[1]) < 1e-9


def squeeze_matrix(space, r):
    """The matrix of S(r), column j the squeezed |j>."""
    return squeeze(space, np.eye(space.dim), r).T


def test_squeeze_zero_is_identity():
    np.testing.assert_allclose(squeeze_matrix(FockSpace(16), 0.0), np.eye(16), atol=1e-14)


def test_squeeze_conjugation_identity():
    # S† a S = a cosh r + a† sinh r.  Squeezing scales occupation by ~e^{2r},
    # so the comparison block must sit well below the truncation.
    r = 0.5
    space = FockSpace(128)
    s_mat = squeeze_matrix(space, r)
    a = lowering(space.dim)
    lhs = s_mat.conj().T @ a @ s_mat
    rhs = a * math.cosh(r) + a.T * math.sinh(r)
    block = 24
    assert np.linalg.norm((lhs - rhs)[:block, :block]) < 1e-8


def test_squeeze_amplifies_displacement():
    # S†(r) D(A phi) S(r) = D(A phi e^r): the squeeze/antisqueeze sandwich
    # multiplies the phase signal by e^r.
    amp, phi, r = 5.0, 0.01, 0.5
    space = FockSpace(128)
    s_mat = squeeze_matrix(space, r)
    block = 24
    lhs = np.column_stack([s_mat.conj().T @ displaced(space, s_mat[:, n], amp * phi)
                           for n in range(block)])
    rhs = np.column_stack([displaced(space, fock_state(space, n), amp * phi * math.exp(r))
                           for n in range(block)])
    assert np.linalg.norm((lhs - rhs)[:block]) < 1e-8


def test_squeeze_of_minus_r_undoes_squeeze_of_r():
    # S(r)† = S(-r): the sandwich check's inverse, on the low block
    space = FockSpace(96)
    low = np.eye(space.dim)[:8]
    back = squeeze(space, squeeze(space, low, 0.5), -0.5)
    assert np.max(np.abs(back - low)) <= 1e-12


def test_squeeze_takes_a_lone_state_or_rows():
    space = FockSpace(20)
    psi = cat_state(space, 1.0)
    row = squeeze(space, psi, 0.3)
    assert row.shape == (20,) and not row.flags.writeable
    np.testing.assert_allclose(row, squeeze(space, np.array([psi, psi]), 0.3)[1], atol=1e-15)
    for bad in (np.zeros(19), np.zeros((2, 21)), np.zeros((1, 2, 20))):
        with pytest.raises(ValueError, match="expected"):
            squeeze(space, bad, 0.3)
    with pytest.raises(ConvergenceError, match="non-finite"):
        squeeze(space, psi, math.nan)


@pytest.mark.parametrize("dim", [2, 3, 9, 40])
def test_squeeze_eigenbases_are_real_and_give_the_generator(dim):
    # per parity, V = diag(i^k) W with W real: V diag(lam) V† is the block of
    # (i/2)(a†^2 - a^2) on the levels of that parity
    a = lowering(dim)
    dense = 0.5j * (a.T @ a.T - a @ a)
    for parity, (lam, vec) in enumerate(_squeeze_eigenbasis(dim)):
        assert lam.dtype == vec.dtype == np.float64
        levels = np.arange(parity, dim, 2)
        phased = (1j ** np.arange(len(levels)))[:, None] * vec
        block = (phased * lam) @ phased.conj().T
        assert np.max(np.abs(block - dense[np.ix_(levels, levels)])) <= 1e-12


@pytest.mark.parametrize("dim", [8, 30, 76])
@pytest.mark.parametrize("delta", [0.0, -1.3, 0.7, 3.0])
def test_displacement_matches_expm(dim, delta):
    a = lowering(dim)
    reference = expm(1j * delta * (a + a.T))
    space = unguarded(dim)
    got = np.column_stack([displaced(space, fock_state(space, k), delta) for k in range(dim)])
    assert np.max(np.abs(got - reference)) <= 1e-12


@pytest.mark.parametrize("dim", [8, 30, 76])
@pytest.mark.parametrize("r", [0.0, -0.4, 0.25, 0.5])
def test_squeeze_matches_expm(dim, r):
    a = lowering(dim)
    reference = expm(0.5 * r * (a.T @ a.T - a @ a))
    got = squeeze_matrix(FockSpace(dim), r)
    assert np.max(np.abs(got - reference)) <= 1e-12


def test_quadrature_eigenvalues_are_hermite_roots():
    # Golub-Welsch: the Jacobi matrix a + a† has eigenvalues sqrt(2) x_k,
    # x_k the roots of the Hermite polynomial H_dim
    dim = 30
    roots = np.polynomial.hermite.hermroots([0.0] * dim + [1.0])
    lam, _ = _quadrature_eigenbasis(dim)
    np.testing.assert_allclose(lam, math.sqrt(2.0) * np.sort(roots), rtol=0, atol=1e-12)


def test_displace_grid_matches_single_points():
    space = FockSpace(recommend_dim(1.7, 3.0))
    probe = cat_state(space, 1.7)
    deltas = [-2.0, 0.0, 0.3, 1.0, 3.0]
    batch = displace(space, probe, deltas)
    assert batch.shape == (len(deltas), space.dim)
    for delta, got in zip(deltas, batch):
        want = displaced(space, probe, delta)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_displace_takes_one_state_per_delta():
    # a sweep displaces each point's own probe: one product, the same states
    space = FockSpace(recommend_dim(3.0, 2.0))
    probes = [cat_state(space, 3.0), fock_state(space, 2), cat_state(space, 1.0)]
    deltas = [2.0, -0.4, 0.0]
    for probe, delta, got in zip(probes, deltas, displace(space, np.stack(probes), deltas)):
        (want,) = displace(space, probe, [delta])
        assert np.max(np.abs(got - want)) <= 1e-14


def test_displace_rejects_mismatched_states():
    space = FockSpace(16)
    with pytest.raises(ValueError, match="2 states for 3 displacements"):
        displace(space, [fock_state(space, 1)] * 2, [0.1, 0.2, 0.3])
    # states of another basis, or not one state nor a stack of them
    other = fock_state(FockSpace(17), 1)
    for states in (other, [other] * 2, np.zeros((1, 2, 16)), np.complex128(1.0)):
        with pytest.raises(ValueError, match=r"expected \(16,\) or \(k, 16\)"):
            displace(space, states, [0.1, 0.2])


def test_displace_leakage_is_top_block_mass():
    # the guard compares the mass on the top 5 levels with tail_tol: the same
    # displaced state passes at a tail_tol just above that mass, not just below
    dim = recommend_dim(1.0, 2.0, 1e-6)
    probe = fock_state(FockSpace(dim), 1)
    (got,) = displace(FockSpace(dim, tail_tol=1e-6), probe, [2.0])
    top = float(np.sum(np.abs(got[-5:]) ** 2))
    assert 0.0 < top < 1e-6
    displace(FockSpace(dim, tail_tol=1.01 * top), probe, [0.5, 2.0])
    with pytest.raises(LeakageError, match=r"displace\(delta=2.0\).*top 5 levels"):
        displace(FockSpace(dim, tail_tol=0.99 * top), probe, [0.5, 2.0])
    # one level watched at dim 6: D(3)|1> puts a third of its weight on |5>
    with pytest.raises(LeakageError, match=r"displace\(delta=3.0\).*top 1 levels"):
        displace(FockSpace(6), fock_state(FockSpace(6), 1), [0.0, 3.0])


def test_displace_guard_fires_where_truncation_shows():
    # D(3)|1> is wrong by more than 1e-12 in any basis of at most 20 levels
    for dim in range(2, 21):
        space = FockSpace(dim)
        with pytest.raises(LeakageError):
            displace(space, fock_state(space, 1), [3.0])


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_non_finite_displacement_rejected(delta):
    space = FockSpace(16)
    with pytest.raises(ConvergenceError, match="non-finite"):
        displace(space, fock_state(space, 1), [0.5, delta])


def test_non_finite_eigendecomposition_is_a_convergence_error(monkeypatch, capsys):
    # no input reaches this guard: it needs eigh to hand back a NaN
    real = np.linalg.eigh

    def nan_eigh(matrix):
        lam, vec = real(matrix)
        lam[0] = math.nan
        return lam, vec

    message = "displacement: eigendecomposition produced non-finite entries"
    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    _quadrature_eigenbasis.cache_clear()
    try:
        space = FockSpace(16)
        with pytest.raises(ConvergenceError) as info:
            displace(space, fock_state(space, 1), [0.5])
        assert str(info.value) == message
        capsys.readouterr()
        assert main(["overlap", "--family", "fock", "--steps", "3"]) == 2
        assert capsys.readouterr().err == f"ngphase: computation failed: {message}\n"
    finally:
        _quadrature_eigenbasis.cache_clear()


def test_import_does_not_load_scipy():
    src = str(Path(ngphase.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, ngphase; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("delta", [0.25, 1.0, 2.0])
def test_displacement_unitary_on_low_block(delta):
    space = unguarded(recommend_dim(0.0, delta))
    half = space.dim // 2
    cols = np.column_stack([displaced(space, fock_state(space, k), delta) for k in range(half)])
    assert np.linalg.norm(cols.conj().T @ cols - np.eye(half)) < 1e-8


@pytest.mark.parametrize("r", [0.25, 0.5])
def test_squeeze_unitary_on_low_block(r):
    space = FockSpace(96)
    mat = squeeze_matrix(space, r)
    half = space.dim // 2
    gram = (mat.conj().T @ mat)[:half, :half]
    assert np.linalg.norm(gram - np.eye(half)) < 1e-8


# ---------------------------------------------------------------------------
# states


def test_fock_state_basis_vectors():
    space = FockSpace(5)
    np.testing.assert_array_equal(fock_state(space, 0), np.array([1, 0, 0, 0, 0], dtype=complex))
    np.testing.assert_array_equal(fock_state(space, 1), np.array([0, 1, 0, 0, 0], dtype=complex))
    assert fock_state(space, 1).dtype == complex


def test_fock_state_out_of_range():
    space = FockSpace(4)
    with pytest.raises(ValueError):
        fock_state(space, 4)
    with pytest.raises(ValueError):
        fock_state(space, -1)


def test_fock_state_point_mass():
    space = FockSpace(8)
    p = np.abs(fock_state(space, 3)) ** 2
    expected = np.zeros(8)
    expected[3] = 1.0
    np.testing.assert_array_equal(p, expected)


def test_coherent_overlap_closed_form():
    # D(delta)|0> is the coherent state |i delta>.  oracle:
    # <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b), cross-checked by direct
    # series summation of conj(<n|a>) <n|b>
    alpha, beta = 1.2j, -0.7j
    space = FockSpace(recommend_dim(0.0, 1.2))
    vacuum = fock_state(space, 0)
    got = np.vdot(displaced(space, vacuum, 1.2), displaced(space, vacuum, -0.7))
    closed = np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)
    series = sum(
        (np.conj(alpha) * beta) ** n / math.factorial(n) for n in range(60)
    ) * math.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2)
    assert abs(closed - series) < 1e-12
    assert abs(got - closed) < 1e-10


def test_coherent_mean_photon_number():
    space = FockSpace(recommend_dim(0.0, 2.0))
    state = displaced(space, fock_state(space, 0), 2.0)
    assert mean_photon_number(state) == pytest.approx(4.0, abs=1e-9)


def test_coherent_poisson_distribution():
    space = FockSpace(recommend_dim(0.0, 1.0))
    p = np.abs(displaced(space, fock_state(space, 0), 1.0)) ** 2
    poisson = np.array([math.exp(-1.0) / math.factorial(n) for n in range(space.dim)])
    np.testing.assert_allclose(p, poisson, atol=1e-10)


def test_cat_leakage_raises_when_dim_too_small():
    # the cat of amplitude 3 has 0.92 of its mass at n >= 6
    with pytest.raises(LeakageError, match="cat_state"):
        cat_state(FockSpace(6), 3.0)


def test_cat_odd_amplitudes_exactly_zero():
    space = FockSpace(recommend_dim(1.5, 0.0))
    cat = cat_state(space, 1.5)
    assert np.all(cat[1::2] == 0.0)


def test_cat_unit_norm():
    space = FockSpace(recommend_dim(1.5, 0.0))
    assert abs(np.linalg.norm(cat_state(space, 1.5)) - 1.0) < 1e-12


def test_cat_parity_plus_one():
    space = FockSpace(recommend_dim(2.0, 0.0))
    assert parity(cat_state(space, 2.0)) == pytest.approx(1.0, abs=1e-10)


def test_cat_matches_coherent_superposition():
    alpha = 1.3
    space = FockSpace(recommend_dim(alpha, 0.0))
    manual = coherent_amplitudes(space.dim, alpha) + coherent_amplitudes(space.dim, -alpha)
    manual /= np.linalg.norm(manual)
    np.testing.assert_allclose(cat_state(space, alpha), manual, atol=1e-12)


# ---------------------------------------------------------------------------
# expectations


def test_overlap_self_and_orthogonal():
    # number states are orthonormal amplitude vectors
    space = FockSpace(8)
    psi = fock_state(space, 2)
    assert np.vdot(psi, psi) == 1.0
    assert np.vdot(fock_state(space, 0), fock_state(space, 1)) == 0.0


def test_cat_displaced_orthogonality_at_first_zero():
    alpha = 1.5
    delta0 = math.acos(-math.exp(-2.0 * alpha * alpha)) / (2.0 * alpha)
    space = FockSpace(recommend_dim(alpha, delta0))
    cat = cat_state(space, alpha)
    assert abs(np.vdot(cat, displaced(space, cat, delta0))) < 1e-8


def test_displaced_single_photon_distribution():
    # oracle: displaced-Fock matrix elements |<n|D(1)|1>|^2 give
    # p0 = e^-1, p1 = 0, p2 = e^-1/2
    space = FockSpace(recommend_dim(1.0, 1.0))
    p = np.abs(displaced(space, fock_state(space, 1), 1.0)) ** 2
    assert abs(p[1]) < 1e-9
    assert abs(p[0] - E_MINUS_ONE) < 1e-9
    assert abs(p[2] - E_MINUS_ONE / 2.0) < 1e-9


def test_parity_of_vacuum_and_single_photon():
    space = FockSpace(6)
    assert parity(fock_state(space, 0)) == 1.0
    assert parity(fock_state(space, 1)) == -1.0


def test_displaced_cat_parity_matches_closed_form():
    # oracle duality: the numeric parity of D(delta)|cat> against the analytic
    # expression e^{-2 d^2} (cos 4 a d + e^{-2 a^2}) / (1 + e^{-2 a^2})
    alpha, delta = 1.5, 0.3
    space = FockSpace(recommend_dim(alpha, delta))
    state = displaced(space, cat_state(space, alpha), delta)
    expected = math.exp(-2.0 * delta ** 2) * (
        math.cos(4.0 * alpha * delta) + math.exp(-2.0 * alpha ** 2)
    ) / (1.0 + math.exp(-2.0 * alpha ** 2))
    assert parity(state) == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# applying a displacement


def test_apply_round_trip_displacement():
    space = FockSpace(32)
    for state in (fock_state(space, 1), cat_state(space, 1.0)):
        back = displaced(space, displaced(space, state, 0.5), -0.5)
        assert np.linalg.norm(back - state) < 1e-9


def test_apply_norm_change_controlled():
    space = FockSpace(recommend_dim(1.0, 0.5))
    out = displaced(space, cat_state(space, 1.0), 0.5)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# recommend_dim


def _poisson_tail(lam: float, start: int) -> float:
    # oracle: direct tail summation
    if lam == 0.0:
        return 0.0 if start > 0 else 1.0
    pmf = math.exp(-lam)
    cdf = 0.0
    for n in range(start):
        cdf += pmf
        pmf *= lam / (n + 1)
    return 1.0 - cdf


def test_recommend_dim_floor():
    assert recommend_dim(0.0, 0.0, 1e-12) >= 2


def test_recommend_dim_tail_bound():
    dim = recommend_dim(3.0, 1.0, 1e-12)
    assert _poisson_tail(10.0, dim) < 1e-12
    assert _poisson_tail(10.0, dim - 20) <= 1e-12


def test_recommend_dim_monotone_in_tolerance():
    for tol in (1e-14, 1e-12, 1e-10, 1e-8):
        assert recommend_dim(2.0, 0.5, 2 * tol) <= recommend_dim(2.0, 0.5, tol)


def test_recommend_dim_monotone_in_amplitude():
    dims = [recommend_dim(a, 0.0) for a in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert dims == sorted(dims)
    dims_d = [recommend_dim(1.0, d) for d in (0.0, 0.5, 1.0, 2.0)]
    assert dims_d == sorted(dims_d)


def test_recommend_dim_stays_within_a_level_of_the_exact_tail():
    # the float sum's rounding may put n0 one level off the exact n0 (the
    # first level whose tail P(N >= n0), scipy's pdtrc(n0 - 1, lam), is at
    # most tail_tol); at the default tail_tol n0 never drops as the mean grows
    levels = np.arange(MAX_DIM)
    sizes = []
    for i in range(1401):
        lam = i / 10
        n0 = recommend_dim(math.sqrt(lam), 0.0) - DIM_MARGIN
        exact = 1 + np.argmax(pdtrc(levels, lam) <= DEFAULT_TAIL_TOL)
        assert abs(n0 - exact) <= 1, (lam, n0, exact)
        sizes.append(n0)
    assert sizes == sorted(sizes)


def test_recommend_dim_rejects_bad_args():
    with pytest.raises(ValueError):
        recommend_dim(-1.0, 0.0)
    with pytest.raises(ValueError):
        recommend_dim(1.0, 0.0, tail_tol=0.0)


def test_recommend_dim_bounded_by_max_dim():
    # |alpha|^2 = 143 is the largest mean photon number that fits
    assert recommend_dim(math.sqrt(143.0), 0.0) <= MAX_DIM
    with pytest.raises(ValueError, match="MAX_DIM"):
        recommend_dim(12.0, 0.0)
    with pytest.raises(ValueError, match="MAX_DIM"):
        recommend_dim(1e6, 0.0)


@pytest.mark.parametrize("max_delta", [1.4e154, 1e300, 1.7976931348623157e308])
def test_recommend_dim_overflowing_amplitude_names_max_dim(max_delta):
    # alpha^2 + delta^2 overflows to inf; the Poisson cutoff read it as 2 levels
    with pytest.raises(ValueError, match="MAX_DIM=256"):
        recommend_dim(2.0, max_delta)


# ---------------------------------------------------------------------------
# properties


@given(dim=st.integers(2, MAX_DIM),
       log_alpha=st.floats(min_value=math.log(1e-5), max_value=math.log(16.0)))
@settings(max_examples=200, deadline=None)
def test_coherent_amplitudes_keep_the_loop_bits(dim, log_alpha):
    alpha = math.exp(log_alpha)
    got = _coherent_amplitudes(FockSpace(dim), alpha)
    expected = loop_coherent_amplitudes(dim, alpha)
    assert got.dtype == expected.dtype == complex
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    # at -alpha only the sign of an underflowed zero may differ
    assert np.array_equal(_coherent_amplitudes(FockSpace(dim), -alpha),
                          loop_coherent_amplitudes(dim, -alpha))


@given(alpha=st.floats(min_value=0.05, max_value=2.5))
@settings(max_examples=40, deadline=None)
def test_cat_state_properties(alpha):
    space = FockSpace(recommend_dim(2.5, 0.0))
    cat = cat_state(space, alpha)
    assert np.all(cat[1::2] == 0.0)
    assert abs(np.linalg.norm(cat) - 1.0) < 1e-12
    assert parity(cat) == pytest.approx(1.0, abs=1e-10)


@given(delta=st.floats(min_value=-1.5, max_value=1.5), n=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_displaced_fock_properties(delta, n):
    space = FockSpace(recommend_dim(2.0, 1.5))
    state = displaced(space, fock_state(space, n), delta)
    p = np.abs(state) ** 2
    assert abs(p.sum() - 1.0) < 1e-10
    assert -1.0 - 1e-12 <= parity(state) <= 1.0 + 1e-12
    assert abs(np.vdot(fock_state(space, n), state)) <= 1.0 + 1e-12
