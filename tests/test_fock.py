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

import ngphase
from ngphase.fock import (
    MAX_DIM,
    ConvergenceError,
    FockSpace,
    LeakageError,
    PureState,
    SpaceMismatchError,
    _lowering,
    _quadrature_eigenbasis,
    cat_state,
    displace,
    fock_state,
    overlap,
    parity_signs,
    photon_distribution,
    recommend_dim,
    squeeze,
)

E_MINUS_HALF = 0.60653065971263342  # exp(-1/2)
E_MINUS_ONE = 0.36787944117144233  # exp(-1)


def displaced(state, delta):
    return displace(state, [delta])[0]


def unguarded(dim):
    """A space whose tail_tol (above 1) lets every state through the truncation
    guard, for comparing whole operators column by column."""
    return FockSpace(dim, tail_tol=2.0)


def coherent_amplitudes(dim, alpha):
    """Poisson amplitudes alpha^n / sqrt(n!) of |alpha> for n < dim, without
    their common factor exp(-alpha^2/2)."""
    return np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(dim)])


def mean_photon_number(state):
    p = photon_distribution(state)
    return float(np.dot(np.arange(p.size), p))


def parity(state):
    """<(-1)^n>, read off the photon-number distribution."""
    return float(parity_signs(state.space.dim) @ photon_distribution(state))


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


def test_pure_state_requires_unit_norm():
    space = FockSpace(4)
    with pytest.raises(ValueError):
        PureState(space, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


def test_states_are_immutable():
    state = fock_state(FockSpace(4), 1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


# ---------------------------------------------------------------------------
# generators and displacement


def test_annihilation_dim2():
    np.testing.assert_array_equal(_lowering(2), np.array([[0, 1], [0, 0]]))


def test_annihilation_entry_sqrt2():
    assert _lowering(3)[1, 2] == pytest.approx(math.sqrt(2))


def test_number_operator_from_ladders():
    a = _lowering(12)
    np.testing.assert_allclose(a.T @ a, np.diag(np.arange(12.0)), atol=1e-12)


def test_displacement_zero_is_identity():
    space = FockSpace(16)
    for state in (fock_state(space, 3), cat_state(space, 0.5)):
        np.testing.assert_allclose(displaced(state, 0.0).amplitudes, state.amplitudes,
                                   atol=1e-14)


def test_displacement_vacuum_matrix_element():
    space = FockSpace(32)
    assert abs(displaced(fock_state(space, 0), 1.0).amplitudes[0] - E_MINUS_HALF) < 1e-9


def test_displacement_single_photon_orthogonality():
    # first Laguerre root: <1|D(1)|1> = 0
    space = FockSpace(32)
    assert abs(displaced(fock_state(space, 1), 1.0).amplitudes[1]) < 1e-9


def test_squeeze_zero_is_identity():
    np.testing.assert_allclose(squeeze(FockSpace(16), 0.0), np.eye(16), atol=1e-14)


def test_squeeze_conjugation_identity():
    # S† a S = a cosh r + a† sinh r.  Squeezing scales occupation by ~e^{2r},
    # so the comparison block must sit well below the truncation.
    r = 0.5
    space = FockSpace(128)
    s_mat = squeeze(space, r)
    a = _lowering(space.dim)
    lhs = s_mat.conj().T @ a @ s_mat
    rhs = a * math.cosh(r) + a.T * math.sinh(r)
    block = 24
    assert np.linalg.norm((lhs - rhs)[:block, :block]) < 1e-8


def test_squeeze_amplifies_displacement():
    # S†(r) D(A phi) S(r) = D(A phi e^r): the squeeze/antisqueeze sandwich
    # multiplies the phase signal by e^r.
    amp, phi, r = 5.0, 0.01, 0.5
    space = FockSpace(128)
    s_mat = squeeze(space, r)
    block = 24
    lhs = np.column_stack([s_mat.conj().T @ displaced(PureState(space, s_mat[:, n]),
                                                      amp * phi).amplitudes
                           for n in range(block)])
    rhs = np.column_stack([displaced(fock_state(space, n), amp * phi * math.exp(r)).amplitudes
                           for n in range(block)])
    assert np.linalg.norm((lhs - rhs)[:block]) < 1e-8


@pytest.mark.parametrize("dim", [8, 30, 76])
@pytest.mark.parametrize("delta", [0.0, -1.3, 0.7, 3.0])
def test_displacement_matches_expm(dim, delta):
    a = _lowering(dim)
    reference = expm(1j * delta * (a + a.T))
    space = unguarded(dim)
    got = np.column_stack([displaced(fock_state(space, k), delta).amplitudes
                           for k in range(dim)])
    assert np.max(np.abs(got - reference)) <= 1e-12


@pytest.mark.parametrize("dim", [8, 30, 76])
@pytest.mark.parametrize("r", [0.0, -0.4, 0.25, 0.5])
def test_squeeze_matches_expm(dim, r):
    a = _lowering(dim)
    reference = expm(0.5 * r * (a.T @ a.T - a @ a))
    got = squeeze(FockSpace(dim), r)
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
    batch = displace(probe, deltas)
    assert len(batch) == len(deltas)
    for delta, got in zip(deltas, batch):
        want = displaced(probe, delta)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-13


def test_displace_takes_one_state_per_delta():
    # a sweep displaces each point's own probe: one product, the same states
    space = FockSpace(recommend_dim(3.0, 2.0))
    probes = [cat_state(space, 3.0), fock_state(space, 2), cat_state(space, 1.0)]
    deltas = [2.0, -0.4, 0.0]
    for probe, delta, got in zip(probes, deltas, displace(probes, deltas)):
        (want,) = displace(probe, [delta])
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-14


def test_displace_rejects_mismatched_states():
    space = FockSpace(16)
    with pytest.raises(ValueError, match="2 states for 3 displacements"):
        displace([fock_state(space, 1)] * 2, [0.1, 0.2, 0.3])
    with pytest.raises(SpaceMismatchError):
        displace([fock_state(space, 1), fock_state(FockSpace(17), 1)], [0.1, 0.2])


def test_displace_leakage_is_top_block_mass():
    # the guard compares the mass on the top 5 levels with tail_tol: the same
    # displaced state passes at a tail_tol just above that mass, not just below
    dim = recommend_dim(1.0, 2.0, 1e-6)
    (got,) = displace(fock_state(FockSpace(dim, tail_tol=1e-6), 1), [2.0])
    top = float(np.sum(np.abs(got.amplitudes[-5:]) ** 2))
    assert 0.0 < top < 1e-6
    displace(fock_state(FockSpace(dim, tail_tol=1.01 * top), 1), [0.5, 2.0])
    with pytest.raises(LeakageError, match=r"displace\(delta=2.0\).*top 5 levels"):
        displace(fock_state(FockSpace(dim, tail_tol=0.99 * top), 1), [0.5, 2.0])
    # one level watched at dim 6: D(3)|1> puts a third of its weight on |5>
    with pytest.raises(LeakageError, match=r"displace\(delta=3.0\).*top 1 levels"):
        displace(fock_state(FockSpace(6), 1), [0.0, 3.0])


def test_displace_guard_fires_where_truncation_shows():
    # D(3)|1> is wrong by more than 1e-12 in any basis of at most 20 levels
    for dim in range(2, 21):
        with pytest.raises(LeakageError):
            displace(fock_state(FockSpace(dim), 1), [3.0])


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_non_finite_displacement_rejected(delta):
    space = FockSpace(16)
    with pytest.raises(ConvergenceError, match="non-finite"):
        displace(fock_state(space, 1), [0.5, delta])


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
    cols = np.column_stack([displaced(fock_state(space, k), delta).amplitudes
                            for k in range(half)])
    assert np.linalg.norm(cols.conj().T @ cols - np.eye(half)) < 1e-8


@pytest.mark.parametrize("r", [0.25, 0.5])
def test_squeeze_unitary_on_low_block(r):
    space = FockSpace(96)
    mat = squeeze(space, r)
    half = space.dim // 2
    gram = (mat.conj().T @ mat)[:half, :half]
    assert np.linalg.norm(gram - np.eye(half)) < 1e-8


# ---------------------------------------------------------------------------
# states


def test_fock_state_basis_vectors():
    space = FockSpace(5)
    np.testing.assert_array_equal(fock_state(space, 0).amplitudes,
                                  np.array([1, 0, 0, 0, 0], dtype=complex))
    np.testing.assert_array_equal(fock_state(space, 1).amplitudes,
                                  np.array([0, 1, 0, 0, 0], dtype=complex))


def test_fock_state_out_of_range():
    space = FockSpace(4)
    with pytest.raises(ValueError):
        fock_state(space, 4)
    with pytest.raises(ValueError):
        fock_state(space, -1)


def test_fock_state_point_mass():
    space = FockSpace(8)
    p = photon_distribution(fock_state(space, 3))
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
    got = overlap(displaced(vacuum, 1.2), displaced(vacuum, -0.7))
    closed = np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)
    series = sum(
        (np.conj(alpha) * beta) ** n / math.factorial(n) for n in range(60)
    ) * math.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2)
    assert abs(closed - series) < 1e-12
    assert abs(got - closed) < 1e-10


def test_coherent_mean_photon_number():
    space = FockSpace(recommend_dim(0.0, 2.0))
    state = displaced(fock_state(space, 0), 2.0)
    assert mean_photon_number(state) == pytest.approx(4.0, abs=1e-9)


def test_coherent_poisson_distribution():
    space = FockSpace(recommend_dim(0.0, 1.0))
    p = photon_distribution(displaced(fock_state(space, 0), 1.0))
    poisson = np.array([math.exp(-1.0) / math.factorial(n) for n in range(space.dim)])
    np.testing.assert_allclose(p, poisson, atol=1e-10)


def test_cat_leakage_raises_when_dim_too_small():
    # the cat of amplitude 3 has 0.92 of its mass at n >= 6
    with pytest.raises(LeakageError, match="cat_state"):
        cat_state(FockSpace(6), 3.0)


def test_cat_odd_amplitudes_exactly_zero():
    space = FockSpace(recommend_dim(1.5, 0.0))
    cat = cat_state(space, 1.5)
    assert np.all(cat.amplitudes[1::2] == 0.0)


def test_cat_unit_norm():
    space = FockSpace(recommend_dim(1.5, 0.0))
    assert abs(np.linalg.norm(cat_state(space, 1.5).amplitudes) - 1.0) < 1e-12


def test_cat_parity_plus_one():
    space = FockSpace(recommend_dim(2.0, 0.0))
    assert parity(cat_state(space, 2.0)) == pytest.approx(1.0, abs=1e-10)


def test_cat_matches_coherent_superposition():
    alpha = 1.3
    space = FockSpace(recommend_dim(alpha, 0.0))
    manual = coherent_amplitudes(space.dim, alpha) + coherent_amplitudes(space.dim, -alpha)
    manual /= np.linalg.norm(manual)
    np.testing.assert_allclose(cat_state(space, alpha).amplitudes, manual, atol=1e-12)


# ---------------------------------------------------------------------------
# expectations


def test_overlap_self_and_orthogonal():
    space = FockSpace(8)
    psi = fock_state(space, 2)
    assert overlap(psi, psi) == pytest.approx(1.0)
    assert overlap(fock_state(space, 0), fock_state(space, 1)) == 0.0


def test_overlap_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        overlap(fock_state(FockSpace(4), 0), fock_state(FockSpace(8), 0))


def test_cat_displaced_orthogonality_at_first_zero():
    alpha = 1.5
    delta0 = math.acos(-math.exp(-2.0 * alpha * alpha)) / (2.0 * alpha)
    space = FockSpace(recommend_dim(alpha, delta0))
    cat = cat_state(space, alpha)
    assert abs(overlap(cat, displaced(cat, delta0))) < 1e-8


def test_displaced_single_photon_distribution():
    # oracle: displaced-Fock matrix elements |<n|D(1)|1>|^2 give
    # p0 = e^-1, p1 = 0, p2 = e^-1/2
    space = FockSpace(recommend_dim(1.0, 1.0))
    p = photon_distribution(displaced(fock_state(space, 1), 1.0))
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
    state = displaced(cat_state(space, alpha), delta)
    expected = math.exp(-2.0 * delta ** 2) * (
        math.cos(4.0 * alpha * delta) + math.exp(-2.0 * alpha ** 2)
    ) / (1.0 + math.exp(-2.0 * alpha ** 2))
    assert parity(state) == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# applying a displacement


def test_apply_round_trip_displacement():
    space = FockSpace(32)
    for state in (fock_state(space, 1), cat_state(space, 1.0)):
        back = displaced(displaced(state, 0.5), -0.5)
        assert np.linalg.norm(back.amplitudes - state.amplitudes) < 1e-9


def test_apply_norm_change_controlled():
    space = FockSpace(recommend_dim(1.0, 0.5))
    out = displaced(cat_state(space, 1.0), 0.5)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


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


@given(alpha=st.floats(min_value=0.05, max_value=2.5))
@settings(max_examples=40, deadline=None)
def test_cat_state_properties(alpha):
    space = FockSpace(recommend_dim(2.5, 0.0))
    cat = cat_state(space, alpha)
    assert np.all(cat.amplitudes[1::2] == 0.0)
    assert abs(np.linalg.norm(cat.amplitudes) - 1.0) < 1e-12
    assert parity(cat) == pytest.approx(1.0, abs=1e-10)


@given(delta=st.floats(min_value=-1.5, max_value=1.5), n=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_displaced_fock_properties(delta, n):
    space = FockSpace(recommend_dim(2.0, 1.5))
    state = displaced(fock_state(space, n), delta)
    p = photon_distribution(state)
    assert abs(p.sum() - 1.0) < 1e-10
    assert -1.0 - 1e-12 <= parity(state) <= 1.0 + 1e-12
    assert abs(overlap(fock_state(space, n), state)) <= 1.0 + 1e-12
