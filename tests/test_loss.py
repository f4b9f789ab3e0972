"""Loss-channel tests: Kraus action, closed lossy states, purification."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from ngphase.fock import (
    FockSpace,
    _lowering,
    cat_state,
    coherent_state,
    displace,
    fock_state,
    parity_expectation,
    photon_distribution,
    recommend_dim,
    trace_distance,
)
from ngphase.loss import (
    LossChannel,
    apply_loss,
    apply_loss_via_purification,
    lossy_displaced_cat,
    lossy_displaced_fock1,
)


def fidelity_with_pure(psi, rho):
    """<psi|rho|psi>."""
    return float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)


def test_channel_rejects_bad_eta():
    space = FockSpace(8)
    for eta in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            LossChannel(space, eta)


def test_eta_one_is_identity_channel():
    space = FockSpace(16)
    state = cat_state(space, 1.0)
    rho = apply_loss(LossChannel(space, 1.0), state)
    np.testing.assert_allclose(rho.matrix, state.density().matrix, atol=1e-14)


def test_kraus_completeness():
    space = FockSpace(40)
    for eta in (0.5, 0.9, 0.98):
        ops = LossChannel(space, eta).kraus_operators()
        total = sum(ek.conj().T @ ek for ek in ops)
        half = space.dim // 2
        defect = np.linalg.norm(total[:half, :half] - np.eye(half))
        assert defect < 1e-9


def test_single_photon_loss_matrix():
    space = FockSpace(8)
    rho = apply_loss(LossChannel(space, 0.98), fock_state(space, 1))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 0.02
    expected[1, 1] = 0.98
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def test_coherent_stays_coherent():
    alpha, eta = 1.5, 0.9
    space = FockSpace(recommend_dim(alpha, 0.0))
    rho = apply_loss(LossChannel(space, eta), coherent_state(space, alpha))
    target = coherent_state(space, math.sqrt(eta) * alpha)
    assert fidelity_with_pure(target, rho) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.95])
def test_trace_preserved_and_positive(eta):
    space = FockSpace(recommend_dim(1.5, 0.7))
    state = displace(cat_state(space, 1.5), [0.7])[0]
    rho = apply_loss(LossChannel(space, eta), state)
    assert abs(rho.trace - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-9


def test_loss_composition():
    space = FockSpace(recommend_dim(1.5, 0.5))
    state = displace(cat_state(space, 1.5), [0.5])[0]
    two_step = apply_loss(LossChannel(space, 0.9),
                          apply_loss(LossChannel(space, 0.8), state))
    one_step = apply_loss(LossChannel(space, 0.72), state)
    assert trace_distance(two_step, one_step) < 1e-8


@pytest.mark.parametrize("eta", [0.5, 0.9, 0.98])
def test_purification_matches_kraus(eta):
    space = FockSpace(24)
    channel = LossChannel(space, eta)
    for state in (fock_state(space, 2), cat_state(space, 1.0),
                  displace(fock_state(space, 1), [0.4])[0]):
        direct = apply_loss(channel, state)
        purified = apply_loss_via_purification(channel, state)
        assert trace_distance(direct, purified) < 1e-9


@pytest.mark.parametrize("eta", [0.3, 0.9])
def test_purification_matches_expm_unitary(eta):
    # oracle: the dense beamsplitter unitary expm(theta (a b† - a† b))
    d = 8
    space = FockSpace(d, tail_tol=1e-6)
    a = _lowering(d)
    eye = np.eye(d)
    a_sig, a_bath = np.kron(a, eye), np.kron(eye, a)
    theta = math.acos(math.sqrt(eta))
    unitary = expm(theta * (a_sig @ a_bath.T - a_sig.T @ a_bath))
    for state in (fock_state(space, 3), cat_state(space, 0.6)):
        joint = np.zeros(d * d, dtype=complex)
        joint[::d] = state.amplitudes
        psi = (unitary @ joint).reshape(d, d)
        reference = psi @ psi.conj().T
        got = apply_loss_via_purification(LossChannel(space, eta), state)
        assert np.max(np.abs(got.matrix - reference)) <= 1e-12


# ---------------------------------------------------------------------------
# lossy displaced single photon


def test_lossy_fock1_no_displacement():
    space = FockSpace(16)
    rho = lossy_displaced_fock1(space, 0.0, 0.98)
    expected = np.zeros((16, 16), dtype=complex)
    expected[0, 0] = 0.02
    expected[1, 1] = 0.98
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def test_lossy_fock1_miss_probability():
    # [eta (1 - d'^2)^2 + (1-eta) d'^2] e^{-d'^2} at delta=1.01, eta=0.98
    delta, eta = 1.01, 0.98
    d2 = eta * delta * delta
    expected = (eta * (1.0 - d2) ** 2 + (1.0 - eta) * d2) * math.exp(-d2)
    space = FockSpace(recommend_dim(1.0, delta))
    rho = lossy_displaced_fock1(space, delta, eta)
    assert photon_distribution(rho)[1] == pytest.approx(expected, abs=1e-9)


def test_lossy_fock1_matches_kraus_path():
    # oracle: push the displaced photon through the Kraus channel directly
    delta, eta = 0.8, 0.9
    space = FockSpace(recommend_dim(1.0, delta))
    displaced = displace(fock_state(space, 1), [delta])[0]
    oracle = apply_loss(LossChannel(space, eta), displaced)
    assert trace_distance(lossy_displaced_fock1(space, delta, eta), oracle) < 1e-9


# ---------------------------------------------------------------------------
# lossy displaced cat


def test_lossy_cat_lossless_limit_is_pure():
    alpha, delta = 1.5, 0.3
    space = FockSpace(recommend_dim(alpha, delta))
    rho = lossy_displaced_cat(space, alpha, delta, 1.0)
    target = displace(cat_state(space, alpha), [delta])[0]
    assert fidelity_with_pure(target, rho) == pytest.approx(1.0, abs=1e-9)


def test_lossy_cat_photon_distribution_termwise():
    from ngphase.analytic import cat_pn

    alpha, delta, eta = 1.5, 0.4, 0.9
    space = FockSpace(recommend_dim(alpha, delta))
    p = photon_distribution(lossy_displaced_cat(space, alpha, delta, eta))
    for n in range(space.dim):
        assert p[n] == pytest.approx(cat_pn(alpha, delta, eta, n), abs=1e-9)


def test_lossy_cat_parity_closed_form():
    from ngphase.analytic import cat_parity

    alpha, delta, eta = 2.0, 0.35, 0.95
    space = FockSpace(recommend_dim(alpha, delta))
    rho = lossy_displaced_cat(space, alpha, delta, eta)
    assert parity_expectation(rho) == pytest.approx(cat_parity(alpha, delta, eta), abs=1e-8)


def test_lossy_cat_matches_kraus_path():
    alpha, delta, eta = 1.5, 0.3, 0.8
    space = FockSpace(recommend_dim(alpha, delta))
    displaced = displace(cat_state(space, alpha), [delta])[0]
    oracle = apply_loss(LossChannel(space, eta), displaced)
    assert trace_distance(lossy_displaced_cat(space, alpha, delta, eta), oracle) < 1e-8
