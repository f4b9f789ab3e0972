"""Loss-channel tests: binomial thinning, Kraus action, closed lossy states,
purification."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from ngphase.fock import (
    MAX_DIM,
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
    thin,
    _thinning_table,
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


@pytest.mark.parametrize("eta", [1e-3, 0.5, 0.9, 0.999, 1.0 - 1e-12])
def test_thinning_table_is_column_stochastic_and_upper_triangular(eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _thinning_table(MAX_DIM, eta)
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-11
    assert np.all(np.tril(table, -1) == 0.0)
    assert np.min(table) >= 0.0


def test_thinning_table_eta_one_is_identity():
    assert np.array_equal(_thinning_table(12, 1.0), np.eye(12))


@pytest.mark.parametrize("eta1, eta2", [(0.9, 0.8), (0.95, 0.5), (0.3, 0.99)])
def test_thinning_tables_compose(eta1, eta2):
    d = 60
    product = _thinning_table(d, eta1) @ _thinning_table(d, eta2)
    assert np.max(np.abs(product - _thinning_table(d, eta1 * eta2))) <= 1e-12


def ladder_kraus(dim, eta, terms):
    """E_k = sqrt((1-eta)^k / k!) eta^(n/2) a^k from matrix powers of the
    lowering operator, independent of the thinning table."""
    damp = np.diag(eta ** (0.5 * np.arange(dim)))
    a = _lowering(dim)
    a_pow = np.eye(dim)
    ops = []
    for k in range(terms):
        coeff = math.exp(0.5 * (k * math.log(1.0 - eta) - math.lgamma(k + 1)))
        ops.append(coeff * damp @ a_pow)
        a_pow = a_pow @ a
    return ops


@pytest.mark.parametrize("eta", [0.5, 0.9, 0.98])
def test_thin_matches_ladder_kraus_diagonal(eta):
    space = FockSpace(recommend_dim(2.0, 1.2))
    channel = LossChannel(space, eta)
    states = [displace(fock_state(space, 1), [0.7])[0],
              displace(fock_state(space, 3), [1.2])[0],
              displace(cat_state(space, 2.0), [0.4])[0]]
    # all dim terms: the finite Kraus sum is then the exact channel
    kraus = ladder_kraus(space.dim, eta, space.dim)
    thinned = thin(channel, [photon_distribution(s) for s in states])
    for q, state in zip(thinned, states):
        reference = sum(np.abs(ek @ state.amplitudes) ** 2 for ek in kraus)
        assert np.max(np.abs(q - reference)) <= 1e-12
        assert np.max(np.abs(thin(channel, photon_distribution(state)) - q)) <= 1e-12


@pytest.mark.parametrize("probs, message", [
    (np.full(8, 1.1 / 8), "sums to 1"),
    (np.r_[1.1, -0.1, np.zeros(6)], "not positive"),
    (np.full(7, 1.0 / 7), "shape"),
])
def test_thin_rejects_invalid_distributions(probs, message):
    with pytest.raises(ValueError, match=message):
        thin(LossChannel(FockSpace(8), 0.9), probs)


@pytest.mark.parametrize("dim", [8, 30, 76])
def test_kraus_operators_match_ladder_construction(dim):
    for eta in (0.3, 0.9, 0.98):
        channel = LossChannel(FockSpace(dim), eta)
        ops = channel.kraus_operators()
        assert len(ops) == channel.kraus_terms()
        for ek, reference in zip(ops, ladder_kraus(dim, eta, len(ops))):
            assert np.max(np.abs(ek - reference)) <= 1e-12


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
