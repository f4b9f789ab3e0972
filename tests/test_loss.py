"""Loss-channel tests: binomial thinning against the ladder-operator Kraus
form and the closed forms, and the beamsplitter purification against the
Kraus form, scipy's matrix exponential and the dense two-mode generator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from ngphase.analytic import cat_parity, cat_pn
from ngphase.fock import (
    MAX_DIM,
    FockSpace,
    cat_state,
    displace,
    fock_state,
    parity_signs,
    recommend_dim,
)
from ngphase.loss import (
    _beamsplitter_eigenbasis,
    _log_binomials,
    _thinning_table,
    apply_loss_via_purification,
    thin,
)
from ngphase.limits import MAX_STEPS
from reference_ladder import lowering


def coherent(space, alpha):
    """|alpha> from its Poisson amplitudes alpha^n / sqrt(n!), normalized on the
    basis (in place of the factor exp(-alpha^2/2))."""
    amps = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(space.dim)])
    return amps / np.linalg.norm(amps)


def fidelity_with_pure(psi, rho):
    """<psi|rho|psi>."""
    return float(np.vdot(psi, rho @ psi).real)


def trace_distance(rho, sigma):
    """(1/2)||rho - sigma||_1."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def test_channel_rejects_bad_eta():
    # thin, with one efficiency or one per distribution, and the purification
    space = FockSpace(8)
    valid = np.r_[1.0, np.zeros(7)]
    for eta in (0.0, -0.1, 1.1, math.nan):
        message = rf"^eta must be in \(0, 1\], got {eta}$"
        with pytest.raises(ValueError, match=message):
            thin(valid, eta)
        with pytest.raises(ValueError, match=message):
            thin([valid] * 3, [0.9, eta, 0.5])
        with pytest.raises(ValueError, match=message):
            apply_loss_via_purification(fock_state(space, 1), eta)
        with pytest.raises(ValueError, match=message):
            apply_loss_via_purification(fock_state(space, 1), [0.9, eta])


@pytest.mark.parametrize("state", [np.eye(4)[:2], np.r_[1.0, np.zeros(MAX_DIM)]])
def test_purification_rejects_a_state_that_is_no_basis_vector(state):
    # a stack of states, and more amplitudes than any basis holds
    with pytest.raises(ValueError, match="amplitudes"):
        apply_loss_via_purification(state, 0.9)


def test_eta_one_is_identity_channel():
    space = FockSpace(24)
    state = cat_state(space, 1.0)
    rho = apply_loss_via_purification(state, 1.0)
    np.testing.assert_allclose(rho, np.outer(state, state.conj()),
                               atol=1e-14)


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


def per_call_thinning_table(dim, eta):
    """The table as built before the log-binomials were cached: indices and
    log-factorials on each call, the same additions in the same order."""
    if eta == 1.0:
        return np.eye(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    m, n = np.triu_indices(dim)
    log_b = (log_fact[n] - log_fact[m] - log_fact[n - m]
             + m * math.log(eta) + (n - m) * math.log1p(-eta))
    table = np.zeros((dim, dim))
    table[m, n] = np.exp(log_b)
    return table


@pytest.mark.parametrize("eta", [1e-9, 0.01, 0.3, 0.5, 0.9, 0.98, 0.999999, 1.0 - 1e-15])
def test_cached_log_binomials_keep_the_table_bits(eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim in [*range(2, 81), 128, 200, MAX_DIM]:
            assert np.array_equal(_thinning_table(dim, eta), per_call_thinning_table(dim, eta)), dim


def test_cached_log_binomials_are_read_only():
    for dim in (8, MAX_DIM):
        with pytest.raises(ValueError, match="read-only"):
            _log_binomials(dim)[0, 1] = 0.0
    table = _thinning_table(8, 0.9)
    table[0, 1] = 0.0  # each call still returns its own table


def test_log_binomial_cache_memory_is_bounded():
    # the bounds stated at _log_binomials: the cache holds one table, for the
    # basis in use, so at most 512 KiB; its build stays below 1 MiB and
    # shrinks with the basis
    assert _log_binomials.cache_info().maxsize == 1
    for dim in (2, 24, 60, 128, MAX_DIM):
        _log_binomials.cache_clear()
        tracemalloc.start()
        try:
            table = _log_binomials(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 8 * dim ** 2 <= 2 ** 19
        assert peak < 2 ** 20
        assert peak <= 4 * table.nbytes + 2 ** 12
        assert _log_binomials.cache_info().currsize == 1


@pytest.mark.parametrize("eta1, eta2", [(0.9, 0.8), (0.95, 0.5), (0.3, 0.99)])
def test_thinning_tables_compose(eta1, eta2):
    d = 60
    product = _thinning_table(d, eta1) @ _thinning_table(d, eta2)
    assert np.max(np.abs(product - _thinning_table(d, eta1 * eta2))) <= 1e-12


def ladder_kraus(dim, eta, terms):
    """E_k = sqrt((1-eta)^k / k!) eta^(n/2) a^k from matrix powers of the
    lowering operator, independent of the thinning table."""
    damp = np.diag(eta ** (0.5 * np.arange(dim)))
    a = lowering(dim)
    a_pow = np.eye(dim)
    ops = []
    for k in range(terms):
        coeff = math.exp(0.5 * (k * math.log(1.0 - eta) - math.lgamma(k + 1)))
        ops.append(coeff * damp @ a_pow)
        a_pow = a_pow @ a
    return ops


def ladder_kraus_channel(state, eta):
    """sum_k E_k |psi><psi| E_k† over all dim ladder Kraus terms."""
    dim = len(state)
    vecs = [ek @ state for ek in ladder_kraus(dim, eta, dim)]
    return sum(np.outer(v, v.conj()) for v in vecs)


def test_kraus_completeness():
    # the reference is a channel: sum_k E_k† E_k = 1 once all dim terms are kept
    dim = 40
    for eta in (0.5, 0.9, 0.98):
        total = sum(ek.T @ ek for ek in ladder_kraus(dim, eta, dim))
        assert np.max(np.abs(total - np.eye(dim))) < 1e-9


@pytest.mark.parametrize("eta", [0.5, 0.9, 0.98])
def test_thin_matches_ladder_kraus_diagonal(eta):
    space = FockSpace(recommend_dim(2.0, 1.2))
    states = [displace(space, fock_state(space, 1), [0.7])[0],
              displace(space, fock_state(space, 3), [1.2])[0],
              displace(space, cat_state(space, 2.0), [0.4])[0]]
    # all dim terms: the finite Kraus sum is then the exact channel
    kraus = ladder_kraus(space.dim, eta, space.dim)
    thinned = thin(np.abs(np.stack(states)) ** 2, eta)
    for q, state in zip(thinned, states):
        reference = sum(np.abs(ek @ state) ** 2 for ek in kraus)
        assert np.max(np.abs(q - reference)) <= 1e-12
        assert np.max(np.abs(thin(np.abs(state) ** 2, eta) - q)) <= 1e-12


@pytest.mark.parametrize("probs, message", [
    (np.full(8, 1.1 / 8), "sums to 1"),
    (np.r_[1.1, -0.1, np.zeros(6)], "not positive"),
    (np.full(MAX_DIM + 1, 1.0 / (MAX_DIM + 1)), "last axis"),
    (np.zeros((3, 0)), "last axis"),
])
def test_thin_rejects_invalid_distributions(probs, message):
    with pytest.raises(ValueError, match=message):
        thin(probs, 0.9)


def _distributions(space):
    states = displace(space, cat_state(space, 2.0), [0.1, 0.5, 1.0])
    return np.abs(np.concatenate((states, [fock_state(space, 3)]))) ** 2


def test_thin_per_channel_matches_one_channel_at_a_time():
    # an eta sweep thins each point by its own efficiency; repeated and lossless
    # efficiencies included
    space = FockSpace(recommend_dim(2.0, 1.0))
    probs = _distributions(space)
    etas = [0.8, 1.0, 0.8, 0.5]
    want = np.array([thin(p, eta) for p, eta in zip(probs, etas)])
    assert np.max(np.abs(thin(probs, etas) - want)) <= 1e-15
    # a stack of distributions per efficiency
    pairs = np.stack((probs, probs[::-1]), axis=1)
    want = np.array([thin(p, eta) for p, eta in zip(pairs, etas)])
    assert np.max(np.abs(thin(pairs, etas) - want)) <= 1e-15


def test_thin_per_channel_checks_every_row():
    etas = [0.9, 0.5]
    valid = np.r_[1.0, np.zeros(7)]
    with pytest.raises(ValueError, match="sums to 1"):
        thin([valid, np.full(8, 1.1 / 8)], etas)
    with pytest.raises(ValueError, match="not positive"):
        thin([valid, np.r_[1.1, -0.1, np.zeros(6)]], etas)
    with pytest.raises(ValueError, match="2 efficiencies for 3 distributions"):
        thin([valid] * 3, etas)


def test_thin_per_channel_memory_is_bounded():
    # 200 distinct efficiencies at MAX_DIM: a stack of all their tables would
    # take 105 MB; a product builds one 512 KiB table at a time here, far
    # inside the MAX_STEPS x MAX_DIM complex block an oracle command may hold
    etas = np.linspace(0.5, 0.99, 200)
    probs = np.zeros((len(etas), MAX_DIM))
    probs[:, 0] = 1.0
    _log_binomials(MAX_DIM)
    tracemalloc.start()
    try:
        q = thin(probs, etas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q, probs)  # the vacuum loses nothing
    assert peak <= 4 * 8 * MAX_DIM ** 2 + 2 * probs.nbytes
    assert peak <= 16 * MAX_STEPS * MAX_DIM < 8 * len(etas) * MAX_DIM ** 2


@pytest.mark.parametrize("dim", [8, 30, 76])
def test_kraus_operators_match_ladder_construction(dim):
    # E_k lowers |m+k> to |m>: its squared entries are the table's k-th superdiagonal
    for eta in (0.3, 0.9, 0.98):
        table = _thinning_table(dim, eta)
        for k, ek in enumerate(ladder_kraus(dim, eta, dim)):
            assert np.max(np.abs(np.diagonal(ek, k) ** 2 - np.diagonal(table, k))) <= 1e-12


def test_purification_over_a_sequence_of_etas_stacks_each_eta():
    # one density matrix per efficiency, in order, each as its single call
    # gives it up to rounding; a one-element sequence is a stack of one
    space = FockSpace(24)
    state = displace(space, cat_state(space, 1.0), [0.6])[0]
    etas = [0.5, 0.9, 1.0, 0.98]
    stack = apply_loss_via_purification(state, etas)
    assert stack.shape == (len(etas), 24, 24)
    for rho, eta in zip(stack, etas):
        assert np.max(np.abs(rho - apply_loss_via_purification(state, eta))) <= 1e-15
    assert apply_loss_via_purification(state, [0.9]).shape == (1, 24, 24)


def test_single_photon_loss_matrix():
    space = FockSpace(24)
    rho = apply_loss_via_purification(fock_state(space, 1), 0.98)
    expected = np.zeros((24, 24), dtype=complex)
    expected[0, 0] = 0.02
    expected[1, 1] = 0.98
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_coherent_stays_coherent():
    alpha, eta = 1.5, 0.9
    space = FockSpace(24)
    rho = apply_loss_via_purification(coherent(space, alpha), eta)
    target = coherent(space, math.sqrt(eta) * alpha)
    assert fidelity_with_pure(target, rho) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.95])
def test_trace_preserved_and_positive(eta):
    # 24 levels leave 3e-11 of D(0.7)|cat 1.5> in their top five
    space = FockSpace(24, tail_tol=1e-9)
    state = displace(space, cat_state(space, 1.5), [0.7])[0]
    rho = apply_loss_via_purification(state, eta)
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho)[0] > -1e-9


def test_loss_composition():
    space = FockSpace(recommend_dim(1.5, 0.5))
    p = np.abs(displace(space, cat_state(space, 1.5), [0.5])[0]) ** 2
    two_step = thin(thin(p, 0.8), 0.9)
    one_step = thin(p, 0.72)
    assert np.max(np.abs(two_step - one_step)) < 1e-8


@pytest.mark.parametrize("eta", [0.5, 0.9, 0.98])
def test_purification_matches_kraus(eta):
    space = FockSpace(24)
    for state in (fock_state(space, 2), cat_state(space, 1.0),
                  displace(space, fock_state(space, 1), [0.4])[0]):
        direct = ladder_kraus_channel(state, eta)
        purified = apply_loss_via_purification(state, eta)
        assert trace_distance(direct, purified) < 1e-9


@pytest.mark.parametrize("eta", [0.3, 0.9])
def test_purification_matches_expm_unitary(eta):
    # oracle: the dense beamsplitter unitary expm(theta (a b† - a† b))
    d = 8
    space = FockSpace(d, tail_tol=1e-6)
    a = lowering(d)
    eye = np.eye(d)
    a_sig, a_bath = np.kron(a, eye), np.kron(eye, a)
    theta = math.acos(math.sqrt(eta))
    unitary = expm(theta * (a_sig @ a_bath.T - a_sig.T @ a_bath))
    for state in (fock_state(space, 3), cat_state(space, 0.6)):
        joint = np.zeros(d * d, dtype=complex)
        joint[::d] = state
        psi = (unitary @ joint).reshape(d, d)
        reference = psi @ psi.conj().T
        got = apply_loss_via_purification(state, eta)
        assert np.max(np.abs(got - reference)) <= 1e-12


@pytest.mark.parametrize("d", [8, 24])
def test_beamsplitter_sectors_match_dense_generator(d):
    # the dense i(a b† - a† b) on the d^2 joint space, index k d + m for |k>|m>
    a = lowering(d)
    eye = np.eye(d)
    a_sig, a_bath = np.kron(a, eye), np.kron(eye, a)
    dense = 1j * (a_sig @ a_bath.T - a_sig.T @ a_bath)
    sectors = _beamsplitter_eigenbasis(d)
    assert len(sectors) == d
    total = np.add.outer(np.arange(d), np.arange(d)).ravel()
    # no coupling between different total photon numbers
    assert np.all(dense[total[:, None] != total[None, :]] == 0.0)
    for n, (lam, vec) in enumerate(sectors):
        k = np.arange(n + 1)
        idx = k * d + n - k
        block = (vec * lam) @ vec.conj().T
        assert np.max(np.abs(block - dense[np.ix_(idx, idx)])) <= 1e-12


def test_purification_memory_is_per_sector():
    # the dense d^2 x d^2 eigenbasis put 15.5 MiB through the allocator at d = 24
    space = FockSpace(24)
    state = displace(space, cat_state(space, 1.0), [0.6])[0]
    _beamsplitter_eigenbasis.cache_clear()
    tracemalloc.start()
    try:
        apply_loss_via_purification(state, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# lossy displaced single photon


def test_lossy_fock1_no_displacement():
    space = FockSpace(16)
    q = thin(np.abs(fock_state(space, 1)) ** 2, 0.98)
    expected = np.zeros(16)
    expected[0] = 0.02
    expected[1] = 0.98
    np.testing.assert_allclose(q, expected, atol=1e-12)


def test_lossy_fock1_miss_probability():
    # [eta (1 - d'^2)^2 + (1-eta) d'^2] e^{-d'^2} at delta=1.01, eta=0.98
    delta, eta = 1.01, 0.98
    d2 = eta * delta * delta
    expected = (eta * (1.0 - d2) ** 2 + (1.0 - eta) * d2) * math.exp(-d2)
    space = FockSpace(recommend_dim(1.0, delta))
    displaced = displace(space, fock_state(space, 1), [delta])[0]
    q = thin(np.abs(displaced) ** 2, eta)
    assert q[1] == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# lossy displaced cat


def test_lossy_cat_lossless_limit_is_pure():
    # at eta = 1 the closed-form statistics are those of the pure displaced cat
    alpha, delta = 1.5, 0.3
    space = FockSpace(recommend_dim(alpha, delta))
    p = np.abs(displace(space, cat_state(space, alpha), [delta])[0]) ** 2
    closed = np.array(cat_pn(alpha, delta, 1.0, space.dim))
    assert np.max(np.abs(closed - p)) < 1e-9


def test_lossy_cat_photon_distribution_termwise():
    alpha, delta, eta = 1.5, 0.4, 0.9
    space = FockSpace(recommend_dim(alpha, delta))
    displaced = displace(space, cat_state(space, alpha), [delta])[0]
    q = thin(np.abs(displaced) ** 2, eta)
    closed = cat_pn(alpha, delta, eta, space.dim)
    for n in range(space.dim):
        assert q[n] == pytest.approx(closed[n], abs=1e-9)


def test_lossy_cat_parity_closed_form():
    # parity of the purified lossy state: a reference that shares no code with thin
    alpha, delta, eta = 1.0, 0.35, 0.95
    space = FockSpace(24)
    displaced = displace(space, cat_state(space, alpha), [delta])[0]
    rho = apply_loss_via_purification(displaced, eta)
    parity = float(parity_signs(space.dim) @ np.diagonal(rho).real)
    assert parity == pytest.approx(cat_parity(alpha, delta, eta), abs=1e-8)
