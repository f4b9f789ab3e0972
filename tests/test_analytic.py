"""Closed-form tests.

Oracles: scipy.special for Laguerre values, quadratic closed forms for low
roots, the truncated-basis numerics for overlaps and parities, bracketed
searches for optima.
"""

import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import eval_laguerre

from ngphase.analytic import (
    ErrorRates,
    ProtocolParams,
    StateFamily,
    baseline_phase_errors,
    cat_error_rates,
    cat_false_positive_product_form,
    cat_norm,
    cat_overlap,
    cat_overlap_zero,
    cat_amplitude_in_range,
    cat_parity,
    cat_parity_curve,
    cat_pn,
    fock1_error_rates,
    fock1_false_negative,
    fock_overlap,
    helstrom,
    laguerre,
    laguerre_first_root,
    threshold_phase,
)
from ngphase.fock import FockSpace, cat_state, displace, fock_state, parity_signs, recommend_dim
from ngphase.limits import MAX_DIM
from ngphase.loss import thin
from reference_cat_pn import scalar_cat_pn
from reference_search import golden_section_minimize

L2_FIRST_ROOT = 0.58578643762690495  # 2 - sqrt(2)
HALF_OVERLAP_HELSTROM = 0.14644660940672624  # (1 - sqrt(1/2)) / 2


# ---------------------------------------------------------------------------
# params / rates containers


def test_params_family_consistency():
    with pytest.raises(ValueError):
        ProtocolParams(family=StateFamily.FOCK, photons=1e6)  # n missing
    with pytest.raises(ValueError):
        ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, alpha=2.0)
    with pytest.raises(ValueError):
        ProtocolParams(family=StateFamily.CAT, photons=1e6)  # alpha missing
    with pytest.raises(ValueError):
        ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=2.0, n=1)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, 1e300, 9.49e153])
def test_params_reject_alpha_whose_norm_exponent_overflows(alpha):
    assert not cat_amplitude_in_range(alpha)
    with pytest.raises(ValueError, match="alpha"):
        ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha)


def test_params_accept_largest_cat_amplitudes():
    for alpha in (1e-300, 1e150, 9.48e153):
        assert cat_amplitude_in_range(alpha)
        ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha)


def test_params_prior_must_lie_in_the_unit_interval():
    for p0 in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="priors"):
            ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, p0=p0)
    ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, p0=0.3)


def test_error_rates_ranges():
    with pytest.raises(ValueError):
        ErrorRates(p_fp=-0.1, p_fn=0.0, helstrom=0.0)
    with pytest.raises(ValueError):
        ErrorRates(p_fp=0.0, p_fn=1.1, helstrom=0.0)
    with pytest.raises(ValueError):
        ErrorRates(p_fp=0.0, p_fn=0.0, helstrom=0.6)


# ---------------------------------------------------------------------------
# Laguerre machinery


@pytest.mark.parametrize("x", [-2.0, 0.0, 0.3, 1.0, 5.0])
def test_laguerre_order_zero(x):
    assert laguerre(0, x) == 1.0


def test_laguerre_l1_at_one():
    assert laguerre(1, 1.0) == 0.0


def test_laguerre_l2_root_closed_form():
    # L2(x) = 1 - 2x + x^2/2 has roots 2 +- sqrt(2)
    assert abs(laguerre(2, L2_FIRST_ROOT)) < 1e-12


@given(n=st.integers(0, 25), x=st.floats(min_value=-5.0, max_value=30.0))
@settings(max_examples=80, deadline=None)
def test_laguerre_matches_scipy(n, x):
    assert laguerre(n, x) == pytest.approx(float(eval_laguerre(n, x)), rel=1e-10, abs=1e-10)


def test_first_root_values():
    assert laguerre_first_root(1) == pytest.approx(1.0, abs=1e-12)
    assert laguerre_first_root(2) == pytest.approx(L2_FIRST_ROOT, abs=1e-10)


def test_first_roots_strictly_decreasing():
    roots = [laguerre_first_root(n) for n in range(1, 11)]
    assert all(b < a for a, b in zip(roots, roots[1:]))
    for n, root in enumerate(roots, start=1):
        assert abs(laguerre(n, root)) < 1e-10


def test_first_root_rejects_n_zero():
    with pytest.raises(ValueError):
        laguerre_first_root(0)


# ---------------------------------------------------------------------------
# overlaps


def test_fock_overlap_at_zero():
    for n in range(6):
        assert fock_overlap(n, 0.0) == 1.0


def test_fock_overlap_first_root():
    assert fock_overlap(1, 1.0) == 0.0


# <n|D(delta)|n> where L_n(delta^2) overflows and exp(-delta^2 / 2) underflows,
# from mpmath's laguerre and exp at 60 digits
@pytest.mark.parametrize("n, delta, reference", [
    (2000, 40.0, 1.2327640116407665944e-3),
    (1000, 39.0, 1.8052062896518295768e-2),
    (2000, 60.0, 5.5336218324088506724e-3),
    (10000, 150.0, -5.4687576767482508042e-3),
])
def test_fock_overlap_past_the_float_range_of_its_factors(n, delta, reference):
    assert not math.isfinite(laguerre(n, delta * delta) * math.exp(-0.5 * delta * delta))
    assert fock_overlap(n, delta) == pytest.approx(reference, rel=1e-13, abs=0)


def test_fock_overlap_keeps_the_plain_product_where_it_is_finite():
    d2 = 30.0 * 30.0
    assert fock_overlap(500, 30.0) == laguerre(500, d2) * math.exp(-0.5 * d2)
    # about 2.7e-192851: below the smallest float
    assert fock_overlap(10000, 1000.0) == 0.0
    # a delta whose square overflows stays out of range
    assert math.isnan(fock_overlap(2, 1e200))


def test_fock_overlap_against_numeric():
    n, delta = 3, 0.5
    space = FockSpace(recommend_dim(math.sqrt(n), delta))
    probe = fock_state(space, n)
    numeric = np.vdot(probe, displace(space, probe, [delta])[0])
    assert abs(numeric - fock_overlap(n, delta)) < 1e-9


def test_cat_overlap_normalization():
    for alpha in (0.5, 1.5, 3.0):
        assert cat_overlap(alpha, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_cat_overlap_vanishes_at_zero():
    for alpha in (1.0, 1.5, 2.0):
        assert abs(cat_overlap(alpha, cat_overlap_zero(alpha, 0))) < 1e-12


def test_cat_overlap_against_numeric():
    alpha, delta = 1.5, 0.3
    space = FockSpace(recommend_dim(alpha, delta))
    probe = cat_state(space, alpha)
    numeric = np.vdot(probe, displace(space, probe, [delta])[0])
    assert abs(numeric - cat_overlap(alpha, delta)) < 1e-8


def test_cat_overlap_zero_direct_value():
    alpha = 1.5
    expected = math.acos(-math.exp(-4.5)) / 3.0
    assert cat_overlap_zero(alpha, 0) == pytest.approx(expected, abs=1e-15)


def test_cat_overlap_zero_against_root_finding():
    # oracle: scipy's Brent root of the overlap formula itself around the claimed zero
    for alpha in (1.0, 1.5, 2.5):
        zero = cat_overlap_zero(alpha, 0)
        found = brentq(lambda d: cat_overlap(alpha, d), 0.5 * zero, zero + 0.4 / alpha,
                       xtol=1e-13)
        assert found == pytest.approx(zero, abs=1e-10)


def test_cat_overlap_zero_spacing():
    alpha = 1.7
    zeros = [cat_overlap_zero(alpha, k) for k in range(4)]
    for a, b in zip(zeros, zeros[1:]):
        assert b - a == pytest.approx(math.pi / alpha, abs=1e-12)


def test_cat_overlap_zero_large_alpha_asymptote():
    for alpha in (1.6, 2.0, 3.0):
        approx = math.pi / (4.0 * alpha)
        assert abs(cat_overlap_zero(alpha, 0) - approx) / approx < 0.01


# ---------------------------------------------------------------------------
# thresholds and baselines


def test_threshold_fock_lossless():
    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1)
    assert threshold_phase(params) == pytest.approx(1e-3, rel=1e-12)


def test_threshold_fock_lossy():
    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, eta=0.98)
    assert threshold_phase(params) == pytest.approx(1.0 / math.sqrt(0.98e6), rel=1e-12)


def test_threshold_cat_approximation():
    params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=3.0, r=1.0)
    approx = math.pi * math.exp(-1.0) / (4.0 * 3.0 * 1e3)
    assert abs(threshold_phase(params) - approx) / approx < 0.01


def test_baselines():
    snl, sqz = baseline_phase_errors(1e6, 0.0)
    assert snl == pytest.approx(5e-4, rel=1e-14)
    assert sqz == pytest.approx(5e-4, rel=1e-14)
    snl2, sqz2 = baseline_phase_errors(1e6, math.log(2.0))
    assert sqz2 == pytest.approx(snl2 / 2.0, rel=1e-12)


def test_snl_to_threshold_ratio():
    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1)
    snl, _ = baseline_phase_errors(1e6)
    assert snl / threshold_phase(params) == pytest.approx(0.5, rel=1e-14)


# ---------------------------------------------------------------------------
# Helstrom bound


def test_helstrom_orthogonal_states():
    assert helstrom(0.5, 0.0) == 0.0


def test_helstrom_identical_states():
    assert helstrom(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("p0", [0.0, 0.1, 0.3, 0.7, 1.0])
def test_helstrom_identical_states_err_with_the_smaller_prior(p0):
    # indistinguishable states: guess the likelier hypothesis, err with the other prior
    assert helstrom(p0, 1.0) == pytest.approx(min(p0, 1.0 - p0), abs=1e-15)


def test_helstrom_half_overlap():
    assert helstrom(0.5, 0.5) == pytest.approx(HALF_OVERLAP_HELSTROM, abs=1e-15)


@pytest.mark.parametrize("p0, overlap_sq", [
    (0.9792698990633135, 0.9999999999999983),  # a 0.98 prior on a barely displaced cat
    (0.5, 1.0 - 2.0 ** -40),  # near-identical states at equal priors
    (0.5, 1e-20),  # nearly orthogonal states: about x / 4
    (0.3, 0.6),
    (1e-6, 0.99),
])
def test_helstrom_is_within_two_ulps_of_the_exact_bound(p0, overlap_sq):
    # the exact value of (1 - sqrt(1 - 4 p0 (1 - p0) s)) / 2 for the float inputs
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p, s = decimal.Decimal(p0), decimal.Decimal(overlap_sq)
        exact = (1 - (1 - 4 * p * (1 - p) * s).sqrt()) / 2
    assert helstrom(p0, overlap_sq) == pytest.approx(float(exact), rel=2 * sys.float_info.epsilon,
                                                     abs=0)


def test_helstrom_rejects_inconsistent_inputs():
    with pytest.raises(ValueError):
        helstrom(0.5, 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# single-photon strategy


def test_fock1_lossless_unambiguous_point():
    rates = fock1_error_rates(1.0, 1.0)
    assert rates.p_fp == 0.0
    assert rates.p_fn == 0.0


def test_fock1_rates_at_operating_point():
    eta = 0.98
    rates = fock1_error_rates(1.0 / math.sqrt(eta), eta)
    assert rates.p_fp == pytest.approx(0.02, abs=1e-15)
    assert rates.p_fn == pytest.approx(0.02 / math.e, abs=1e-15)


@pytest.mark.parametrize("eta", [0.8, 0.9, 0.98])
def test_fock1_fn_minimum_at_unit_detected_displacement(eta):
    # oracle: bracketed golden-section over d'^2 on the first branch
    argmin, _ = golden_section_minimize(
        lambda d2: fock1_false_negative(math.sqrt(d2 / eta), eta), 1e-4, 2.5, tol=1e-12)
    assert abs(argmin - 1.0) < 1e-6


@pytest.mark.parametrize("eta", [0.8, 0.9, 0.98, 1.0])
def test_fock1_fn_stationary_at_unit_point(eta):
    step = 1e-6
    up = fock1_false_negative(math.sqrt((1.0 + step) / eta), eta)
    down = fock1_false_negative(math.sqrt((1.0 - step) / eta), eta)
    assert abs(up - down) / (2.0 * step) < 1e-8


def test_fock1_fp_monotone_in_eta():
    fps = [fock1_error_rates(1.0, eta).p_fp for eta in (0.5, 0.7, 0.9, 0.99)]
    assert all(b < a for a, b in zip(fps, fps[1:]))


# ---------------------------------------------------------------------------
# cat strategy


def test_cat_parity_lossless_at_origin():
    assert cat_parity(2.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_cat_parity_no_signal_value(alpha):
    # undisplaced lossy parity (2/K)(e^{-2 eps^2 a'^2} + e^{-2 a'^2})
    eta = 0.9
    eps_sq = (1.0 - eta) / eta
    alpha_p_sq = eta * alpha * alpha
    expected = (2.0 / cat_norm(alpha)) * (
        math.exp(-2.0 * eps_sq * alpha_p_sq) + math.exp(-2.0 * alpha_p_sq)
    )
    assert cat_parity(alpha, 0.0, eta) == pytest.approx(expected, abs=1e-15)


def test_cat_parity_against_numeric():
    alpha, delta, eta = 2.0, 0.35, 0.95
    space = FockSpace(recommend_dim(alpha, delta))
    displaced = displace(space, cat_state(space, alpha), [delta])[0]
    q = thin(np.abs(displaced) ** 2, eta)
    numeric = float(parity_signs(space.dim) @ q)
    assert cat_parity(alpha, delta, eta) == pytest.approx(numeric, abs=1e-8)


def _cat_parity_term_by_term(alpha, delta, eta):
    # every factor evaluated at each delta, in the curve's operation order
    alpha_p = math.sqrt(eta) * alpha
    delta_p = math.sqrt(eta) * delta
    damping = math.exp(-2.0 * (1.0 - eta) * alpha * alpha)
    return (2.0 * math.exp(-2.0 * delta_p * delta_p) / cat_norm(alpha)) * (
        damping * math.cos(4.0 * alpha_p * delta_p) + math.exp(-2.0 * alpha_p * alpha_p)
    )


CURVE_DELTAS = [0.0, -0.0, 1e-300, -1e-9, math.pi / 8.0, -math.pi / 8.0] + [
    k / 40.0 for k in range(-100, 101)]


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0, 3.9])
@pytest.mark.parametrize("eta", [0.5, 0.8, 0.93, 1.0])
def test_cat_parity_curve_is_bit_identical_to_term_by_term_formula(alpha, eta):
    # the optimizer's comparisons and the printed digits rest on exact equality
    curve = cat_parity_curve(alpha, eta)
    root_eta = math.sqrt(eta)
    for delta in CURVE_DELTAS:
        expected = _cat_parity_term_by_term(alpha, delta, eta)
        assert curve(delta) == expected
        assert cat_parity(alpha, delta, eta) == expected
        # the optimizer's detector-side round trip d' -> d'/sqrt(eta)
        assert curve(delta / root_eta) == _cat_parity_term_by_term(alpha, delta / root_eta, eta)


@pytest.mark.parametrize("alpha, eta", [(0.0, 1.0), (-1.0, 0.9), (math.nan, 0.9),
                                        (1.0, 0.0), (1.0, 1.5), (1.0, math.nan)])
def test_cat_parity_curve_rejects_invalid_parameters(alpha, eta):
    with pytest.raises(ValueError):
        cat_parity_curve(alpha, eta)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_cat_fp_vanishes_lossless(alpha):
    assert cat_error_rates(alpha, 0.4, 1.0).p_fp == 0.0


def test_cat_fn_at_parity_minimum():
    # oracle: dense grid scan of the lossless parity
    alpha = 2.0
    grid = np.linspace(1e-4, math.pi / (2.0 * alpha), 20001)
    parities = [cat_parity(alpha, d, 1.0) for d in grid]
    best = grid[int(np.argmin(parities))]
    p_fn = cat_error_rates(alpha, best, 1.0).p_fn
    assert abs(best - 0.371) < 0.005
    assert abs(p_fn - 0.126) < 0.01


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("eta", [0.5, 0.9, 0.98])
def test_cat_fp_product_identity(alpha, eta):
    direct = cat_error_rates(alpha, 0.3, eta).p_fp
    assert abs(direct - cat_false_positive_product_form(alpha, eta)) < 1e-12


def test_cat_fp_limits():
    # p_fp -> 0 both as eta -> 1 and as alpha -> 0
    fps_eta = [cat_error_rates(2.0, 0.3, eta).p_fp for eta in (0.6, 0.9, 0.99, 1.0)]
    assert all(b < a for a, b in zip(fps_eta, fps_eta[1:]))
    assert fps_eta[-1] == 0.0
    fps_alpha = [cat_error_rates(a, 0.3, 0.9).p_fp for a in (2.0, 1.0, 0.3, 0.05)]
    assert all(b < a for a, b in zip(fps_alpha, fps_alpha[1:]))


@given(alpha=st.floats(min_value=0.2, max_value=3.0),
       delta=st.floats(min_value=0.0, max_value=2.0),
       eta=st.floats(min_value=0.3, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_cat_parity_bounded(alpha, delta, eta):
    assert abs(cat_parity(alpha, delta, eta)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# lossy cat photon distribution


def test_cat_pn_sums_to_one():
    alpha, delta, eta = 1.5, 0.4, 0.9
    total = sum(cat_pn(alpha, delta, eta, 81))
    assert abs(total - 1.0) < 1e-10


def test_cat_pn_alternating_sum_is_parity():
    alpha, delta, eta = 1.5, 0.4, 0.9
    signed = sum((-1.0) ** n * p for n, p in enumerate(cat_pn(alpha, delta, eta, 81)))
    assert abs(signed - cat_parity(alpha, delta, eta)) < 1e-10


def test_cat_pn_odd_terms_vanish_lossless_undisplaced():
    probs = cat_pn(1.5, 0.0, 1.0, 42)
    for n in (1, 3, 5, 17, 41):
        assert probs[n] == 0.0


def test_cat_pn_large_n_no_overflow():
    value = cat_pn(3.0, 0.5, 0.9, 401)[400]
    assert value >= 0.0
    assert math.isfinite(value)


@given(alpha=st.floats(min_value=-200.0, max_value=2.0).map(lambda e: 10.0 ** e),
       delta=st.floats(min_value=-5.0, max_value=5.0),
       eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       levels=st.integers(1, MAX_DIM))
@example(alpha=1e-200, delta=0.0, eta=1.0, levels=3)  # lambda underflows to 0
@example(alpha=1e-200, delta=1e-200, eta=0.5, levels=MAX_DIM)
@settings(max_examples=200, deadline=None)
def test_cat_pn_matches_the_scalar_form_bit_for_bit(alpha, delta, eta, levels):
    # the n-free factors are hoisted out of the per-level loop, not rewritten
    got = cat_pn(alpha, delta, eta, levels)
    assert len(got) == levels
    assert [p.hex() for p in got] == [scalar_cat_pn(alpha, delta, eta, n).hex()
                                       for n in range(levels)]


@pytest.mark.parametrize("args, message", [
    ((1.5, 0.4, 0.9, 0), r"^levels must be >= 1, got 0$"),
    ((1.5, 0.4, 0.9, -3), r"^levels must be >= 1, got -3$"),
    ((0.0, 0.4, 0.9, 5), r"^alpha must be > 0, got 0.0$"),
    ((math.nan, 0.4, 0.9, 5), r"^alpha must be > 0, got nan$"),
    ((1.5, 0.4, 0.0, 5), r"^eta must be in \(0, 1\], got 0.0$"),
    ((1.5, 0.4, 1.1, 5), r"^eta must be in \(0, 1\], got 1.1$"),
])
def test_cat_pn_guards(args, message):
    with pytest.raises(ValueError, match=message):
        cat_pn(*args)


# Guards that no CLI input reaches: only a direct call can fire them.
API_GUARDS = [
    (laguerre, (-1, 0.5), r"^n must be >= 0, got -1$"),
    (fock_overlap, (-1, 0.5), r"^n must be >= 0, got -1$"),
    (cat_overlap, (0.0, 0.5), r"^alpha must be > 0, got 0.0$"),
    (cat_overlap_zero, (0.0,), r"^alpha must be > 0, got 0.0$"),
    (cat_overlap_zero, (1.0, -1), r"^k must be >= 0, got -1$"),
    (fock1_error_rates, (0.5, 0.0), r"^eta must be in \(0, 1\], got 0.0$"),
    (baseline_phase_errors, (0.0,), r"^photon number must be > 0, got 0.0$"),
]


@pytest.mark.parametrize("fn, args, message", API_GUARDS,
                         ids=[f"{fn.__name__}{args}" for fn, args, _ in API_GUARDS])
def test_api_only_guards(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
