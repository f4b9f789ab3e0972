"""Printed closed-form numbers held to 50-digit references.

Each reference is evaluated with mpmath at 50 significant digits from a
formula other than the program's, and each test states its bound in units in
the last place (ulps) of the program's float.
"""

import math

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ngphase.analytic import (
    MAX_N,
    cat_false_positive_product_form,
    cat_overlap_zero,
    laguerre_first_root,
)
from ngphase.protocols import _cat_parity_minimum

from reference_search import full_scan_cell


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def _ulps(value: float, reference) -> float:
    """|value - reference| in ulps of ``value``."""
    return float(abs(mpmath.mpf(value) - reference) / math.ulp(value))


def _laguerre_sum(n: int, x):
    """L_n(x) as its power series, sum_k (-1)^k C(n, k) x^k / k!, at 50
    digits; near the first root (x about 1.4 / n) the terms fall fast."""
    term = total = mpmath.mpf(1)
    for k in range(1, n + 1):
        term *= -(n - k + 1) * x / (k * k)
        total += term
        if abs(term) < mpmath.mpf(10) ** -60:
            break
    return total


@pytest.mark.parametrize("n", list(range(1, 101)) + [200, 500, 1000, 2000, 3000, 5000, MAX_N])
def test_laguerre_first_root_within_its_ulp_bound(n):
    # Newton from Tricomi's j_{0,1}^2 / (4n + 2), below the first root, where
    # L_n is decreasing and convex, so the iterates climb to that root and
    # not to another (a secant from there reached a later root at n = 24);
    # the worst seen was 2.05 ulps over n = 1 .. 3000 and every 7th n up to
    # 10,000, and 1.47 at the n listed here
    start = mpmath.besseljzero(0, 1) ** 2 / (4 * n + 2)
    assert _laguerre_sum(n, start) > 0
    reference = mpmath.findroot(lambda x: _laguerre_sum(n, x), start, solver="newton")
    assert _ulps(laguerre_first_root(n), reference) <= 2


@pytest.mark.parametrize("k, bound", [(0, 8), (1, 4), (2, 3)])
def test_cat_overlap_zero_within_its_ulp_bound(k, bound):
    # the root of cos(2 alpha delta) + exp(-2 alpha^2) between (pi/2 + 2 pi k)
    # and (pi + 2 pi k) over 2 alpha; the worst seen over 30,000 random alpha
    # in [0.01, 10] was 7.3, 3.4 and 2.0 ulps for k = 0, 1, 2, all near
    # alpha = 0.01, where acos is steep near -1
    for alpha in [10.0 ** (-2 + j / 20) for j in range(61)]:
        a = mpmath.mpf(alpha)
        lo, hi = ((mpmath.pi / 2 + 2 * mpmath.pi * k) / (2 * a),
                  (mpmath.pi + 2 * mpmath.pi * k) / (2 * a))
        root = mpmath.findroot(lambda d: mpmath.cos(2 * a * d) + mpmath.exp(-2 * a * a),
                               (lo, hi), solver="anderson")
        assert _ulps(cat_overlap_zero(alpha, k), root) <= bound, alpha


@pytest.mark.parametrize("alpha", [10.0 ** (k / 4) for k in range(-8, 5)])
def test_cat_false_positive_product_form_within_its_ulp_bound(alpha):
    # 1 - eta log-uniform down to 1e-9, where 1 - exp(-x) would cancel (a
    # relative error of 2.6e-7 at alpha = 0.31, eta = 1 - 1.05e-9); with
    # -expm1(-x) the worst seen over 39,000 random points was 4.5 ulps
    a = mpmath.mpf(alpha)
    for k in range(37):
        eta = 1.0 - 10.0 ** (-9 + k * math.log10(0.5 / 1e-9) / 36)
        e = mpmath.mpf(eta)
        reference = ((1 - mpmath.exp(-2 * (1 - e) * a * a)) * (1 - mpmath.exp(-2 * e * a * a))
                     / (2 * (1 + mpmath.exp(-2 * a * a))))
        assert _ulps(cat_false_positive_product_form(alpha, eta), reference) <= 6, eta
    assert cat_false_positive_product_form(alpha, 1.0) == 0.0


def _cat_factors(alpha, eta):
    """a' = sqrt(eta) alpha, D = exp(-2 (1 - eta) alpha^2) and F = exp(-2 a'^2)
    of the lossy cat parity, at 50 digits from the float inputs."""
    a, e = mpmath.mpf(alpha), mpmath.mpf(eta)
    a_p = mpmath.sqrt(e) * a
    return a_p, mpmath.exp(-2 * (1 - e) * a * a), mpmath.exp(-2 * a_p * a_p)


def _cat_stationarity_root(alpha, eta):
    """The root of the cat parity's stationarity condition
    g = d' (D cos 4a'd' + F) + a' D sin 4a'd' at 50 digits: in
    [acos(-F / D), pi] / (4a') where eta > 1/2, the one root there, and in
    the full scan's bracket where not.  g is divided by D, so that findroot's
    test of |g| does not pass on a tiny D alone."""
    a_p, damping, floor = _cat_factors(alpha, eta)

    def g(d):
        return d * (mpmath.cos(4 * a_p * d) + floor / damping) + a_p * mpmath.sin(4 * a_p * d)

    if eta > 0.5:
        lo, hi = mpmath.acos(-floor / damping) / (4 * a_p), mpmath.pi / (4 * a_p)
    else:
        lo, _, hi = map(mpmath.mpf, full_scan_cell(alpha, eta))
    assert g(lo) > 0 > g(hi), alpha  # the root lies inside, not at an end
    return mpmath.findroot(g, (lo, hi), solver="anderson")


# log-spaced in [0.05, 0.3], where D cos + F cancels more and more at the
# root as alpha falls
SMALL_ALPHAS = [0.05 * 6 ** (j / 24) for j in range(25)]


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.9, 0.95, 0.98, 1.0])
def test_cat_operating_point_within_its_ulp_bound(eta):
    # alpha in [0.3, 5]: the worst seen here was 2.9 ulps, at eta = 1/2
    # (where D cos + F is D (1 + cos) and cancels at the root), and 3.3 over
    # 1,500 random alpha in [0.3, 5], eta in (1/2, 1).  SMALL_ALPHAS, eta > 1/2
    # only (at eta = 1/2 every cell's parity underflows there): 2.4 here, but
    # up to 34 over 1,500 random alpha in [0.05, 0.3], eta in (1/2, 1), at
    # eta = 0.501, where D cos + F cancels at the root (the scan-then-Newton
    # search gave the same d' there)
    alphas = [0.3, 0.4] + [0.5 + 0.125 * k for k in range(37)]
    for alpha in alphas + (SMALL_ALPHAS if eta > 0.5 else []):
        assert _ulps(_cat_parity_minimum(alpha, eta)[0],
                     _cat_stationarity_root(alpha, eta)) <= 4, alpha


@given(alpha=st.floats(min_value=-2.0, max_value=1.3).map(lambda e: 10.0 ** e),
       eta=st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cat_operating_point_is_the_global_minimum(alpha, eta):
    # where eta > 1/2 the search reads no parity before its refinement and
    # never leaves [acos(-F / D), pi] / (4a'): the 50-digit parity at the d'
    # it returns is no higher than at each of 256 evenly spaced d' over the
    # whole range (0, pi / (2a')), the midpoints of 256 equal cells.  (A
    # point at exactly pi / (4a') would be the minimum itself as eta -> 1/2,
    # closer to it than any float d'.)
    delta_p, _ = _cat_parity_minimum(alpha, eta)
    a_p, damping, floor = _cat_factors(alpha, eta)

    def parity(d):
        # (2/K) e^{-2 d^2} (D cos 4a'd + F); the positive 2/K is left out
        return mpmath.exp(-2 * d * d) * (damping * mpmath.cos(4 * a_p * d) + floor)

    found = parity(mpmath.mpf(delta_p))
    hi = mpmath.pi / (2 * a_p)
    assert all(found <= parity(hi * (i - 0.5) / 256) for i in range(1, 257)), delta_p
