"""Printed closed-form numbers held to 50-digit references.

Each reference is evaluated with mpmath at 50 significant digits from a
formula other than the program's, and each test states its bound in units in
the last place (ulps) of the program's float.
"""

import math

import mpmath
import pytest

from ngphase.analytic import cat_false_positive_product_form, laguerre_first_root
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


@pytest.mark.parametrize("n", list(range(1, 101)) + [200, 500, 1000, 2000, 3000])
def test_laguerre_first_root_within_its_ulp_bound(n):
    # the float recurrence's own rounding, about 1e-15 absolute near the root,
    # limits the polished root: at most 5.5 ulps for n <= 10 and 0.13 n^2 ulps
    # above (n = 11) over n = 1 .. 300 and every 37th n up to 3000
    root = laguerre_first_root(n)
    reference = mpmath.findroot(lambda x: _laguerre_sum(n, x), mpmath.mpf(root))
    assert _ulps(root, reference) <= 6 + 0.15 * n * n


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


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.9, 0.95, 0.98, 1.0])
def test_cat_operating_point_within_its_ulp_bound(eta):
    # the root of the parity's stationarity condition
    # g = d' (D cos 4a'd' + F) + a' D sin 4a'd' in the full scan's bracket;
    # the worst seen was 2.6 ulps, at eta = 1/2 (where D cos + F is
    # D (1 + cos) and cancels at the root), and 2.4 over 300 random
    # alpha in [0.3, 4], eta in [0.5, 1]
    for alpha in [0.5 + 0.125 * k for k in range(29)]:
        a, e = mpmath.mpf(alpha), mpmath.mpf(eta)
        a_p = mpmath.sqrt(e) * a
        damping, floor = mpmath.exp(-2 * (1 - e) * a * a), mpmath.exp(-2 * a_p * a_p)

        def g(d):
            return d * (damping * mpmath.cos(4 * a_p * d) + floor) + a_p * damping * mpmath.sin(
                4 * a_p * d)

        lo, _, hi = full_scan_cell(alpha, eta)
        assert g(lo) > 0 > g(hi), alpha  # the root lies inside, not at an end
        root = mpmath.findroot(g, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        assert _ulps(_cat_parity_minimum(alpha, eta)[0], root) <= 4, alpha
