"""Searches kept in the tests as independent references.

``golden_section_minimize`` is the golden-section search, which the Fock-1
minimum uses.  ``full_scan_cat_parity_minimum`` is the cat operating point by a
full scan: all 64 cells read in order through the curve, then a copy of the
program's bracketed Newton rule (``bracketed_newton_root``) on the parity's
stationarity condition.  The program scans only where eta <= 1/2 (elsewhere it
refines in an analytic bracket, and its d' is held to 50-digit roots instead);
there its scan skips the cells its bound rules out and evaluates the curve's
expression inline, and must agree with the full scan bit for bit.  The tests
that check the program's optimum, and the Fock-1 minimum, use these copies,
so a reference never shares its search with the code it checks.
"""

import math
import sys

from ngphase import analytic

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
N_CELLS = 64


def golden_section_minimize(f, lo, hi, tol=1e-10, max_iter=500):
    """Minimum of a unimodal f on [lo, hi]; returns (argmin, f(argmin))."""
    if not hi > lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    x1 = hi - GOLDEN_RATIO * (hi - lo)
    x2 = lo + GOLDEN_RATIO * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if hi - lo < tol:
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN_RATIO * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN_RATIO * (hi - lo)
            f2 = f(x2)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def bracketed_newton_root(g, x, lo, hi, max_iter=100):
    """Root of a g that falls through zero, from x inside [lo, hi]; ``g(x)``
    returns (g, g').  The sign of g at x picks the side of the root, and where
    g keeps that sign up to the side's end the end is returned.  Each step is a
    Newton step where g' < 0 and the step lands inside the bracket (or rounds
    back onto x), else a halving; it stops on a Newton step below 1e-13 x or a
    bracket of at most 4 eps hi."""
    value, slope = g(x)
    if value != 0.0:
        end = hi if value > 0.0 else lo
        end_value, _ = g(end)
        if (end_value >= 0.0) if value > 0.0 else (end_value <= 0.0):
            return end
        if value > 0.0:
            lo = x
        else:
            hi = x
    for _ in range(max_iter):
        if value == 0.0 or hi - lo <= 4.0 * sys.float_info.epsilon * hi:
            break
        step = value / slope if slope < 0.0 else math.inf
        if lo < x - step < hi or x - step == x:
            x -= step
            if abs(step) <= 1e-13 * x:
                break
        else:
            x = 0.5 * (lo + hi)
        value, slope = g(x)
        if value > 0.0:
            lo = x
        elif value < 0.0:
            hi = x
    return x


def cat_stationarity(alpha, eta):
    """g(d') = d' (D cos 4a'd' + F) + a' D sin 4a'd' and its derivative, the
    condition the cat parity's minimum satisfies (its derivative is
    -(8/K) e^{-2 d'^2} g), with D and F formed as the curve forms them."""
    a_p = math.sqrt(eta) * alpha
    four_a_p = 4.0 * a_p
    damping = math.exp(-2.0 * (1.0 - eta) * alpha * alpha)
    floor = math.exp(-2.0 * a_p * a_p)
    a_damping = a_p * damping

    def g(x):
        c, s = math.cos(four_a_p * x), math.sin(four_a_p * x)
        return (x * (damping * c + floor) + a_damping * s,
                damping * c + floor - four_a_p * x * damping * s + four_a_p * a_damping * c)
    return g


def full_scan_cell(alpha, eta):
    """The refinement's (lo, d', hi) from a full scan: every one of the 64
    cells i hi / 64 read through the curve in d' with the d' -> delta -> d'
    round trip, the first lowest taken; lo and hi are its neighbours' d', half
    the first cell below cell 1 and hi itself above cell 64.  Where a cell's
    delta is not a finite float, it raises the program's ValueError."""
    root_eta = math.sqrt(eta)
    if not root_eta * alpha > 0.0 or not math.isfinite(
            N_CELLS * (0.5 * math.pi / (root_eta * alpha)) / root_eta):
        raise ValueError(f"alpha {alpha!r} and eta {eta!r} put the cat operating point "
                         f"out of float range")
    hi = 0.5 * math.pi / (root_eta * alpha)
    curve = analytic.cat_parity_curve(alpha, eta)
    best = 0
    for i in range(1, N_CELLS + 1):
        parity = curve(i * hi / N_CELLS / root_eta)
        if best == 0 or parity < best_parity:
            best, best_parity = i, parity
    lo = (best - 1) * hi / N_CELLS if best > 1 else (hi / N_CELLS) / 2.0
    top = (best + 1) * hi / N_CELLS if best < N_CELLS else hi
    return lo, best * hi / N_CELLS, top


def full_scan_cat_parity_minimum(alpha, eta):
    """(d', parity) at the lossy cat parity's minimum: ``full_scan_cell``,
    then ``bracketed_newton_root`` on ``cat_stationarity``; the parity is the
    curve's at the d' found."""
    lo, d, hi = full_scan_cell(alpha, eta)
    d = bracketed_newton_root(cat_stationarity(alpha, eta), d, lo, hi)
    return d, analytic.cat_parity_curve(alpha, eta)(d / math.sqrt(eta))
