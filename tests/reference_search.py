"""Searches kept in the tests as independent references.

``golden_section_minimize`` is the golden-section search, and
``full_scan_cat_parity_minimum`` the cat operating point by a full scan: all 64
cells read in order, then that search.  The program's scan skips the cells its
bound rules out and must agree with it bit for bit.  The tests that check the
program's optimum, and the Fock-1 minimum, use these copies, so a reference
never shares its search with the code it checks.
"""

import math

from ngphase import analytic

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


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


def full_scan_cat_parity_minimum(alpha, eta):
    """(d', parity) at the lossy cat parity's minimum: every one of the 64
    cells i hi / 64 evaluated, the first lowest taken, then the golden-section
    search on its neighbours, all in d' with the d' -> delta -> d' round trip.
    Where a cell's delta is not a finite float, it raises the program's
    ValueError."""
    root_eta = math.sqrt(eta)
    n_cells = 64
    if not root_eta * alpha > 0.0 or not math.isfinite(
            n_cells * (0.5 * math.pi / (root_eta * alpha)) / root_eta):
        raise ValueError(f"alpha {alpha!r} and eta {eta!r} put the cat operating point "
                         f"out of float range")
    hi = 0.5 * math.pi / (root_eta * alpha)
    curve = analytic.cat_parity_curve(alpha, eta)
    best = 0
    for i in range(1, n_cells + 1):
        parity = curve(i * hi / n_cells / root_eta)
        if best == 0 or parity < best_parity:
            best, best_parity = i, parity
    lo = (best - 1) * hi / n_cells if best > 1 else (hi / n_cells) / 2.0
    hi = (best + 1) * hi / n_cells if best < n_cells else hi
    return golden_section_minimize(lambda x: curve(x / root_eta), lo, hi)
