"""Golden-section minimization kept in the tests as an independent reference.

The program's own search lives inline in ``protocols._cat_parity_minimum``;
the tests that check its optimum, and the Fock-1 minimum, use this copy, so a
reference never shares its search with the code it checks.
"""

import math

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
