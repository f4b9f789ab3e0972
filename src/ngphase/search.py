"""Bracketed 1-D root finding by sign-change bisection."""

from __future__ import annotations

from typing import Callable


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of f in [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
