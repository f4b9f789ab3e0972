"""The coherent amplitudes <n|alpha>, one numpy complex scalar per level,
kept in the tests as the reference ``fock._coherent_amplitudes`` must match
bit for bit.

This is the loop the program ran before it took the recurrence in Python
floats: each amplitude is the last one times alpha, divided by sqrt(n), in
complex arithmetic.
"""

import math

import numpy as np


def loop_coherent_amplitudes(dim: int, alpha: float) -> np.ndarray:
    """<n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n < dim."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps
