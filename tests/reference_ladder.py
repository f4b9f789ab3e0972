"""The dense ladder operator, which the tests build reference generators
from (matrix exponentials, the dense two-mode beamsplitter).  The program
itself diagonalises each generator from its off-diagonal alone and forms
no dense generator.
"""

import numpy as np


def lowering(dim: int) -> np.ndarray:
    """Real matrix of the ladder operator a on dim levels."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
