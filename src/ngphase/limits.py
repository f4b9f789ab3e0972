"""Size and tolerance bounds shared by the oracle and the CLI.

Kept free of numpy, so that the closed-form commands can validate their
flags without loading the Fock-basis engine.
"""

DEFAULT_TAIL_TOL = 1e-12

# Largest basis any space may have.  A dense matrix takes 16 dim^2 bytes
# (1 MiB at 256), a cached eigenbasis at most as much and a thinning table
# half as much; eigh costs O(dim^3).  256 levels hold |alpha|^2 + delta^2 up
# to 143 at the default tail tolerance, far past the alpha <= 4 of the
# paper's figures (84 levels at delta = 2.5).
MAX_DIM = 256

# Longest delta (or axis) grid a command may ask for, as --steps, --grid or
# --values.  An oracle command runs all its points at once, and no array it
# makes is larger than a steps x dim complex block, 41 MB at MAX_DIM; a few
# such blocks are alive at a time (peak RSS 167-244 MB measured for 10,000
# points on the delta, eta and alpha axes).  The benchmark's largest grid has
# 1009 points.
MAX_STEPS = 10_000
