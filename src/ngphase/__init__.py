"""Single-shot detection of a known interferometric phase shift.

Non-Gaussian probe states (Fock and Schrodinger-cat) injected into an
interferometer's dark port become displaced copies of themselves; when probe
and displaced probe are orthogonal the phase shift is detectable without
error.  This package provides the truncated Fock-space numerics, the
detector-loss channel, the closed-form error rates of the photon-counting
strategies, and a CSV-emitting CLI, with every closed form verified against
the independent numeric route.
"""

from .analytic import (
    ErrorRates,
    ProtocolParams,
    StateFamily,
    baseline_phase_errors,
    cat_error_rates,
    cat_norm,
    cat_overlap,
    cat_overlap_zero,
    cat_parity,
    cat_pn,
    fock1_error_rates,
    fock_overlap,
    helstrom,
    laguerre,
    laguerre_first_root,
    threshold_phase,
)
from .fock import (
    ConvergenceError,
    DensityOperator,
    FockSpace,
    LeakageError,
    PureState,
    SpaceMismatchError,
    cat_state,
    coherent_state,
    displace,
    fock_state,
    overlap,
    parity_expectation,
    photon_distribution,
    recommend_dim,
    squeeze,
    trace_distance,
)
from .loss import (
    LossChannel,
    apply_loss,
    apply_loss_via_purification,
    lossy_displaced_cat,
    lossy_displaced_fock1,
    thin,
)
from .protocols import (
    Evaluation,
    OperatingPoint,
    OperatingPointSource,
    SweepResult,
    UnsupportedProtocolError,
    delta_to_phi,
    evaluate,
    optimize_delta,
    phi_to_delta,
    sweep,
)

__version__ = "0.1.0"
