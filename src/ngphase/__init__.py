"""Single-shot detection of a known interferometric phase shift.

Non-Gaussian probe states (Fock and Schrodinger-cat) injected into an
interferometer's dark port become displaced copies of themselves; when probe
and displaced probe are orthogonal the phase shift is detectable without
error.  This package provides the truncated Fock-space numerics, the
detector-loss channel, the closed-form error rates of the photon-counting
strategies, and a CSV-emitting CLI, with every closed form verified against
the independent numeric route.
"""

import importlib

__version__ = "0.1.0"

# Public name -> its submodule, imported on first access (PEP 562), so that
# ``import ngphase`` loads numpy only once a ``fock`` or ``loss`` name is used.
_HOME = {
    **dict.fromkeys((
        "ErrorRates", "ProtocolParams", "StateFamily", "baseline_phase_errors",
        "cat_error_rates", "cat_norm", "cat_overlap", "cat_overlap_zero", "cat_parity",
        "cat_parity_curve", "cat_pn", "fock1_error_rates", "fock_overlap", "helstrom",
        "laguerre", "laguerre_first_root", "threshold_phase",
    ), "analytic"),
    **dict.fromkeys((
        "ConvergenceError", "FockSpace", "LeakageError", "cat_state", "displace",
        "fock_state", "recommend_dim", "squeeze",
    ), "fock"),
    **dict.fromkeys(("apply_loss_via_purification", "thin"), "loss"),
    **dict.fromkeys((
        "Evaluation", "OperatingPoint", "OperatingPointSource", "UnsupportedProtocolError",
        "delta_to_phi", "evaluate", "optimize_delta", "phi_to_delta", "sweep",
    ), "protocols"),
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
