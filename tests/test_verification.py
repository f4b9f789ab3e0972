"""Kill table: every registered ``verify`` check can fail.

Each check name maps to a named fault, a monkeypatch that breaks one thing
the check is there to watch (mutation testing: DeMillo, Lipton & Sayward,
IEEE Computer 11(4), 1978).  Under its fault the check must FAIL with a
finite discrepancy, not ERROR: a fault that only makes the check raise (a
wrapper left on an old signature, say) would kill it without testing what it
measures.  Without the fault the check must PASS, on the one suite that
``verify`` runs.
"""

import dataclasses
import math

import numpy as np
import pytest

from ngphase import analytic, fock, loss, protocols, verification
from ngphase.analytic import StateFamily
from ngphase.cli import main
from ngphase.verification import check_names, run_checks

NUDGE = 1e-6


def _wrap(monkeypatch, owner, name, make):
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def thinning_table_at_nudged_eta(mp):
    """The thinning table is built at eta (1 - 1e-6)."""
    _wrap(mp, loss, "_thinning_table",
          lambda table: lambda dim, eta: table(dim, eta * (1.0 - NUDGE)))


def thinning_table_doubled(mp):
    """Every thinned distribution sums to 2, so ``thin`` raises."""
    _wrap(mp, loss, "_thinning_table", lambda table: lambda dim, eta: 2.0 * table(dim, eta))


def purification_theta_nudged(mp):
    """The beamsplitter angle is off by a factor 1 + 1e-6 in every photon-number
    sector."""
    def make(eigenbasis):
        def nudged(dim):
            return tuple((lam * (1.0 + NUDGE), vec) for lam, vec in eigenbasis(dim))
        return nudged
    _wrap(mp, loss, "_beamsplitter_eigenbasis", make)


def cat_parity_scaled(mp):
    """The closed-form lossy cat parity is 0.1% too large."""
    _wrap(mp, analytic, "cat_parity", lambda parity: lambda *a, **k: 1.001 * parity(*a, **k))


def fock1_false_negative_shifted(mp):
    """The closed-form single-photon miss rate is evaluated at delta (1 + 1e-3)."""
    _wrap(mp, analytic, "fock1_false_negative",
          lambda fn: lambda delta, eta: fn(delta * 1.001, eta))


def cat_overlap_zero_nudged(mp):
    """The closed-form cat overlap zeros sit a factor 1 + 1e-6 too far out."""
    _wrap(mp, analytic, "cat_overlap_zero",
          lambda zero: lambda alpha, k=0: zero(alpha, k) * (1.0 + NUDGE))


def displacement_nudged(mp):
    """The numeric displacement moves every state by delta (1 + 1e-6), in the
    oracle's batch, which the overlap checks share with ``overlap``."""
    _wrap(mp, fock, "displace",
          lambda displace: lambda space, states, deltas: displace(
              space, states, [d * (1.0 + NUDGE) for d in deltas]))


def cat_operating_point_nudged(mp):
    """The cat operating point d' sits a factor 1 + 1e-6 too far out, in
    ``optimize``, figures 4 and 6 and every cat sweep."""
    def make(minimum):
        def nudged(alpha, eta):
            d, parity = minimum(alpha, eta)
            return d * (1.0 + NUDGE), parity
        return nudged
    _wrap(mp, protocols, "_cat_parity_minimum", make)


def squeeze_nudged(mp):
    """Every squeeze acts at r (1 + 1e-6)."""
    _wrap(mp, verification, "squeeze",
          lambda squeeze: lambda space, states, r: squeeze(space, states, r * (1.0 + NUDGE)))


KILL_TABLE = {
    "fock_orthogonality": displacement_nudged,
    "fock1_operating_point_analytic": fock1_false_negative_shifted,
    "fock1_operating_point_numeric": thinning_table_at_nudged_eta,
    "cat_overlap_zeros_analytic": cat_overlap_zero_nudged,
    "cat_overlap_zeros_numeric": cat_overlap_zero_nudged,
    "lossy_cat_statistics": cat_parity_scaled,
    "cat_fp_product_identity": cat_parity_scaled,
    "squeeze_displacement_sandwich": squeeze_nudged,
    "fock_overlap_grid": displacement_nudged,
    "cat_overlap_formula": displacement_nudged,
    "loss_composition": thinning_table_at_nudged_eta,
    "loss_thinning_vs_purification": purification_theta_nudged,
    "fock1_fn_stationarity": fock1_false_negative_shifted,
    "cat_fn_stationarity": cat_operating_point_nudged,
    "parity_bounds": cat_parity_scaled,
    "sweep_dual_path": cat_parity_scaled,
}


def test_kill_table_covers_every_check():
    assert set(KILL_TABLE) == set(check_names())


@pytest.mark.parametrize("name", check_names())
def test_fault_kills_check(monkeypatch, name):
    (clean,) = run_checks(names=[name])
    assert clean.status == "PASS"
    KILL_TABLE[name](monkeypatch)
    (faulted,) = run_checks(names=[name])
    assert faulted.status == "FAIL" and math.isfinite(faulted.discrepancy), (
        f"{name} is not failed by {KILL_TABLE[name].__name__}: {faulted.status}, "
        f"{faulted.discrepancy:.3e}, {faulted.error}")


def fock_operating_phase_scaled(mp):
    """``optimize_delta`` returns a Fock phase phi0 0.1% too large."""
    def make(optimize):
        def scaled(params):
            point = optimize(params)
            if params.family is not StateFamily.FOCK:
                return point
            return dataclasses.replace(point, phi0=point.phi0 * 1.001)
        return scaled
    _wrap(mp, protocols, "optimize_delta", make)


def overlap_readout_scaled(mp):
    """The oracle's overlap readout, the numeric column ``overlap`` prints, is
    a factor 1 + 1e-6 too large."""
    _wrap(mp, protocols, "_read_overlaps",
          lambda read: lambda *batch: [o * (1.0 + NUDGE) for o in read(*batch)])


# The converse of the kill table: a fault in a number the CLI prints, mapped
# to the check that must FAIL under it.
PRINTED_FAULTS = {
    "optimize_delta's Fock phi0": (fock_operating_phase_scaled, "fock1_operating_point_numeric"),
    "overlap's cat numeric column": (overlap_readout_scaled, "cat_overlap_formula"),
    "overlap's Fock numeric column": (overlap_readout_scaled, "fock_overlap_grid"),
    "optimize's cat delta_detected": (cat_operating_point_nudged, "cat_fn_stationarity"),
}


@pytest.mark.parametrize("number", sorted(PRINTED_FAULTS))
def test_fault_in_a_printed_number_fails_a_check(monkeypatch, number):
    fault, name = PRINTED_FAULTS[number]
    fault(monkeypatch)
    (faulted,) = run_checks(names=[name])
    assert faulted.status == "FAIL" and math.isfinite(faulted.discrepancy), (
        f"{name} is not failed by {fault.__name__}: {faulted.status}, "
        f"{faulted.discrepancy:.3e}, {faulted.error}")


@pytest.mark.parametrize("probe", [("--family", "cat", "--alpha", "2"),
                                   ("--family", "fock", "--n", "2")])
def test_the_overlap_readout_fault_moves_what_overlap_prints(monkeypatch, capsys, probe):
    argv = ["overlap", *probe, "--steps", "7"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    overlap_readout_scaled(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out != clean


def _counted(monkeypatch, calls, owner, name, key, size=None):
    """Count the calls of ``owner.name`` under ``key``; ``size`` records a
    figure of each call's arguments under ``key + '_sizes'``."""
    def make(fn):
        def counting(*args, **kwargs):
            calls[key] += 1
            if size is not None:
                calls.setdefault(key + "_sizes", []).append(size(*args))
            return fn(*args, **kwargs)
        return counting
    _wrap(monkeypatch, owner, name, make)


def test_full_grid_batches_displacement_loss_and_the_closed_form(monkeypatch):
    # two checks call displace and three thin by their own names; the
    # oracle's batch and readout, which the rest share, call them through
    # fock and loss
    calls = dict.fromkeys(("displace", "thin", "purification", "cat_pn"), 0)
    for owner in (verification, fock):
        _counted(monkeypatch, calls, owner, "displace", "displace")
    for owner in (verification, loss):
        _counted(monkeypatch, calls, owner, "thin", "thin")
    _counted(monkeypatch, calls, verification, "apply_loss_via_purification", "purification")
    _counted(monkeypatch, calls, analytic, "cat_pn", "cat_pn",
             size=lambda alpha, delta, eta, levels: levels)
    assert all(r.status == "PASS" for r in run_checks())
    # one displacement per basis a check uses, one thinning per set of
    # distributions over all its etas, one purification per state over all
    # its etas (CALLS_PER_CHECK below, summed)
    assert calls["displace"] == 12
    assert calls["thin"] == 7
    assert calls["purification"] == 3
    # one closed-form distribution per (alpha, delta, eta) of the 3 x 3 x 6
    # lossy cat grid, each over a whole basis
    assert calls["cat_pn"] == 54
    assert min(calls["cat_pn_sizes"]) > 30


# (displace calls, thin calls) of each check.  The checks that displace
# probes size one basis for all of them by the oracle's ``_oracle_space`` and
# displace them in one oracle batch; squeeze_displacement_sandwich checks two bases
# and sweep_dual_path runs two oracle commands, one call on each.
CALLS_PER_CHECK = {
    "fock_orthogonality": (1, 0),
    "fock1_operating_point_analytic": (0, 0),
    "fock1_operating_point_numeric": (1, 1),
    "cat_overlap_zeros_analytic": (0, 0),
    "cat_overlap_zeros_numeric": (1, 0),
    "lossy_cat_statistics": (1, 1),
    "cat_fp_product_identity": (0, 0),
    "squeeze_displacement_sandwich": (2, 0),
    "fock_overlap_grid": (1, 0),
    "cat_overlap_formula": (1, 0),
    "loss_composition": (1, 2),
    "loss_thinning_vs_purification": (1, 1),
    "fock1_fn_stationarity": (0, 0),
    "cat_fn_stationarity": (0, 0),
    "parity_bounds": (0, 0),
    "sweep_dual_path": (2, 2),
}


def test_each_check_displaces_once_per_basis(monkeypatch):
    calls = dict.fromkeys(("displace", "thin"), 0)
    for owner in (verification, fock):
        _counted(monkeypatch, calls, owner, "displace", "displace")
    for owner in (verification, loss):
        _counted(monkeypatch, calls, owner, "thin", "thin")
    assert set(CALLS_PER_CHECK) == set(check_names())
    for name in check_names():
        calls.update(displace=0, thin=0)
        (result,) = run_checks(names=[name])
        assert result.status == "PASS", name
        assert (calls["displace"], calls["thin"]) == CALLS_PER_CHECK[name], name


def test_no_complex_matrix_is_diagonalised(monkeypatch, capsys):
    # every generator is decomposed as a real symmetric tridiagonal matrix:
    # through verify's checks and one oracle command of each probe family
    dtypes = []
    real_eigh = np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        dtypes.append(np.asarray(matrix).dtype)
        return real_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for cached in (fock._quadrature_eigenbasis, fock._squeeze_eigenbasis,
                   loss._beamsplitter_eigenbasis):
        cached.cache_clear()
    assert all(r.status == "PASS" for r in run_checks())
    for argv in (["evaluate", "--family", "cat", "--alpha", "2", "--eta", "0.9", "--delta", "1",
                  "--oracle"],
                 ["evaluate", "--family", "fock", "--n", "2", "--eta", "0.9", "--delta", "1.5",
                  "--oracle"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert dtypes and all(dtype == np.float64 for dtype in dtypes), set(dtypes)


def test_raising_check_is_an_error_row(monkeypatch):
    thinning_table_doubled(monkeypatch)
    (result,) = run_checks(names=["loss_composition"])
    assert result.status == "ERROR" and not result.passed
    assert result.discrepancy == float("inf")
    assert "sums to 1 only within" in result.error


@pytest.mark.parametrize("kwargs, message", [
    ({"tolerance": math.nan}, "tolerance must be finite"),
    ({"names": ["parity_bounds", "no_such_check"]}, "no check named no_such_check"),
])
def test_run_checks_rejects_vacuous_tolerances_and_unknown_names(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_checks(**kwargs)


def _verify(capsys, *flags):
    code = main(["verify", *flags])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return code, lines[0], rows, captured.err


def test_faulted_verify_exits_3_with_its_report(capsys, monkeypatch):
    thinning_table_at_nudged_eta(monkeypatch)
    code, header, rows, err = _verify(capsys)
    assert code == 3
    assert header == "status,check,max_discrepancy,tolerance,seconds"
    assert [row[1] for row in rows] == check_names()
    assert {row[0] for row in rows} == {"PASS", "FAIL"}
    assert err.count("\n") == 1 and "checks passed" in err


def test_verify_reports_raising_checks_and_exits_3(capsys, monkeypatch):
    thinning_table_doubled(monkeypatch)
    code, header, rows, err = _verify(capsys)
    assert code == 3
    assert [row[1] for row in rows] == check_names()
    errored = [row for row in rows if row[0] == "ERROR"]
    assert errored and all(row[2] == "inf" for row in errored)
    # one stderr line naming each errored check with its message
    assert err.count("\n") == 1
    assert "errors: " in err and "thinned distribution sums to 1 only within" in err
    for row in errored:
        assert f"{row[1]} (" in err
