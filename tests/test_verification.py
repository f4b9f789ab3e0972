"""Kill table: every registered ``verify`` check can fail.

Each check name maps to a named fault, a monkeypatch that breaks one thing
the check is there to watch (mutation testing: DeMillo, Lipton & Sayward,
IEEE Computer 11(4), 1978).  Under its fault the check must FAIL with a
finite discrepancy, not ERROR: a fault that only makes the check raise (a
wrapper left on an old signature, say) would kill it without testing what it
measures.  Without the fault the check must PASS, on the full grid that
``verify`` runs by default.
"""

import math

import pytest

from ngphase import analytic, loss, verification
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
    """The numeric displacement moves every state by delta (1 + 1e-6)."""
    _wrap(mp, verification, "displace",
          lambda displace: lambda space, states, deltas: displace(
              space, states, [d * (1.0 + NUDGE) for d in deltas]))


def squeeze_nudged(mp):
    """The squeeze matrix is built at r (1 + 1e-6)."""
    _wrap(mp, verification, "squeeze",
          lambda squeeze: lambda space, r: squeeze(space, r * (1.0 + NUDGE)))


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
    "parity_bounds": cat_parity_scaled,
    "sweep_dual_path": cat_parity_scaled,
}


def test_kill_table_covers_every_check():
    assert set(KILL_TABLE) == set(check_names())


@pytest.mark.parametrize("name", check_names())
def test_fault_kills_check(monkeypatch, name):
    (clean,) = run_checks(grid="full", names=[name])
    assert clean.status == "PASS"
    KILL_TABLE[name](monkeypatch)
    (faulted,) = run_checks(grid="full", names=[name])
    assert faulted.status == "FAIL" and math.isfinite(faulted.discrepancy), (
        f"{name} is not failed by {KILL_TABLE[name].__name__}: {faulted.status}, "
        f"{faulted.discrepancy:.3e}, {faulted.error}")


def test_raising_check_is_an_error_row(monkeypatch):
    thinning_table_doubled(monkeypatch)
    (result,) = run_checks(grid="small", names=["loss_composition"])
    assert result.status == "ERROR" and not result.passed
    assert result.discrepancy == float("inf")
    assert "sums to 1 only within" in result.error


@pytest.mark.parametrize("kwargs, message", [
    ({"tolerance": math.nan}, "tolerance must be finite"),
    ({"names": ["parity_bounds", "no_such_check"]}, "no check named no_such_check"),
])
def test_run_checks_rejects_vacuous_tolerances_and_unknown_names(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_checks(grid="small", **kwargs)


def _verify(capsys, *flags):
    code = main(["verify", "--grid", "small", *flags])
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
