"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured worst-case discrepancy and its tolerance.  Criteria 1-5 run the
matching checks of the ``verify`` registry.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from ngphase.analytic import (
    ProtocolParams,
    StateFamily,
    baseline_phase_errors,
    cat_error_rates,
    threshold_phase,
)
from ngphase.cli import main
from ngphase.protocols import evaluate, optimize_delta
from ngphase.verification import run_checks


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status} {label}: {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def _accept(criterion: int, label: str, tolerances: dict[str, float],
            seconds: float | None = None) -> None:
    """Run the named ``verify`` checks.  Each must pass under the criterion's
    own tolerance, which its registry entry must still carry, and together
    they must finish within ``seconds``."""
    start = time.perf_counter()
    results = run_checks(names=list(tolerances))
    elapsed = time.perf_counter() - start
    ok = sorted(r.name for r in results) == sorted(tolerances) and all(
        r.passed and r.tolerance == tolerances[r.name] for r in results)
    details = [f"{r.name} {r.discrepancy:.3e} (tol {r.tolerance:g})" for r in results]
    if seconds is not None:
        ok = ok and elapsed < seconds
        details.append(f"{elapsed:.2f}s (< {seconds:g}s)")
    _report(criterion, label, ok, ", ".join(details))


def test_criterion_1_fock_orthogonality():
    # max |<n|D(sqrt(R_n))|n>| over n = 1..10
    _accept(1, "Fock orthogonality at first Laguerre roots",
            {"fock_orthogonality": 1e-8}, seconds=5.0)


def test_criterion_2_lossy_single_photon_operating_point():
    # closed-form and thinned-distribution rates at d'^2 = 1 against (1-eta, (1-eta)/e)
    _accept(2, "lossy single-photon operating point",
            {"fock1_operating_point_analytic": 1e-12,
             "fock1_operating_point_numeric": 1e-8}, seconds=5.0)


def test_criterion_3_cat_overlap_zeros():
    _accept(3, "cat overlap zeros",
            {"cat_overlap_zeros_analytic": 1e-12,
             "cat_overlap_zeros_numeric": 1e-8}, seconds=10.0)


def test_criterion_4_lossy_cat_parity_and_distribution():
    _accept(4, "lossy cat parity and photon distribution",
            {"lossy_cat_statistics": 1e-8}, seconds=60.0)


def test_criterion_5_false_positive_identity():
    _accept(5, "false-positive product identity", {"cat_fp_product_identity": 1e-12})


def test_criterion_6_optimized_cat_miss_probability():
    details = []
    ok = True
    for alpha, bound in ((2.0, 0.14), (2.5, 0.10)):
        params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha)
        op = optimize_delta(params)
        p_fn = evaluate(params, op.phi0).analytic.p_fn
        # grid-scan oracle for the same minimum
        grid = np.linspace(1e-4, 0.5 * math.pi / alpha, 20001)
        scan = min(cat_error_rates(alpha, float(d), 1.0).p_fn for d in grid)
        ok = ok and abs(p_fn - scan) < 0.01 and p_fn <= bound
        details.append(f"alpha={alpha}: p_fn={p_fn:.4f} (scan {scan:.4f}, bound {bound})")
    _report(6, "optimized lossless cat miss probability", ok, "; ".join(details))


def test_criterion_7_threshold_phase_ratios():
    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1)
    snl, _ = baseline_phase_errors(1e6)
    ratio = threshold_phase(params) / snl
    gap_ratio = abs(ratio - 2.0)
    worst_squeeze = 0.0
    for r in (0.25, 0.5, 1.0, 2.0):
        squeezed = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=1, r=r)
        worst_squeeze = max(worst_squeeze, abs(
            threshold_phase(squeezed) / threshold_phase(params) - math.exp(-r)))
    _report(7, "threshold-phase ratios",
            gap_ratio < 1e-12 and worst_squeeze < 1e-12,
            f"phi0/snl - 2 = {gap_ratio:.3e}, squeeze-factor gap {worst_squeeze:.3e} "
            f"(tol 1e-12)")


def test_criterion_8_figure_determinism(tmp_path):
    first = tmp_path / "fig3_a.csv"
    second = tmp_path / "fig3_b.csv"
    code1 = main(["figure", "--id", "3", "--out", str(first)])
    code2 = main(["figure", "--id", "3", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    _report(8, "figure 3 determinism",
            code1 == 0 and code2 == 0 and identical,
            f"two runs byte-identical: {identical}")


def test_criterion_9_verify_suite(capsys):
    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # the report itself is not part of this test's output
    _report(9, "full verification suite",
            code == 0 and elapsed < 180.0,
            f"exit code {code}, {elapsed:.1f}s (< 180s)")
