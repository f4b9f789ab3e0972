"""CLI tests: schemas, anchor rows, exit codes, deterministic output."""

import contextlib
import io
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngphase.analytic import cat_overlap_zero
from ngphase.cli import main
from ngphase.fock import MAX_DIM, MAX_STEPS
from ngphase.protocols import SWEEP_AXES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# overlap


def test_overlap_fock_grid_and_zero_row(capsys):
    code, out, _ = run_cli(capsys, "overlap", "--family", "fock", "--n", "1",
                           "--delta-max", "3", "--steps", "300")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta", "analytic", "numeric", "abs_diff"]
    assert len(rows) == 300
    at_one = [r for r in rows if float(r[0]) == 1.0]
    assert len(at_one) == 1
    assert abs(float(at_one[0][1])) < 1e-12
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_overlap_cat_zero_crossing(capsys):
    code, out, _ = run_cli(capsys, "overlap", "--family", "cat", "--alpha", "1.5",
                           "--delta-max", "2", "--steps", "200")
    assert code == 0
    _, rows = parse_csv(out)
    zero = cat_overlap_zero(1.5, 0)
    step = 2.0 / 200
    crossings = [
        float(a[0]) for a, b in zip(rows, rows[1:])
        if float(a[1]) * float(b[1]) < 0.0
    ]
    assert any(abs(c - zero) <= step for c in crossings)


def test_overlap_missing_family_flag(capsys):
    code, _, err = run_cli(capsys, "overlap")
    assert code == 1
    assert "usage" in err.lower()


# ---------------------------------------------------------------------------
# parity / evaluate / optimize / sweep


def test_parity_starts_at_one(capsys):
    code, out, _ = run_cli(capsys, "parity", "--alpha", "1.5", "--steps", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_oracle_columns(capsys):
    phi = 1.0 / math.sqrt(0.98e6)
    code, out, _ = run_cli(capsys, "evaluate", "--family", "fock", "--n", "1",
                           "--eta", "0.98", "--phi", repr(phi), "--oracle")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["phi", "delta", "delta_detected", "p_fp", "p_fn", "helstrom",
                      "p_fp_numeric", "p_fn_numeric", "helstrom_numeric", "max_abs_diff"]
    row = dict(zip(header, rows[0]))
    assert float(row["p_fp"]) == pytest.approx(0.02, abs=1e-12)
    assert float(row["p_fn"]) == pytest.approx(0.02 / math.e, abs=1e-12)
    assert float(row["max_abs_diff"]) < 1e-8


def test_evaluate_accepts_delta_flag(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--family", "cat", "--alpha", "2",
                           "--delta", "0.4")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["delta"]) == pytest.approx(0.4, rel=1e-12)


def test_evaluate_rejects_both_phi_and_delta(capsys):
    code, _, _ = run_cli(capsys, "evaluate", "--family", "cat", "--alpha", "2",
                         "--phi", "1e-4", "--delta", "0.4")
    assert code == 1


def test_optimize_cat(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--family", "cat", "--alpha", "2")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["source"] == "parity-minimized"
    assert float(row["delta_detected"]) == pytest.approx(0.371, abs=0.005)
    assert float(row["p_fn"]) == pytest.approx(0.126, abs=0.01)


def test_sweep_values_and_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "cat", "--alpha", "2",
                           "--axis", "eta", "--values", "0.9,1.0")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == [0.9, 1.0]

    code, out, _ = run_cli(capsys, "sweep", "--family", "fock", "--axis", "delta",
                           "--eta", "0.9", "--grid", "0.2", "1.0", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
    assert len({r[4] for r in rows}) == 1  # p_fp carries no delta dependence


# ---------------------------------------------------------------------------
# figures


def test_figure_2_displaced_photon_gap(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "p_initial", "p_displaced"]
    row1 = rows[1]
    assert row1[0] == "1"
    assert float(row1[1]) == 1.0
    assert abs(float(row1[2])) < 1e-12


def test_figure_3_parity_columns(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "3", "--steps", "6")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta", "parity_alpha_1.5", "parity_alpha_3"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-15)
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-15)
    assert float(rows[-1][0]) == 2.5


def test_figure_4_even_odd_sum(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "4", "--steps", "8")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "delta_opt", "p_even", "p_odd"]
    for row in rows:
        assert float(row[2]) + float(row[3]) == pytest.approx(1.0, abs=1e-15)


def test_figure_5_lossless_column_is_zero(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "5", "--etas", "1.0",
                           "--steps", "10")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["alpha", "p_fp_eta_1"]
    assert all(float(r[1]) == 0.0 for r in rows)


def test_figure_6_lossy_fn_exceeds_lossless(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "6", "--etas", "0.9,1.0",
                           "--steps", "6")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert float(row[1]) >= float(row[2]) - 1e-12


@pytest.mark.parametrize("figure, etas", [
    ("5", "0,2"),
    ("5", "0.9,-0.5"),
    ("6", "1.5"),
    ("6", "0.9,nan"),
])
def test_figure_efficiency_out_of_range_is_validation_error(capsys, figure, etas):
    # figure 5 printed p_fp_eta_2 = -3.9e13 for --etas 0,2
    code, out, err = run_cli(capsys, "figure", "--id", figure, "--etas", etas, "--steps", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--etas" in err


def test_figure_unknown_id(capsys):
    code, _, _ = run_cli(capsys, "figure", "--id", "7")
    assert code == 1


def test_figure_3_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["figure", "--id", "3", "--out", str(out1)]) == 0
    assert main(["figure", "--id", "3", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1
    assert b1.decode().splitlines()[0] == "delta,parity_alpha_1.5,parity_alpha_3"


# ---------------------------------------------------------------------------
# verify and exit codes


def test_verify_small_grid_passes(capsys):
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--grid", "small")
    elapsed = time.perf_counter() - start
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["status", "check", "max_discrepancy", "tolerance", "seconds"]
    assert all(r[0] == "PASS" for r in rows)
    assert "checks passed" in err
    assert elapsed < 10.0


def test_verify_impossible_tolerance_fails_cleanly(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "small", "--tolerance", "1e-15")
    assert code == 3
    _, rows = parse_csv(out)
    assert any(r[0] == "FAIL" for r in rows)
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--family", "fock", "--n", "2",
                           "--eta", "0.9", "--phi", "1e-3")
    assert code == 1
    assert "numeric oracle" in err


def test_computation_failure_exit_code(capsys):
    # forcing a dim far too small for the requested cat triggers a leakage error
    code, _, err = run_cli(capsys, "overlap", "--family", "cat", "--alpha", "3",
                           "--dim", "8")
    assert code == 2
    assert "computation failed" in err


@pytest.mark.parametrize("argv", [
    ("figure", "--id", "3", "--steps", "1"),
    ("figure", "--id", "4", "--steps", "1"),
    ("figure", "--id", "6", "--steps", "0"),
])
def test_figure_grid_too_short_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--steps" in err


def test_sweep_invalid_point_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "cat", "--alpha", "2", "--eta", "0.9",
                             "--axis", "alpha", "--values", "0,1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "invalid request: sweep point 0" in err


@pytest.mark.parametrize("argv", [
    # --dim beyond MAX_DIM is rejected before any basis is built
    ("overlap", "--family", "fock", "--n", "1", "--dim", "100000"),
    # a probe whose recommended basis would exceed MAX_DIM
    ("overlap", "--family", "cat", "--alpha", "30"),
])
def test_basis_above_max_dim_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "256" in err


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "rates.csv"
    code = main(["evaluate", "--family", "cat", "--alpha", "2", "--delta", "0.3",
                 "--out", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("phi,delta,delta_detected,p_fp,p_fn,helstrom\n")
    assert text.endswith("\n")


def test_undersized_basis_is_computation_error(capsys):
    # at 6 levels D(3)|1> is wrong: p_fn_numeric would read 0.2027 against 0.0140
    code, out, err = run_cli(capsys, "evaluate", "--family", "fock", "--n", "1", "--eta", "0.9",
                             "--delta", "3", "--oracle", "--dim", "6")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "top 1 levels" in err


@pytest.mark.parametrize("flags, field", [
    (("--photons", "inf", "--oracle"), "photons"),
    (("--photons", "nan"), "photons"),
    (("--r", "inf"), "squeeze factor r"),
    (("--r", "nan"), "squeeze factor r"),
    (("--alpha", "inf"), "alpha"),
    (("--alpha", "nan"), "alpha"),
    (("--phi", "inf"), "phi"),
    (("--phi", "nan"), "phi"),
    (("--phi", "1e307"), "phi"),
    (("--delta", "inf"), "delta"),
    (("--tail-tol", "2"), "--tail-tol"),
    (("--tail-tol", "0"), "--tail-tol"),
    # finite, but e^r is not: "math range error" (exit 2) before
    (("--r", "1e300"), "squeeze factor r"),
    (("optimize", "--alpha", "2", "--r", "1e300"), "squeeze factor r"),
    # int(1e300) photons: the Laguerre recurrence would never finish
    (("sweep", "--axis", "n", "--values", "1e300"), "n in [1, 10000]"),
])
def test_non_finite_scenario_input_is_validation_error(capsys, flags, field):
    # an entry may name its subcommand first; evaluate otherwise
    command, flags = (flags[0], flags[1:]) if not flags[0].startswith("-") else ("evaluate", flags)
    family = ("--family", "cat") if "--alpha" in flags else ("--family", "fock", "--n", "1")
    where = () if command != "evaluate" or {"--phi", "--delta"} & set(flags) else ("--delta", "3")
    code, out, err = run_cli(capsys, command, *family, "--eta", "0.9", *where, *flags)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and field in err


@pytest.mark.parametrize("argv", [
    ("overlap", "--family", "fock", "--steps", str(MAX_STEPS + 1)),
    ("parity", "--alpha", "1.5", "--steps", str(MAX_STEPS + 1)),
    ("figure", "--id", "3", "--steps", str(MAX_STEPS + 1)),
    ("sweep", "--family", "cat", "--alpha", "2", "--axis", "eta",
     "--grid", "0.5", "1", str(MAX_STEPS + 1)),
    ("figure", "--id", "2", "--levels", "-3"),
    ("figure", "--id", "2", "--levels", "0"),
])
def test_grid_length_out_of_range_is_validation_error(capsys, argv):
    main(list(argv))  # first call builds what the parser caches
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    # a grid of MAX_STEPS floats takes 32 bytes per point; none was built
    assert peak < 16 * MAX_STEPS


def _flag(name, values):
    # --flag=value, so that argparse reads "-inf" or "-1e-05" as a value
    return st.one_of(st.just(()), values.map(lambda v: (f"{name}={v!r}",)))


# The (0, 1] branch is valid for every float flag, so that some examples with
# several flags set get past validation into the computation.
FLOATS = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -1.0, 1e300, -1e300]),
                   st.floats(min_value=-4.0, max_value=4.0),
                   st.floats(min_value=0.05, max_value=1.0))
# Valid grid and basis sizes stay small so an example takes milliseconds: a
# figure or sweep grid runs the optimizer (and, for sweep, the oracle) per
# point.  overlap and parity may take their default grids (300 and 250
# points), one displacement product and one thinning product each.  The
# values just past each cap check that it is enforced before any work.
STEPS = st.one_of(st.integers(-2, 12), st.just(MAX_STEPS + 1))
DIMS = st.one_of(st.integers(-2, 24), st.just(MAX_DIM + 1))
LEVELS = st.integers(-2, MAX_DIM + 1)


@st.composite
def _axis_values(draw):
    if draw(st.booleans()):
        values = draw(st.lists(FLOATS, min_size=1, max_size=4))
        return (f"--values={','.join(repr(v) for v in values)}",)
    return ("--grid", repr(draw(FLOATS)), repr(draw(FLOATS)), str(draw(STEPS)))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["evaluate", "optimize", "sweep", "overlap", "parity",
                                    "figure"]))
    if command == "figure":
        argv = ["figure", f"--id={draw(st.integers(2, 6))}"]
        for flags in (_flag("--steps", STEPS), _flag("--delta", FLOATS),
                      _flag("--levels", LEVELS), _flag("--tail-tol", FLOATS)):
            argv += draw(flags)
        return argv
    argv = [command, f"--family={draw(st.sampled_from(['fock', 'cat']))}"]
    if command == "evaluate":
        argv.append(f"--{draw(st.sampled_from(['phi', 'delta']))}={draw(FLOATS)!r}")
    elif command == "sweep":
        argv.append(f"--axis={draw(st.sampled_from(SWEEP_AXES))}")
        argv += draw(_axis_values())
    elif command in ("overlap", "parity"):
        argv += draw(_flag("--steps", STEPS)) + draw(_flag("--delta-max", FLOATS))
    for flags in (_flag("--n", st.integers(-1, 4)), _flag("--alpha", FLOATS),
                  _flag("--eta", FLOATS), _flag("--r", FLOATS), _flag("--photons", FLOATS),
                  _flag("--p0", FLOATS), _flag("--dim", DIMS), _flag("--tail-tol", FLOATS),
                  st.sampled_from([(), ("--oracle",)])):
        argv += draw(flags)
    return argv


@given(argv=_argv())
@settings(max_examples=100, deadline=None)
def test_cli_contract_holds_for_any_flag_values(argv):
    # main() must return a documented exit code with at most one line on
    # stderr; an exception escaping main() would end the CLI in a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
