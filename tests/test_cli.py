"""CLI tests: schemas, anchor rows, exit codes, deterministic output."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngphase
from ngphase import analytic, cli, protocols
from ngphase.analytic import ProtocolParams, StateFamily, cat_overlap_zero, cat_parity
from ngphase.cli import main
from ngphase.limits import MAX_DIM, MAX_STEPS
from ngphase.protocols import SWEEP_AXES, optimize_delta
from test_corpus import FLOOR_ULPS, _rate_triples


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


@pytest.mark.parametrize("delta_max", ["-1", "nan", "inf"])
def test_overlap_delta_max_outside_range_is_validation_error(capsys, delta_max):
    code, out, err = run_cli(capsys, "overlap", "--family", "fock", "--n", "1",
                             "--delta-max", delta_max)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--delta-max" in err


def test_overlap_missing_family_flag(capsys):
    code, _, err = run_cli(capsys, "overlap")
    assert code == 1
    assert "usage" in err.lower()


@pytest.mark.parametrize("command, flag", [
    ("overlap", "--eta=0.9"), ("overlap", "--r=0.5"), ("overlap", "--photons=10"),
    ("overlap", "--p0=0.3"), ("overlap", "--oracle"),
    ("parity", "--n=2"), ("parity", "--r=0.5"), ("parity", "--photons=10"),
    ("parity", "--p0=0.3"), ("parity", "--oracle"), ("parity", "--family=cat"),
])
def test_overlap_and_parity_refuse_the_scenario_flags_they_do_not_read(capsys, command, flag):
    # these flags were accepted and changed no byte of the output
    probe = ("--family", "cat") if command == "overlap" else ()
    code, out, err = run_cli(capsys, command, *probe, "--alpha", "1.5", "--steps", "3", flag)
    assert (code, out) == (1, "")
    # the wording of figure's refusal, naming the command and the flag
    assert err == f"ngphase: invalid request: {command} does not read {flag.split('=')[0]}\n"


# Flag prefixes and the start of the stderr line each gets.
PREFIX_REFUSALS = {
    "overlap --family fock --steps 2 --o f.csv":
        "ngphase: invalid request: overlap does not read --o\n",
    # these prefixes leave required flags unset, which the parser reports first
    "sweep --fam cat --alp 2 --axis eta --values 0.8,0.9":
        "ngphase sweep: error: the following arguments are required: --family",
}


@pytest.mark.parametrize("argv", list(PREFIX_REFUSALS))
def test_flag_prefixes_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    # a prefix of a flag is no flag: it used to resolve to whichever flag it
    # was the unique prefix of, so the accepted surface moved with the table
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(PREFIX_REFUSALS[argv])
    assert list(tmp_path.iterdir()) == []


# Tokens argparse reads as positional arguments: a bare "-" and a negative
# number (exponent form included) are, although they start with "-", and so is
# any token after the end-of-options marker "--".
STRAY_TOKENS = ("stray", "-", "-5", "-0.5", "-1e-5")


@pytest.mark.parametrize("argv, command", [
    (("evaluate", "--family", "cat", "--alpha", "2", "--delta", "1", "stray"), "evaluate"),
    (("overlap", "--family", "fock", "--n", "1", "stray", "--steps", "3"), "overlap"),
    (("figure", "--id", "2", "stray"), "figure"),
    (("verify", "stray", "--bogus"), "verify"),
    (("evaluate", "--family", "cat", "--alpha", "2", "--delta", "1", "-"), "evaluate"),
    (("evaluate", "--family", "cat", "--alpha", "2", "--delta", "1", "-5"), "evaluate"),
    (("sweep", "--family", "cat", "--alpha", "2", "--axis", "eta", "--values", "0.9", "-0.5"),
     "sweep"),
    (("evaluate", "--family", "cat", "--alpha", "2", "--delta", "1", "-1e-5"), "evaluate"),
    (("evaluate", "--family", "cat", "--alpha", "2", "--delta", "1", "--", "stray"), "evaluate"),
    (("optimize", "--family", "cat", "--alpha", "2", "--", "--eta", "0.9"), "optimize"),
])
def test_a_stray_positional_token_is_refused_as_one(capsys, argv, command):
    # a positional token is named as one, not as a flag it does not read
    after_marker = argv[argv.index("--") + 1:] if "--" in argv else ()
    token = next(token for token in argv if token in STRAY_TOKENS + after_marker)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"ngphase: invalid request: {command} takes no positional argument {token!r}\n"


@pytest.mark.parametrize("argv", [
    ("evaluate", "--family", "cat", "--alpha", "2", "--delta", "1"),
    ("figure", "--id", "4", "--steps", "3"),
])
def test_a_bare_end_of_options_marker_changes_nothing(capsys, argv):
    assert run_cli(capsys, *argv, "--") == run_cli(capsys, *argv)


@pytest.mark.parametrize("value", ["-1e-5", "-2.5E+3", "-inf", "-nan", "-.5e1"])
def test_a_negative_value_reads_alike_as_a_separate_token(capsys, value):
    # the separate-token form prints the bytes of the "=" form
    argv = ("evaluate", "--family", "cat", "--alpha", "2")
    assert run_cli(capsys, *argv, "--delta", value) == run_cli(capsys, *argv, f"--delta={value}")


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


@pytest.mark.parametrize("n, delta, overlap", [(2000, "40", 1.2327640116407666e-3),
                                               (1000, "39", 1.8052062896518296e-2)])
def test_evaluate_fock_overlap_where_its_factors_leave_float_range(capsys, n, delta, overlap):
    # L_n(delta^2) overflows and exp(-delta^2 / 2) underflows; the overlap
    # (mpmath at 60 digits) does neither
    code, out, err = run_cli(capsys, "evaluate", "--family", "fock", "--n", str(n),
                             "--delta", delta)
    assert (code, err) == (0, "")
    header, (row,) = parse_csv(out)
    assert float(row[header.index("p_fn")]) == pytest.approx(overlap ** 2, rel=1e-12)
    code, out, err = run_cli(capsys, "evaluate", "--family", "fock", "--n", "2",
                             "--delta", "1e200")
    assert (code, out) == (1, "")
    assert err == ("ngphase: invalid request: displacement delta 1e+200 is out of the "
                   "closed forms' float range\n")


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


@pytest.mark.parametrize("family, source", [
    (("--family", "fock", "--n", "1", "--eta", "0.9"), "analytic-threshold"),
    (("--family", "cat", "--alpha", "2", "--eta", "0.9"), "parity-minimized"),
])
@pytest.mark.parametrize("oracle", [(), ("--oracle",)])
def test_optimize_source_column_names_the_family_rule(capsys, family, source, oracle):
    code, out, _ = run_cli(capsys, "optimize", *family, *oracle)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "source"
    assert [row[0] for row in rows] == [source]


CAT_WITH_N = "ngphase: invalid request: n is a Fock-family field\n"
FOCK_WITH_ALPHA = "ngphase: invalid request: alpha is a cat-family field\n"


@pytest.mark.parametrize("argv, message", [
    (("evaluate", "--family", "cat", "--alpha", "2", "--n", "5", "--delta", "1"), CAT_WITH_N),
    (("evaluate", "--family", "fock", "--n", "1", "--alpha", "2", "--delta", "1"),
     FOCK_WITH_ALPHA),
    (("optimize", "--family", "cat", "--alpha", "2", "--n", "1"), CAT_WITH_N),
    (("optimize", "--family", "fock", "--alpha", "2"), FOCK_WITH_ALPHA),
    (("overlap", "--family", "fock", "--n", "1", "--alpha", "2"), FOCK_WITH_ALPHA),
    (("overlap", "--family", "cat", "--alpha", "2", "--n", "1"), CAT_WITH_N),
    (("sweep", "--family", "cat", "--alpha", "2", "--n", "4", "--axis", "eta",
      "--grid", "0.5", "1", "3"), CAT_WITH_N),
    (("sweep", "--family", "fock", "--alpha", "2", "--axis", "delta", "--values", "1"),
     FOCK_WITH_ALPHA),
    # a sweep axis of the other family is refused before any point is read
    (("sweep", "--family", "fock", "--axis", "alpha", "--values", "1,2"),
     "ngphase: invalid request: alpha is a cat-family field; a fock sweep has no alpha "
     "axis\n"),
    (("sweep", "--family", "cat", "--alpha", "2", "--axis", "n", "--values", "1,2"),
     "ngphase: invalid request: n is a Fock-family field; a cat sweep has no n axis\n"),
])
def test_cross_family_flags_are_validation_errors(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", message)


def test_sweep_values_and_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "cat", "--alpha", "2",
                           "--axis", "eta", "--values", "0.9,1.0")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == [0.9, 1.0]

    code, out, _ = run_cli(capsys, "sweep", "--family", "fock", "--axis", "delta",
                           "--eta", "0.9", "--grid", "0.2", "1.0", "5")
    assert code == 0
    header, rows = parse_csv(out)
    # the axis column is named apart from the evaluated delta beside it
    assert header == ["delta_axis", "phi", "delta", "delta_detected", "p_fp", "p_fn",
                      "helstrom"]
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


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_figure_2_non_finite_delta_names_the_flag(capsys, delta):
    # the basis sizing refused it first, naming no flag
    code, out, err = run_cli(capsys, "figure", "--id", "2", "--delta", delta)
    assert (code, out) == (1, "")
    assert err == f"ngphase: invalid request: --delta must be finite, got {float(delta)}\n"


@pytest.mark.parametrize("tail_tol", [1e-12, 1e-6])
@pytest.mark.parametrize("delta", [0.0, 1.0, -2.5, 3.3, 0.123456789, 7.0])
def test_figure_2_follows_the_oracle_basis_policy(capsys, delta, tail_tol):
    # the basis recommend_dim gives |1> displaced by |delta|, all of it shown
    import numpy as np

    from ngphase.fock import FockSpace, displace, fock_state, recommend_dim

    space = FockSpace(recommend_dim(1.0, abs(delta), tail_tol), tail_tol)
    probe = fock_state(space, 1)
    p0, p1 = np.abs(probe) ** 2, np.abs(displace(space, probe, [delta])[0]) ** 2
    flags = ("figure", "--id", "2", "--delta", repr(delta), "--tail-tol", repr(tail_tol))
    code, out, _ = run_cli(capsys, *flags, "--levels", str(space.dim))
    assert code == 0
    assert parse_csv(out)[1] == [[str(n), cli.fmt(p0[n]), cli.fmt(p1[n])]
                                 for n in range(space.dim)]
    code, out, err = run_cli(capsys, *flags, "--levels", str(space.dim + 1))
    assert code == 1 and out == ""
    assert f"--levels must be in [1, {space.dim}]" in err


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


def _cat_figure_reference(figure, steps, etas):
    """Figure 4 or 6 rebuilt one cell at a time: a ProtocolParams, its
    optimize_delta operating point, then cat_parity evaluated there."""
    fmt = cli.fmt
    alphas = [0.5 + i * 3.5 / (steps - 1) for i in range(steps)]
    if figure == "4":
        lines = ["alpha,delta_opt,p_even,p_odd"]
        for alpha in alphas:
            op = optimize_delta(ProtocolParams(family=StateFamily.CAT, photons=1e6,
                                               alpha=alpha))
            p_even = 0.5 * (1.0 + cat_parity(alpha, op.delta, 1.0))
            lines.append(",".join([fmt(alpha), fmt(op.delta), fmt(p_even),
                                   fmt(1.0 - p_even)]))
    else:
        lines = [",".join(["alpha"] + [f"p_fn_eta_{e:g}" for e in etas])]
        for alpha in alphas:
            cells = [fmt(alpha)]
            for eta in etas:
                op = optimize_delta(ProtocolParams(family=StateFamily.CAT, photons=1e6,
                                                   alpha=alpha, eta=eta))
                parity = cat_parity(alpha, op.delta / math.sqrt(eta), eta)
                cells.append(fmt(0.5 * (1.0 + parity)))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


FIGURE_6_ETAS = (0.5, 0.8, 0.95, 1.0)


@pytest.mark.parametrize("figure", ["4", "6"])
@pytest.mark.parametrize("steps", [2, 3, 200, 1001])
def test_cat_figures_match_a_per_cell_optimize_delta_reference(capsys, figure, steps):
    # the figures reuse the search's own minimum; the digits must not move
    # figure 4 reads no --etas
    etas = ("--etas", ",".join(str(e) for e in FIGURE_6_ETAS)) if figure == "6" else ()
    code, out, err = run_cli(capsys, "figure", "--id", figure, "--steps", str(steps), *etas)
    assert (code, err) == (0, "")
    assert out == _cat_figure_reference(figure, steps, FIGURE_6_ETAS)


@pytest.mark.parametrize("argv, cells", [
    (("figure", "--id", "4", "--steps", "7"), 7),
    (("figure", "--id", "6", "--steps", "5", "--etas", "0.5,0.9,1"), 15),
])
def test_cat_figures_build_one_parity_curve_per_cell(capsys, monkeypatch, argv, cells):
    # a count, not a timing: the cell's minimum is not evaluated a second time
    built = []
    curve = analytic.cat_parity_curve
    monkeypatch.setattr(analytic, "cat_parity_curve",
                        lambda *args: built.append(args) or curve(*args))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(built) == cells


def test_cat_figures_read_few_parity_values_per_operating_point(capsys, monkeypatch):
    # a count, not a timing: the scan skips the blocks of cells its bound
    # rules out; reading all 64 cells costs about 108 values per point.  The
    # search takes one cosine per parity value it reads and none per bound,
    # so a counting cosine in the protocols module counts the values read.
    built, cosines = [], [0]
    build = analytic.cat_parity_curve
    monkeypatch.setattr(analytic, "cat_parity_curve",
                        lambda *args: built.append(args) or build(*args))

    def counting_cos(x):
        cosines[0] += 1
        return math.cos(x)

    monkeypatch.setattr(protocols, "math", types.SimpleNamespace(**dict(vars(math),
                                                                        cos=counting_cos)))
    for figure in ("4", "6"):
        code, _, _ = run_cli(capsys, "figure", "--id", figure)
        assert code == 0
    assert len(built) == 200 + 200 * 4
    assert cosines[0] / len(built) <= 50  # 49.7 on these grids


@pytest.mark.parametrize("figure, flag, values", [
    ("3", "--alphas", "1.5,1.5000001"),
    ("3", "--alphas", "2,3,2"),
    ("5", "--etas", "0.95,0.9500001"),
    ("5", "--etas", "0.9,0.9"),
    ("6", "--etas", "0.8,0.95,0.9500001"),
    ("6", "--etas", "1,1.0"),
])
def test_figure_column_label_collision_is_validation_error(capsys, figure, flag, values):
    # labels keep 6 significant digits: 0.95,0.9500001 printed two p_fp_eta_0.95 columns
    code, out, err = run_cli(capsys, "figure", "--id", figure, f"{flag}={values}",
                             "--steps", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and flag in err and "column label" in err


@pytest.mark.parametrize("figure, flag, values, labels", [
    ("3", "--alphas", "1.5,1.50001", ["parity_alpha_1.5", "parity_alpha_1.50001"]),
    ("5", "--etas", "0.95,0.95001", ["p_fp_eta_0.95", "p_fp_eta_0.95001"]),
    ("6", "--etas", "0.9,1", ["p_fn_eta_0.9", "p_fn_eta_1"]),
])
def test_figure_distinct_labels_are_accepted(capsys, figure, flag, values, labels):
    code, out, _ = run_cli(capsys, "figure", "--id", figure, f"{flag}={values}",
                           "--steps", "2")
    assert code == 0
    assert parse_csv(out)[0][1:] == labels


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


@pytest.mark.parametrize("figure, flag, values", [
    ("3", "--alphas", ",,"),
    ("3", "--alphas", "inf"),
    ("3", "--alphas", "1.5,0"),
    ("3", "--alphas", "nan"),
    ("3", "--alphas", "1e300"),
    ("5", "--etas", ","),
    ("6", "--etas", ","),
    ("3", "--alphas", "1.5,abc"),
])
def test_figure_list_flag_is_validated(capsys, figure, flag, values):
    # empty lists printed a grid-only CSV; --alphas inf reported "math domain error"
    code, out, err = run_cli(capsys, "figure", "--id", figure, f"{flag}={values}",
                             "--steps", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and flag in err


def test_figure_unknown_id(capsys):
    code, _, _ = run_cli(capsys, "figure", "--id", "7")
    assert code == 1


# A value for each figure flag, and the flags each figure reads.
FIGURE_FLAG_VALUES = {"--alphas": "1,2", "--etas": "0.9", "--steps": "3", "--delta": "0.5",
                      "--levels": "4", "--tail-tol": "1e-10"}
FIGURE_READS = {2: {"--delta", "--levels", "--tail-tol"}, 3: {"--alphas", "--steps"},
                4: {"--steps"}, 5: {"--etas", "--steps"}, 6: {"--etas", "--steps"}}


@pytest.mark.parametrize("figure, flag", [
    (figure, flag) for figure, reads in FIGURE_READS.items()
    for flag in FIGURE_FLAG_VALUES if flag not in reads])
def test_figure_refuses_a_flag_it_does_not_read(capsys, figure, flag):
    # these 20 pairs were accepted and changed no byte of the output
    code, out, err = run_cli(capsys, "figure", "--id", str(figure), flag, FIGURE_FLAG_VALUES[flag])
    assert (code, out) == (1, "")
    assert err == f"ngphase: invalid request: figure {figure} does not read {flag}\n"


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


def test_verify_passes_every_check(capsys):
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify")
    elapsed = time.perf_counter() - start
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["status", "check", "max_discrepancy", "tolerance", "seconds"]
    assert all(r[0] == "PASS" for r in rows)
    assert "checks passed" in err
    assert elapsed < 10.0


# A tail_tol far below the default, and the exit code and stderr line it gets.
TAIL_TOL_REFUSALS = {
    # the exact Poisson tail of mean 10 first falls below 1e-300 past MAX_DIM
    ("overlap", "--family", "fock", "--n", "1", "--steps", "3", "--tail-tol", "1e-300"): (
        1, "ngphase: invalid request: mean photon number 10 needs a basis above MAX_DIM=256 at "
           "tail_tol 1e-300\n"),
    # the basis fits, but cat_state's float capture check, 1 - captured/K,
    # resolves no leakage below about 1e-15 at this alpha
    ("evaluate", "--family", "cat", "--alpha", "7.33", "--delta", "0.1", "--oracle",
     "--tail-tol", "5e-16"): (
        2, "ngphase: computation failed: cat_state(alpha=7.33): leakage 1.110e-15 exceeds "
           "tail_tol 5.000e-16 at dim 143\n"),
}


@pytest.mark.parametrize("argv", list(TAIL_TOL_REFUSALS))
def test_tail_tol_below_the_sums_resolution_is_named(capsys, argv):
    code, message = TAIL_TOL_REFUSALS[argv]
    assert run_cli(capsys, *argv) == (code, "", message)


def test_verify_grid_full_names_the_one_suite():
    from test_corpus import run

    # each text's first line names the command; the seconds are masked
    assert run(["verify"]).split("\n", 1)[1] == run(["verify", "--grid", "full"]).split("\n", 1)[1]


def test_verify_grid_small_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--grid", "small")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "invalid choice: 'small'" in err


def test_verify_impossible_tolerance_fails_cleanly(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tolerance", "1e-15")
    assert code == 3
    _, rows = parse_csv(out)
    assert any(r[0] == "FAIL" for r in rows)
    assert all(float(r[2]) >= 0.0 for r in rows)


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
def test_verify_tolerance_must_be_finite_and_positive(capsys, tolerance):
    # inf passed every check and nan or -1 failed every one, whatever they measured
    code, out, err = run_cli(capsys, "verify", f"--tolerance={tolerance}")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "tolerance must be finite and > 0" in err


@pytest.mark.parametrize("argv", [
    ("figure", "--id", "5", "--steps", "3"),
    ("verify",),
])
def test_unwritable_out_is_validation_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--out" in err
    assert "Traceback" not in err


def test_verify_out_dash_prints_report_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "--out", "-")
    assert code == 0
    assert out.count("status,check,") == 1


def _recording_run_checks(monkeypatch):
    from ngphase import verification

    calls = []
    real = verification.run_checks

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(verification, "run_checks", recording)
    return calls


def test_verify_unwritable_out_fails_before_any_check(tmp_path, capsys, monkeypatch):
    calls = _recording_run_checks(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "cannot write --out" in err
    assert calls == []


def test_verify_out_file_holds_the_stdout_report(tmp_path, capsys, monkeypatch):
    calls = _recording_run_checks(monkeypatch)
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "verify", "--out", str(target))
    assert code == 0
    assert len(calls) == 1
    assert out.count("status,check,") == 1
    assert target.read_text() == out


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--family", "fock", "--n", "2",
                           "--eta", "0.9", "--phi", "1e-3")
    assert code == 1
    assert "numeric oracle" in err


def test_computation_failure_exit_code(capsys):
    # the displaced |60> reaches the top of even the largest basis
    code, _, err = run_cli(capsys, "evaluate", "--family", "fock", "--n", "60", "--delta", "8",
                           "--oracle")
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
    # a displacement, or a probe, whose recommended basis would exceed MAX_DIM
    ("overlap", "--family", "fock", "--n", "1", "--delta-max", "12"),
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


def test_tiny_cat_amplitude_still_evaluates(capsys):
    # no operating point is searched, so the bracket never forms
    code, out, _ = run_cli(capsys, "evaluate", "--family", "cat", "--alpha", "1e-200",
                           "--eta", "1e-250", "--delta", "0.1")
    assert code == 0
    assert len(parse_csv(out)[1]) == 1


@pytest.mark.parametrize("argv", [
    ("overlap", "--family", "cat", "--alpha", "2"),
    ("parity", "--alpha", "2"),
    ("evaluate", "--family", "fock", "--n", "3", "--delta", "3.1469750714372338", "--oracle",
     "--tail-tol", "1e-4"),
    ("evaluate", "--family", "cat", "--alpha", "2", "--delta", "1"),
    ("optimize", "--family", "cat", "--alpha", "2", "--eta", "0.9", "--oracle"),
    ("sweep", "--family", "cat", "--alpha", "2", "--axis", "delta", "--values", "0,0.3",
     "--oracle"),
    ("figure", "--id", "2"),
    ("verify",),
])
def test_every_command_refuses_the_dim_flag(capsys, argv):
    # the basis is the oracle's choice alone: a user-set --dim of 5 levels
    # once printed p_fn_numeric 0.672 against the analytic 0.0945, with exit 0
    code, out, err = run_cli(capsys, *argv, "--dim", "5")
    assert (code, out) == (1, "")
    command = "figure 2" if argv[0] == "figure" else argv[0]
    assert err == f"ngphase: invalid request: {command} does not read --dim\n"


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))


@pytest.mark.parametrize("family", [("--family", "cat", "--alpha", "2"),
                                    ("--family", "fock", "--n", "1")])
def test_delta_axis_oracle_sweep_sizes_displaces_and_thins_once(capsys, monkeypatch, family):
    # a count, not a timing: one basis, one displacement product and one
    # thinning product for the whole sweep, not one of each per point
    from ngphase import fock, loss

    calls = []
    for owner, name in ((fock, "recommend_dim"), (fock, "displace"), (loss, "thin")):
        _counting(monkeypatch, owner, name, calls)
    code, out, _ = run_cli(capsys, "sweep", *family, "--eta", "0.9", "--axis", "delta",
                           "--grid", "0", "2", "50", "--oracle")
    assert code == 0
    assert len(parse_csv(out)[1]) == 50
    assert sorted(calls) == ["displace", "recommend_dim", "thin"]


@pytest.mark.parametrize("argv, counted", [
    (("overlap", "--family", "cat", "--alpha", "2"),
     ["_read_overlaps", "displace", "recommend_dim"]),
    (("overlap", "--family", "fock", "--n", "3", "--steps", "50"),
     ["_read_overlaps", "displace", "recommend_dim"]),
    # parity prints no overlap, so it reads none
    (("parity", "--alpha", "2", "--eta", "0.9"), ["displace", "recommend_dim", "thin"]),
    (("figure", "--id", "2", "--delta", "2.5"), ["displace", "recommend_dim"]),
    (("evaluate", "--family", "cat", "--alpha", "2", "--eta", "0.9", "--delta", "1", "--oracle"),
     ["_read_overlaps", "displace", "recommend_dim", "thin"]),
])
def test_delta_tables_size_and_displace_once(capsys, monkeypatch, argv, counted):
    # overlap, parity and figure 2 read one oracle batch on one basis, and so
    # does evaluate, whose Helstrom bound reads the overlaps once
    from ngphase import fock, loss, protocols

    calls = []
    for owner, name in ((fock, "recommend_dim"), (fock, "displace"), (loss, "thin"),
                        (protocols, "_read_overlaps")):
        _counting(monkeypatch, owner, name, calls)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sorted(calls) == counted


CAT_SCENARIO = ("--family", "cat", "--alpha", "2", "--eta", "0.9")
FOCK_SCENARIO = ("--family", "fock", "--n", "1", "--eta", "0.9")


@pytest.mark.parametrize("command", [("evaluate", "--delta", "1"), ("optimize",),
                                     ("sweep", "--axis", "eta", "--values", "0.8,0.9")])
@pytest.mark.parametrize("flag, value", [("--tail-tol", "1e-10")])
def test_basis_flags_are_read_only_with_the_oracle(capsys, command, flag, value):
    # without --oracle they were accepted and changed no byte of the output
    code, out, err = run_cli(capsys, command[0], *CAT_SCENARIO, *command[1:], flag, value)
    assert (code, out) == (1, "")
    assert err == f"ngphase: invalid request: {command[0]} does not read {flag} without --oracle\n"
    code, out, _ = run_cli(capsys, command[0], *CAT_SCENARIO, *command[1:], flag, value,
                           "--oracle")
    assert code == 0 and out


@pytest.mark.parametrize("scenario, axis, values", [
    (CAT_SCENARIO, "eta", "0.8,0.85,0.9,0.95,1.0,0.85"),
    (CAT_SCENARIO, "alpha", "1,1.5,2,2.5,3,1.5"),
    (FOCK_SCENARIO, "eta", "0.8,0.9,1.0"),
    (("--family", "fock", "--n", "1"), "n", "1,2,3,2"),
    (FOCK_SCENARIO, "r", "0,0.5,1"),
])
def test_oracle_sweep_sizes_displaces_and_thins_once_on_every_axis(capsys, monkeypatch,
                                                                   scenario, axis, values):
    # a count, not a timing: every axis re-optimizes per point, yet the sweep
    # sizes one basis, makes one displacement product and one thinning call
    from ngphase import fock, loss

    calls = []
    for owner, name in ((fock, "recommend_dim"), (fock, "displace"), (loss, "thin")):
        _counting(monkeypatch, owner, name, calls)
    code, out, _ = run_cli(capsys, "sweep", *scenario, "--axis", axis, "--values", values,
                           "--oracle")
    assert code == 0
    assert len(parse_csv(out)[1]) == len(values.split(","))
    assert sorted(calls) == ["displace", "recommend_dim", "thin"]


@pytest.mark.parametrize("argv, code, message", [
    # a cat capture check below float resolution, which no larger basis mends
    (("sweep", *CAT_SCENARIO, "--axis", "alpha", "--values", "1,2", "--tail-tol", "1e-17"), 2,
     "cat_state(alpha=1.0): leakage"),
    # the displaced |60> at delta = 8 outgrows MAX_DIM levels too
    pytest.param(("sweep", "--family", "fock", "--n", "60", "--axis", "delta", "--values", "1,8"),
                 2, "the state needs a basis above MAX_DIM=256",
                 id="argv1-2-displace refuses MAX_DIM=256"),
    # the largest amplitude needs a basis above MAX_DIM
    (("sweep", *CAT_SCENARIO, "--axis", "alpha", "--values", "1,30"), 1, "MAX_DIM=256"),
    # alpha^2 + delta^2 overflows
    (("evaluate", *CAT_SCENARIO, "--delta", "1e300"), 1, "MAX_DIM=256"),
])
def test_oracle_failure_is_one_command_level_line(capsys, argv, code, message):
    # the oracle runs once per command, after every point is checked, so its
    # failure names no sweep point
    got, out, err = run_cli(capsys, *argv, "--oracle")
    assert got == code
    assert out == ""
    assert err.count("\n") == 1 and message in err and "sweep point" not in err


# Points of the Fock grid n <= 100, delta <= 8 whose displaced probe outgrows
# its recommended basis: each exited 2 with "... increase dim" there.  The
# first five fit on MAX_DIM levels; the last does not.
WIDE_FOCK_POINTS = ((20, 4.5), (40, 4.0), (60, 5.0), (10, 6.0), (5, 8.0))
TOO_WIDE_FOCK_POINT = (100, 5.0)


def test_a_displaced_number_state_wider_than_its_basis_is_read_on_max_dim_levels(capsys):
    # a displaced |n> has photon-number variance delta^2 (2n + 1), wider than
    # the Poisson tail of n + delta^2 that sizes the basis
    for n, delta in WIDE_FOCK_POINTS + (TOO_WIDE_FOCK_POINT,):
        code, out, err = run_cli(capsys, "evaluate", "--family", "fock", "--n", str(n),
                                 "--delta", repr(delta), "--oracle")
        assert "increase dim" not in err
        if (n, delta) == TOO_WIDE_FOCK_POINT:
            assert (code, out) == (2, "")
            assert err.endswith("the state needs a basis above MAX_DIM=256\n")
        else:
            assert (code, err) == (0, "")
            row = dict(zip(*(line.split(",") for line in out.splitlines())))
            assert abs(float(row["p_fn_numeric"]) - analytic.fock_overlap(n, delta) ** 2) <= 1e-12


def test_numeric_rate_out_of_range_is_computation_error(capsys, monkeypatch):
    from ngphase import protocols

    # a quiet Fock readout of 1 + 1e-9 puts p_fp 1e-9 below 0: a fault, not rounding
    real = protocols._readout
    monkeypatch.setattr(protocols, "_readout", lambda points, space: (
        [1.0 + 1e-9] * len(points), [0.5] * len(points), real(points, space)[2]))
    code, out, err = run_cli(capsys, "evaluate", *FOCK_SCENARIO, "--delta", "1", "--oracle")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "computation failed: numeric p_fp" in err


def test_sweep_values_beyond_max_steps_is_validation_error(capsys):
    values = ",".join(["0.5"] * MAX_STEPS)
    argv = ("sweep", *CAT_SCENARIO, "--axis", "delta", "--values")
    code, out, _ = run_cli(capsys, *argv, values)
    assert code == 0 and len(parse_csv(out)[1]) == MAX_STEPS
    code, out, err = run_cli(capsys, *argv, values + ",0.5", "--oracle")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"--values takes at most {MAX_STEPS} values" in err


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
    # --tail-tol is read, and range-checked, only with the oracle
    (("--tail-tol", "2", "--oracle"), "--tail-tol"),
    (("--tail-tol", "0", "--oracle"), "--tail-tol"),
    # finite, but e^r is not: "math range error" (exit 2) before
    (("--r", "1e300"), "squeeze factor r"),
    (("optimize", "--alpha", "2", "--r", "1e300"), "squeeze factor r"),
    # int(1e300) photons: the Laguerre recurrence would never finish
    (("sweep", "--axis", "n", "--values", "1e300"), "n in [1, 10000]"),
    # int(value) evaluated n = 1 and 2 under rows labelled 1.5 and 2.9
    (("sweep", "--axis", "n", "--values", "1.5,2.9"), "n axis values must be finite integers"),
    (("sweep", "--axis", "n", "--values", "inf"), "n axis values must be finite integers"),
    # 2 alpha^2 overflows: "p_fp out of range: nan" before
    (("sweep", "--alpha", "2", "--axis", "alpha", "--values", "1e300"), "alpha"),
    # the cat operating point's bracket pi / (2 sqrt(eta) alpha) is not a finite
    # float: "float division by zero" (exit 2) or "math domain error" before
    (("optimize", "--alpha", "1e-200", "--eta", "1e-250"), "alpha 1e-200 and eta 1e-250"),
    (("sweep", "--alpha", "1e-200", "--axis", "eta", "--values", "1e-250"),
     "alpha 1e-200 and eta 1e-250"),
    (("optimize", "--alpha", "1e-310"), "alpha 1e-310 and eta 0.9"),
    (("optimize", "--alpha", "1000", "--eta", "5e-324"), "alpha 1000.0 and eta 5e-324"),
    # finite, but past the closed forms' float range: "math domain error" (the
    # cosine of 2 alpha delta) or "p_fn out of range: nan" (inf * 0) before
    (("--alpha", "2", "--delta", "5e307"), "displacement delta 5e+307"),
    (("--delta", "1e200"), "displacement delta 1e+200"),
    (("sweep", "--alpha", "2", "--axis", "delta", "--grid", "0", "1e308", "3"),
     "sweep point 1 (value 5e+307) failed: displacement delta 5e+307"),
    # phi0 = d' / (sqrt(eta N) e^r) is not a normal float: phi0 printed as 0
    # beside the rates of delta = 0 (exit 0), eta N = 0 gave "float division
    # by zero" (exit 2), and a subnormal eta N moved p_fn in its 8th digit
    (("optimize", "--photons", "1e300", "--r", "700"), "eta 0.9, photons 1e+300 and r 700.0"),
    (("optimize", "--alpha", "2", "--photons", "1e300", "--r", "705"),
     "eta 0.9, photons 1e+300 and r 705.0"),
    (("sweep", "--alpha", "2", "--photons", "1e308", "--axis", "r", "--grid", "690", "700", "3"),
     "sweep point 0 (value 690.0) failed: eta 0.9, photons 1e+308 and r 690.0"),
    (("optimize", "--eta", "1e-300", "--photons", "1e-300"), "eta 1e-300, photons 1e-300 and r"),
    (("optimize", "--alpha", "2", "--photons", "1e-320"), "eta 0.9, photons 1e-320 and r 0.0"),
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
    # a huge value is quoted as given, never spelled out as a 301-digit integer
    assert len(err) < 160


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


SWEEP_GRID = ("sweep", "--family", "cat", "--alpha", "2", "--eta", "0.9", "--axis", "eta",
              "--grid", "0.8", "0.9")


# the float just above 2 is as close to a whole STEPS as a non-whole one gets
@pytest.mark.parametrize("steps", ["2.5", "3.9", repr(math.nextafter(2.0, 3.0))])
def test_grid_steps_not_whole_is_validation_error(capsys, steps):
    code, out, err = run_cli(capsys, *SWEEP_GRID, steps)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--grid STEPS" in err and "whole number" in err


def test_grid_steps_whole_float_is_accepted(capsys):
    code, out, _ = run_cli(capsys, *SWEEP_GRID, "5.0")
    assert code == 0
    assert len(parse_csv(out)[1]) == 5


def _flag(name, values):
    # --flag=value, so that argparse reads "-inf" or "-1e-05" as a value
    return st.one_of(st.just(()), values.map(lambda v: (f"{name}={v!r}",)))


# The (0, 1] branch is valid for every float flag, so that some examples with
# several flags set get past validation into the computation.
FLOATS = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -1.0, 1e300, -1e300]),
                   st.floats(min_value=-4.0, max_value=4.0),
                   st.floats(min_value=0.05, max_value=1.0))
# Valid grid sizes stay small so an example takes milliseconds: a
# figure or sweep grid runs the optimizer (and, for sweep, the oracle) per
# point.  overlap and parity may take their default grids (300 and 250
# points), one displacement product and one thinning product each.  The
# values just past each cap check that it is enforced before any work.
STEPS = st.one_of(st.integers(-2, 12), st.just(MAX_STEPS + 1))
LEVELS = st.integers(-2, MAX_DIM + 1)


# n axis values mix photon numbers, some valid, with non-integral floats.
N_VALUES = st.one_of(st.integers(-1, 5).map(float), FLOATS)


def _list_flag(name, values):
    # from the empty list up; FLOATS holds inf, nan, 0 and 1e300
    return st.one_of(st.just(()), st.lists(values, max_size=4).map(
        lambda vs: (f"{name}={','.join(repr(v) for v in vs)}",)))


@st.composite
def _axis_values(draw, axis):
    if draw(st.booleans()):
        values = draw(st.lists(N_VALUES if axis == "n" else FLOATS, min_size=1, max_size=4))
        return (f"--values={','.join(repr(v) for v in values)}",)
    return ("--grid", repr(draw(FLOATS)), repr(draw(FLOATS)), str(draw(STEPS)))


# overlap and parity take only the scenario flags they read; every other
# command takes all of them
SCENARIO_FLAGS_TAKEN = {"overlap": ("--n", "--alpha", "--tail-tol"),
                        "parity": ("--alpha", "--eta", "--tail-tol")}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["evaluate", "optimize", "sweep", "overlap", "parity",
                                    "figure"]))
    if command == "figure":
        argv = ["figure", f"--id={draw(st.integers(2, 6))}"]
        for flags in (_flag("--steps", STEPS), _flag("--delta", FLOATS),
                      _flag("--levels", LEVELS), _flag("--tail-tol", FLOATS),
                      _list_flag("--alphas", FLOATS), _list_flag("--etas", FLOATS)):
            argv += draw(flags)
        return argv
    argv = [command]
    if command != "parity":
        argv.append(f"--family={draw(st.sampled_from(['fock', 'cat']))}")
    if command == "evaluate":
        argv.append(f"--{draw(st.sampled_from(['phi', 'delta']))}={draw(FLOATS)!r}")
    elif command == "sweep":
        axis = draw(st.sampled_from(SWEEP_AXES))
        argv.append(f"--axis={axis}")
        argv += draw(_axis_values(axis))
    elif command in ("overlap", "parity"):
        argv += draw(_flag("--steps", STEPS)) + draw(_flag("--delta-max", FLOATS))
    scenario = {"--n": _flag("--n", st.integers(-1, 4)), "--alpha": _flag("--alpha", FLOATS),
                "--eta": _flag("--eta", FLOATS), "--r": _flag("--r", FLOATS),
                "--photons": _flag("--photons", FLOATS), "--p0": _flag("--p0", FLOATS),
                "--tail-tol": _flag("--tail-tol", FLOATS),
                "--oracle": st.sampled_from([(), ("--oracle",)])}
    for name, flags in scenario.items():
        if name in SCENARIO_FLAGS_TAKEN.get(command, scenario):
            argv += draw(flags)
    return argv


def _run_contract(argv):
    """Run ``argv`` and hold main() to its contract: a documented exit code
    with at most one line on stderr (an exception escaping main() would end
    the CLI in a traceback), and, on exit 0, the Helstrom floor of
    tests/test_corpus.py on every printed triple.  Returns the exit code and
    the triples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
    if code != 0:
        return code, []
    p0 = next((float(flag[len("--p0="):]) for flag in argv if flag.startswith("--p0=")), 0.5)
    slack = 1.0 - FLOOR_ULPS * sys.float_info.epsilon
    triples = _rate_triples(out.getvalue())
    for p_fp, p_fn, helstrom in triples:
        assert p0 * p_fp + (1.0 - p0) * p_fn >= helstrom * slack, (p_fp, p_fn, helstrom)
    return code, triples


@given(argv=_argv())
@settings(max_examples=100, deadline=None)
def test_cli_contract_holds_for_any_flag_values(argv):
    _run_contract(argv)


# Axis values of valid scenarios: displacements, efficiencies, cat amplitudes.
VALID_AXES = {"delta": st.floats(0.0, 3.0), "eta": st.floats(0.05, 1.0),
              "alpha": st.floats(0.3, 3.0)}


@st.composite
def _valid_argv(draw):
    """A valid scenario of either family, evaluated, optimized or swept along
    delta, eta or (cat) alpha, with or without the oracle."""
    family = draw(st.sampled_from(["fock", "cat"]))
    command = draw(st.sampled_from(["evaluate", "optimize", "sweep"]))
    argv = [command, f"--family={family}"]
    if family == "fock":
        argv.append(f"--n={draw(st.integers(1, 5))}")
    else:
        argv.append(f"--alpha={draw(VALID_AXES['alpha'])!r}")
    argv += [f"--eta={draw(st.one_of(st.just(1.0), VALID_AXES['eta']))!r}",
             f"--p0={draw(st.floats(0.0, 1.0))!r}"]
    if command == "evaluate":
        argv.append(f"--delta={draw(VALID_AXES['delta'])!r}")
    elif command == "sweep":
        axis = draw(st.sampled_from(["delta", "eta"] + (["alpha"] if family == "cat" else [])))
        values = draw(st.lists(VALID_AXES[axis], min_size=1, max_size=3))
        argv += [f"--axis={axis}", f"--values={','.join(repr(v) for v in values)}"]
    return argv + draw(st.sampled_from([[], ["--oracle"]]))


@given(argv=_valid_argv())
@settings(max_examples=60, deadline=None)
def test_valid_scenarios_print_rates_above_the_helstrom_floor(argv):
    # a valid scenario is refused (exit 1) only where no formula or no basis
    # up to MAX_DIM serves it: lossy Fock n >= 2, or a far operating point
    code, triples = _run_contract(argv)
    assert code in (0, 1)
    assert code == 1 or triples


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for argv in [("overlap", "--family", "fock", "--steps", "5"),
                     ("overlap", "--family", "cat", "--alpha", "1.5", "--steps", "5"),
                     ("parity", "--alpha", "1.5", "--steps", "5"),
                     ("parity", "--alpha", "2", "--eta", "0.9", "--steps", "5"),
                     ("sweep", "--family", "cat", "--alpha", "2", "--eta", "0.9",
                      "--axis", "eta", "--values", "0.8,0.9"),
                     SWEEP_GRID + ("3",),
                     ("figure", "--id", "5", "--steps", "3"),
                     ("figure", "--id", "3", "--steps", "3"),
                     ("verify",),
                     ("overlap", "--family", "fock", "--steps", "5")]:
            assert main(list(argv)) == 0, argv
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def _fresh_process(argv):
    src = str(Path(ngphase.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "ngphase", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_reused_parser_prints_what_a_fresh_process_prints(capsys):
    overlap = ("overlap", "--family", "fock", "--n", "2", "--delta-max", "2", "--steps", "7")
    # parity relies on its subparser's family="cat" default after an overlap
    # that set --family fock; the rejected flag leaves nothing behind either
    sequence = [overlap, ("parity", "--alpha", "1.5", "--steps", "7"),
                ("overlap", "--family", "fock", "--no-such-flag"), overlap]
    in_process = [run_cli(capsys, *argv) for argv in sequence]
    assert in_process[2][0] == 1 and in_process[2][2].count("\n") == 1
    assert in_process == [_fresh_process(argv) for argv in sequence]
