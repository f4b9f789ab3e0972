"""Command-line front end emitting deterministic CSV.

Subcommands: ``overlap``, ``parity``, ``evaluate``, ``optimize``, ``sweep``,
``figure``, ``verify``.  Identical flags produce byte-identical output:
numbers are printed with 17 significant digits, '.' decimal separator and
'\\n' line endings.  Exit codes: 0 success, 1 validation error, 2 computation
failure, 3 verification failure.  The oracle modules (``fock``, ``loss``,
``verification``) are imported by the commands that use them, so the
closed-form commands run without numpy.  ``main()`` builds its parser once
per process, on its first call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from . import analytic
from .analytic import ProtocolParams, StateFamily
from .limits import DEFAULT_TAIL_TOL, MAX_DIM, MAX_STEPS
from .protocols import (
    SWEEP_AXES,
    Evaluation,
    _cat_parity_minimum,
    _oracle_space,
    _probe_state,
    _readout,
    delta_to_phi,
    evaluate,
    optimize_delta,
    sweep,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_VERIFICATION = 3

DEFAULT_FIGURE_ETAS = (0.8, 0.9, 0.95, 0.98)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CSV contract reserves 2
    # for computation failures, so remap through an exception.  The usage
    # text is folded onto the message's line: every error is one stderr line.
    # Flags are matched by their full names only (subparsers are built with
    # this class too), so adding or dropping a flag never changes what a
    # prefix someone typed resolves to.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        usage = " ".join(self.format_usage().split())
        raise _UsageError(f"{self.prog}: error: {message}; {usage}")


def fmt(value: float) -> str:
    """17-significant-digit, locale-independent rendering."""
    return format(float(value), ".17g")


def _open_out(out_path: str | None):
    """The --out file opened for writing, or None for stdout (no path or "-")."""
    if out_path is None or out_path == "-":
        return None
    try:
        return open(out_path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from None


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


def _write_rows(out_path: str | None, header: list[str], rows: list[list[str]]) -> None:
    with _open_out(out_path) or contextlib.nullcontext(sys.stdout) as out:
        out.write(_csv_text(header, rows))


# The scenario flags, as (flag, argparse keywords).
_SCENARIO_FLAGS = (
    ("--family", dict(choices=["fock", "cat"], required=True, help="probe state family")),
    ("--n", dict(type=int, help="photon number of the Fock probe")),
    ("--alpha", dict(type=float, help="amplitude of the cat probe")),
    ("--eta", dict(type=float, default=1.0, help="detector quantum efficiency")),
    ("--r", dict(type=float, default=0.0, help="squeeze factor")),
    ("--photons", dict(type=float, default=1e6,
                       help="mean photon number N at the phase object")),
    ("--p0", dict(type=float, default=0.5,
                  help="prior probability of no signal (Helstrom reference only)")),
    ("--dim", dict(type=int, help="override the basis dimension")),
    ("--tail-tol", dict(type=float, default=DEFAULT_TAIL_TOL, help="truncation leakage budget")),
    ("--oracle", dict(action="store_true", help="also run the numeric route and report both")),
    ("--out", dict(help="output CSV path (default: stdout)")),
)


def _add_scenario_flags(parser: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    """Every scenario flag but those in ``skip``, a command's unread flags:
    passing one is a usage error, and ``_scenario`` reads its default."""
    for flag, spec in _SCENARIO_FLAGS:
        if flag in skip:
            parser.set_defaults(**{flag[2:].replace("-", "_"): spec.get("default")})
        else:
            parser.add_argument(flag, **spec)


def _check_tail_tol(tail_tol: float) -> None:
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"--tail-tol must be in (0, 1), got {tail_tol}")


def _check_steps(steps, flag: str, least: int) -> None:
    """A grid length must be a whole number in [least, MAX_STEPS]; it is
    checked before any list of that length is built."""
    if not least <= steps <= MAX_STEPS:
        raise ValueError(f"{flag} must be in [{least}, {MAX_STEPS}], got {steps}")
    if steps != int(steps):
        raise ValueError(f"{flag} must be a whole number, got {steps}")


def _scenario(args) -> ProtocolParams:
    """The scenario the flags describe; --dim and --tail-tol are checked too."""
    family = StateFamily(args.family)
    if family is StateFamily.CAT and args.alpha is None:
        raise ValueError("--alpha is required for the cat family")
    n = 1 if family is StateFamily.FOCK and args.n is None else args.n
    # ProtocolParams refuses a flag of the other family
    params = ProtocolParams(family=family, photons=args.photons, n=n, alpha=args.alpha,
                            eta=args.eta, r=args.r, p0=args.p0)
    if args.dim is not None and not 2 <= args.dim <= MAX_DIM:
        raise ValueError(f"--dim must be in [2, {MAX_DIM}]")
    _check_tail_tol(args.tail_tol)
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ngphase",
                     description="Phase-shift detection with Fock and cat probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap", parents=[], help="probe/displaced-probe overlap vs delta")
    _add_scenario_flags(p, skip=("--eta", "--r", "--photons", "--p0", "--oracle"))
    p.add_argument("--delta-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=300,
                   help="number of grid points on [0, delta-max)")

    p = sub.add_parser("parity", help="displaced-cat parity vs delta")
    _add_scenario_flags(p, skip=("--family", "--n", "--r", "--photons", "--p0", "--oracle"))
    p.set_defaults(family="cat")
    p.add_argument("--delta-max", type=float, default=2.5)
    p.add_argument("--steps", type=int, default=250)

    p = sub.add_parser("evaluate", help="error rates at one phase")
    _add_scenario_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=float, help="candidate phase shift (radians)")
    group.add_argument("--delta", type=float, help="candidate displacement")

    p = sub.add_parser("optimize", help="operating point with minimal miss probability")
    _add_scenario_flags(p)

    p = sub.add_parser("sweep", help="error rates along one parameter axis")
    _add_scenario_flags(p)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    vals = p.add_mutually_exclusive_group(required=True)
    vals.add_argument("--values", help="comma-separated axis values")
    vals.add_argument("--grid", nargs=3, type=float, metavar=("MIN", "MAX", "STEPS"),
                      help="evenly spaced axis values")

    p = sub.add_parser("figure", help="regenerate the data behind one figure")
    p.add_argument("--id", type=int, choices=[2, 3, 4, 5, 6], required=True)
    p.add_argument("--alphas", default="1.5,3", help="cat amplitudes (figure 3)")
    p.add_argument("--etas", default=",".join(str(e) for e in DEFAULT_FIGURE_ETAS),
                   help="efficiency grid (figures 5-6)")
    p.add_argument("--steps", type=int, help="grid points (figure 3: 500, figures 4-6: 200)")
    p.add_argument("--delta", type=float, default=1.0, help="displacement (figure 2)")
    p.add_argument("--levels", type=int, default=16, help="photon levels shown (figure 2)")
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("verify", help="run the analytic-vs-numeric verification suite")
    p.add_argument("--grid", choices=["small", "full"], default="full")
    p.add_argument("--tolerance", type=float,
                   help="override every check's tolerance")
    p.add_argument("--out", help="write the report CSV here as well as stdout")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main()`` reuses: parsing leaves no state in it."""
    return build_parser()


# ---------------------------------------------------------------------------
# subcommands


def _delta_grid(delta_max: float, steps: int) -> list[float]:
    _check_steps(steps, "--steps", 1)
    if not 0 <= delta_max < math.inf:
        raise ValueError("--delta-max must be finite and >= 0")
    return [(i * delta_max) / steps for i in range(steps)]


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` evenly spaced values from ``lo`` to ``hi``, both included."""
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _delta_table(out: str | None, deltas: list[float], closed_form, numeric) -> None:
    """One CSV row per delta: closed form, numeric real part, modulus of their difference."""
    rows = []
    for delta, value in zip(deltas, numeric):
        a = closed_form(delta)
        rows.append([fmt(delta), fmt(a), fmt(value.real), fmt(abs(a - value))])
    _write_rows(out, ["delta", "analytic", "numeric", "abs_diff"], rows)


def _cmd_overlap(args) -> int:
    import numpy as np

    from .fock import displace

    params = _scenario(args)
    deltas = _delta_grid(args.delta_max, args.steps)
    space = _oracle_space([(params, args.delta_max)], args.dim, args.tail_tol)
    probe = _probe_state(params, space)
    if params.family is StateFamily.FOCK:
        closed_form = lambda d: analytic.fock_overlap(params.n, d)
    else:
        closed_form = lambda d: analytic.cat_overlap(params.alpha, d)
    _delta_table(args.out, deltas, closed_form,
                 (complex(np.vdot(probe, row)) for row in displace(space, probe, deltas)))
    return EXIT_OK


def _cmd_parity(args) -> int:
    params = _scenario(args)
    deltas = _delta_grid(args.delta_max, args.steps)
    space = _oracle_space([(params, args.delta_max)], args.dim, args.tail_tol)
    _, parities, _ = _readout([(params, delta) for delta in deltas], space)
    _delta_table(args.out, deltas, analytic.cat_parity_curve(params.alpha, params.eta), parities)
    return EXIT_OK


_RATE_HEADER = ["p_fp", "p_fn", "helstrom"]
_NUMERIC_HEADER = ["p_fp_numeric", "p_fn_numeric", "helstrom_numeric", "max_abs_diff"]


def _rate_table(args, lead: list[str], rows: list[tuple[list[str], Evaluation]]) -> None:
    """One CSV row per (lead cells, evaluation): the closed-form rates ("nan"
    where there are none) and, under --oracle, the numeric rates and the gap."""
    header = lead + _RATE_HEADER + (_NUMERIC_HEADER if args.oracle else [])
    table = []
    for cells, ev in rows:
        a = ev.analytic
        cells = cells + ([fmt(a.p_fp), fmt(a.p_fn), fmt(a.helstrom)] if a is not None
                         else ["nan", "nan", "nan"])
        if args.oracle:
            gap, num = ev.max_discrepancy, ev.numeric
            cells += [fmt(num.p_fp), fmt(num.p_fn), fmt(num.helstrom),
                      fmt(gap) if gap is not None else "nan"]
        table.append(cells)
    _write_rows(args.out, header, table)


def _cmd_evaluate(args) -> int:
    params = _scenario(args)
    phi = args.phi if args.phi is not None else delta_to_phi(params, args.delta)
    ev = evaluate(params, phi, with_oracle=args.oracle, dim=args.dim, tail_tol=args.tail_tol)
    _rate_table(args, ["phi", "delta", "delta_detected"],
                [([fmt(ev.phi), fmt(ev.delta), fmt(ev.delta_detected)], ev)])
    return EXIT_OK


def _cmd_optimize(args) -> int:
    params = _scenario(args)
    op = optimize_delta(params)
    ev = evaluate(params, op.phi0, with_oracle=args.oracle, dim=args.dim, tail_tol=args.tail_tol)
    source = "analytic-threshold" if params.family is StateFamily.FOCK else "parity-minimized"
    _rate_table(args, ["source", "phi0", "delta_detected"],
                [([source, fmt(op.phi0), fmt(op.delta)], ev)])
    return EXIT_OK


def _flag_list(text: str, flag: str) -> list[float]:
    """The comma-separated values of a list flag; an empty list is an error."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} is empty")
    return values


def _cmd_sweep(args) -> int:
    params = _scenario(args)
    if args.values is not None:
        values = _flag_list(args.values, "--values")
        # the oracle holds a values x dim block, as for a --grid of that length
        if len(values) > MAX_STEPS:
            raise ValueError(f"--values takes at most {MAX_STEPS} values, got {len(values)}")
    else:
        lo, hi, steps = args.grid
        _check_steps(steps, "--grid STEPS", 2)
        values = _grid(lo, hi, int(steps))
    evaluations = sweep(params, args.axis, values, with_oracle=args.oracle, dim=args.dim,
                        tail_tol=args.tail_tol)
    # the delta axis is named apart from the evaluated delta column beside it
    axis = "delta_axis" if args.axis == "delta" else args.axis
    _rate_table(args, [axis, "phi", "delta", "delta_detected"],
                [([fmt(value), fmt(ev.phi), fmt(ev.delta), fmt(ev.delta_detected)], ev)
                 for value, ev in zip(values, evaluations)])
    return EXIT_OK


def _figure_2(args) -> tuple[list[str], list[list[str]]]:
    import numpy as np

    from .fock import displace

    _check_tail_tol(args.tail_tol)
    params = ProtocolParams(family=StateFamily.FOCK, photons=1.0, n=1)
    space = _oracle_space([(params, args.delta)], None, args.tail_tol)
    if not 1 <= args.levels <= space.dim:
        raise ValueError(f"--levels must be in [1, {space.dim}] (the basis dimension), "
                         f"got {args.levels}")
    probe = _probe_state(params, space)
    p0 = np.abs(probe) ** 2
    p1 = np.abs(displace(space, probe, [args.delta])[0]) ** 2
    rows = [[str(n), fmt(p0[n]), fmt(p1[n])] for n in range(args.levels)]
    return ["n", "p_initial", "p_displaced"], rows


def _figure_steps(args, default: int) -> int:
    """Length of a figure grid; it includes both end points, so at least 2."""
    steps = default if args.steps is None else args.steps
    _check_steps(steps, "--steps", 2)
    return steps


def _column_labels(prefix: str, values: list[float], flag: str) -> list[str]:
    """One CSV column label per list-flag value; {:g} keeps 6 significant
    digits, so two values that print alike would give two columns one name."""
    labels = [f"{prefix}{v:g}" for v in values]
    first = {}
    for value, label in zip(values, labels):
        if label in first:
            raise ValueError(f"{flag} values {first[label]!r} and {value!r} share the "
                             f"column label {label}")
        first[label] = value
    return labels


def _figure_3(args) -> tuple[list[str], list[list[str]]]:
    alphas = _flag_list(args.alphas, "--alphas")
    bad = [a for a in alphas if not analytic.cat_amplitude_in_range(a)]
    if bad:
        raise ValueError(f"--alphas values must be > 0 with 2 alpha^2 a finite float, "
                         f"got {bad[0]}")
    header = ["delta"] + _column_labels("parity_alpha_", alphas, "--alphas")
    steps = _figure_steps(args, 500)
    curves = [analytic.cat_parity_curve(a, 1.0) for a in alphas]
    return header, [[fmt(delta)] + [fmt(curve(delta)) for curve in curves]
                    for delta in _grid(0.0, 2.5, steps)]


def _figure_4(args) -> tuple[list[str], list[list[str]]]:
    steps = _figure_steps(args, 200)
    rows = []
    for alpha in _grid(0.5, 4.0, steps):
        delta_opt, parity = _cat_parity_minimum(alpha, 1.0)
        p_even = 0.5 * (1.0 + parity)
        rows.append([fmt(alpha), fmt(delta_opt), fmt(p_even), fmt(1.0 - p_even)])
    return ["alpha", "delta_opt", "p_even", "p_odd"], rows


def _eta_columns(args, prefix: str, rate) -> tuple[list[str], list[list[str]]]:
    """Figures 5 and 6: one row per alpha of the figure grid and one column of
    rate(alpha, eta) per --etas value; every efficiency must lie in (0, 1]
    and have a label of its own."""
    etas = _flag_list(args.etas, "--etas")
    bad = [e for e in etas if not 0.0 < e <= 1.0]
    if bad:
        raise ValueError(f"--etas values must be in (0, 1], got {bad[0]}")
    header = ["alpha"] + _column_labels(prefix, etas, "--etas")
    steps = _figure_steps(args, 200)
    return header, [[fmt(alpha)] + [fmt(rate(alpha, eta)) for eta in etas]
                    for alpha in _grid(0.5, 4.0, steps)]


def _figure_5(args) -> tuple[list[str], list[list[str]]]:
    return _eta_columns(args, "p_fp_eta_", analytic.cat_false_positive_product_form)


def _figure_6(args) -> tuple[list[str], list[list[str]]]:
    return _eta_columns(args, "p_fn_eta_",
                        lambda alpha, eta: 0.5 * (1.0 + _cat_parity_minimum(alpha, eta)[1]))


def _cmd_figure(args) -> int:
    builders = {2: _figure_2, 3: _figure_3, 4: _figure_4, 5: _figure_5, 6: _figure_6}
    header, rows = builders[args.id](args)
    _write_rows(args.out, header, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verification import run_checks

    # open --out first, so an unwritable path fails before the suite runs
    fh = _open_out(args.out)
    with fh or contextlib.nullcontext():
        results = run_checks(grid=args.grid, tolerance=args.tolerance)
        header = ["status", "check", "max_discrepancy", "tolerance", "seconds"]
        text = _csv_text(header, [
            [r.status, r.name, fmt(r.discrepancy), fmt(r.tolerance), f"{r.seconds:.3f}"]
            for r in results])
        if fh:
            fh.write(text)
    sys.stdout.write(text)
    failed = [r for r in results if not r.passed]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed"
    errored = [f"{r.name} ({' '.join(r.error.split())})" for r in results if r.error]
    if errored:
        summary += "; errors: " + ", ".join(errored)
    print(summary, file=sys.stderr)
    return EXIT_OK if not failed else EXIT_VERIFICATION


_COMMANDS = {
    "overlap": _cmd_overlap,
    "parity": _cmd_parity,
    "evaluate": _cmd_evaluate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"ngphase: invalid request: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # LeakageError and ConvergenceError are RuntimeErrors
    except (ArithmeticError, RuntimeError) as exc:
        print(f"ngphase: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def entrypoint() -> None:
    raise SystemExit(main())
