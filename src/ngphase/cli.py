"""Command-line front end emitting deterministic CSV.

Subcommands: ``overlap``, ``parity``, ``evaluate``, ``optimize``, ``sweep``,
``figure``, ``verify``.  Identical flags produce byte-identical output:
numbers are printed with 17 significant digits, '.' decimal separator and
'\\n' line endings.  Exit codes: 0 success, 1 validation error, 2 computation
failure, 3 verification failure.  The numeric route is ``protocols``'s:
this module imports no ``fock``, ``loss`` or numpy, and ``verify`` imports
``verification`` when it runs, so the closed-form commands run without
numpy.  ``main()`` builds its parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from . import analytic
from .analytic import ProtocolParams, StateFamily
from .limits import DEFAULT_TAIL_TOL, MAX_STEPS
from .protocols import (
    SWEEP_AXES,
    Evaluation,
    _cat_parity_minimum,
    _displaced_probes,
    _oracle_space,
    _overlaps,
    _probe,
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CSV contract reserves 2
    # for computation failures, so remap through an exception.  The usage
    # text is folded onto the message's line: every error is one stderr line.
    # Flags are matched by their full names only (subparsers are built with
    # this class too), so adding or dropping a flag never changes what a
    # prefix someone typed resolves to.
    # A token that float() reads as a negative number, exponent form and
    # -inf / -nan included, is a value, not an option: argparse's own matcher
    # knows only -5 and -0.5, so "--delta -1e-5" would find no argument.
    def __init__(self, **kwargs):
        import re  # loaded by argparse already

        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

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
    ("--tail-tol", dict(type=float, help="truncation leakage budget")),
    ("--oracle", dict(action="store_true", help="also run the numeric route and report both")),
    ("--out", dict(help="output CSV path (default: stdout)")),
)


# The figure flags, as (flag, argparse keywords).  None of them has a parser
# default, so ``_cmd_figure`` can tell which were given; the defaults of the
# flags a figure reads sit beside its builder, in ``_FIGURES``.
_FIGURE_FLAGS = (
    ("--alphas", dict(help="cat amplitudes (figure 3)")),
    ("--etas", dict(help="efficiency grid (figures 5-6)")),
    ("--steps", dict(type=int, help="grid points (figure 3: 500, figures 4-6: 200)")),
    ("--delta", dict(type=float, help="displacement (figure 2)")),
    ("--levels", dict(type=int, help="photon levels shown (figure 2)")),
    ("--tail-tol", dict(type=float, help="truncation leakage budget (figure 2)")),
)


def _add_scenario_flags(parser: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    """Every scenario flag but those in ``skip``, a command's unread flags:
    passing one is refused, and ``_scenario`` reads its default."""
    for flag, spec in _SCENARIO_FLAGS:
        if flag in skip:
            parser.set_defaults(**{flag[2:].replace("-", "_"): spec.get("default")})
        else:
            parser.add_argument(flag, **spec)


def _unread(args, flag: str, unless: str = "") -> ValueError:
    """The refusal of a given flag that would change nothing the command prints."""
    command = f"figure {args.id}" if args.command == "figure" else args.command
    return ValueError(f"{command} does not read {flag}{unless}")


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
    """The scenario the flags describe; --tail-tol is checked, and refused without --oracle."""
    if not args.oracle and args.tail_tol is not None:
        raise _unread(args, "--tail-tol", " without --oracle")
    args.tail_tol = DEFAULT_TAIL_TOL if args.tail_tol is None else args.tail_tol
    family = StateFamily(args.family)
    if family is StateFamily.CAT and args.alpha is None:
        raise ValueError("--alpha is required for the cat family")
    n = 1 if family is StateFamily.FOCK and args.n is None else args.n
    # ProtocolParams refuses a flag of the other family
    params = ProtocolParams(family=family, photons=args.photons, n=n, alpha=args.alpha,
                            eta=args.eta, r=args.r, p0=args.p0)
    _check_tail_tol(args.tail_tol)
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ngphase",
                     description="Phase-shift detection with Fock and cat probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap", parents=[], help="probe/displaced-probe overlap vs delta")
    _add_scenario_flags(p, skip=("--eta", "--r", "--photons", "--p0", "--oracle"))
    p.set_defaults(oracle=True)  # the command is the oracle
    p.add_argument("--delta-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=300,
                   help="number of grid points on [0, delta-max)")

    p = sub.add_parser("parity", help="displaced-cat parity vs delta")
    _add_scenario_flags(p, skip=("--family", "--n", "--r", "--photons", "--p0", "--oracle"))
    p.set_defaults(family="cat", oracle=True)
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
    p.add_argument("--id", type=int, choices=sorted(_FIGURES), required=True)
    for flag, spec in _FIGURE_FLAGS:
        p.add_argument(flag, **spec)
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("verify", help="run the analytic-vs-numeric verification suite")
    # one suite: --grid full names it, as it did when there was a choice
    p.add_argument("--grid", choices=["full"], help="the suite (full, the only one)")
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


def _delta_grid(args):
    """The scenario of overlap or parity, its delta grid and its oracle basis."""
    params = _scenario(args)
    _check_steps(args.steps, "--steps", 1)
    if not 0 <= args.delta_max < math.inf:
        raise ValueError("--delta-max must be finite and >= 0")
    space = _oracle_space([(_probe(params), args.delta_max)], args.tail_tol)
    return params, [(i * args.delta_max) / args.steps for i in range(args.steps)], space


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
    params, deltas, space = _delta_grid(args)
    family, value = probe = _probe(params)
    overlap = analytic.fock_overlap if family is StateFamily.FOCK else analytic.cat_overlap
    _delta_table(args.out, deltas, lambda delta: overlap(value, delta),
                 _overlaps([(probe, delta) for delta in deltas], space))
    return EXIT_OK


def _cmd_parity(args) -> int:
    params, deltas, space = _delta_grid(args)
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
    ev = evaluate(params, phi, with_oracle=args.oracle, tail_tol=args.tail_tol)
    _rate_table(args, ["phi", "delta", "delta_detected"],
                [([fmt(ev.phi), fmt(ev.delta), fmt(ev.delta_detected)], ev)])
    return EXIT_OK


def _cmd_optimize(args) -> int:
    params = _scenario(args)
    op = optimize_delta(params)
    ev = evaluate(params, op.phi0, with_oracle=args.oracle, tail_tol=args.tail_tol)
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
    evaluations = sweep(params, args.axis, values, with_oracle=args.oracle, tail_tol=args.tail_tol)
    # the delta axis is named apart from the evaluated delta column beside it
    axis = "delta_axis" if args.axis == "delta" else args.axis
    _rate_table(args, [axis, "phi", "delta", "delta_detected"],
                [([fmt(value), fmt(ev.phi), fmt(ev.delta), fmt(ev.delta_detected)], ev)
                 for value, ev in zip(values, evaluations)])
    return EXIT_OK


def _figure_2(args) -> tuple[list[str], list[list[str]]]:
    _check_tail_tol(args.tail_tol)
    if not math.isfinite(args.delta):
        raise ValueError(f"--delta must be finite, got {args.delta}")
    points = [((StateFamily.FOCK, 1), args.delta)]
    probes, _, displaced = _displaced_probes(points, _oracle_space(points, args.tail_tol))
    if not 1 <= args.levels <= len(probes[0]):
        raise ValueError(f"--levels must be in [1, {len(probes[0])}] (the basis dimension), "
                         f"got {args.levels}")
    p0, p1 = abs(probes[0]) ** 2, abs(displaced[0]) ** 2
    rows = [[str(n), fmt(p0[n]), fmt(p1[n])] for n in range(args.levels)]
    return ["n", "p_initial", "p_displaced"], rows


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
    _check_steps(args.steps, "--steps", 2)
    curves = [analytic.cat_parity_curve(a, 1.0) for a in alphas]
    return header, [[fmt(delta)] + [fmt(curve(delta)) for curve in curves]
                    for delta in _grid(0.0, 2.5, args.steps)]


def _figure_4(args) -> tuple[list[str], list[list[str]]]:
    _check_steps(args.steps, "--steps", 2)
    rows = []
    for alpha in _grid(0.5, 4.0, args.steps):
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
    _check_steps(args.steps, "--steps", 2)
    return header, [[fmt(alpha)] + [fmt(rate(alpha, eta)) for eta in etas]
                    for alpha in _grid(0.5, 4.0, args.steps)]


def _figure_5(args) -> tuple[list[str], list[list[str]]]:
    return _eta_columns(args, "p_fp_eta_", analytic.cat_false_positive_product_form)


def _figure_6(args) -> tuple[list[str], list[list[str]]]:
    return _eta_columns(args, "p_fn_eta_",
                        lambda alpha, eta: 0.5 * (1.0 + _cat_parity_minimum(alpha, eta)[1]))


# Each figure's builder and the defaults of the figure flags it reads.
_FIGURE_ETAS = "0.8,0.9,0.95,0.98"
_FIGURES = {
    2: (_figure_2, dict(delta=1.0, levels=16, tail_tol=DEFAULT_TAIL_TOL)),
    3: (_figure_3, dict(alphas="1.5,3", steps=500)),
    4: (_figure_4, dict(steps=200)),
    5: (_figure_5, dict(etas=_FIGURE_ETAS, steps=200)),
    6: (_figure_6, dict(etas=_FIGURE_ETAS, steps=200)),
}


def _cmd_figure(args) -> int:
    build, defaults = _FIGURES[args.id]
    # a figure flag the figure does not read would change nothing it prints
    for flag, _ in _FIGURE_FLAGS:
        name = flag[2:].replace("-", "_")
        if getattr(args, name) is None:
            setattr(args, name, defaults.get(name))
        elif name not in defaults:
            raise _unread(args, flag)
    header, rows = build(args)
    _write_rows(args.out, header, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verification import run_checks

    # open --out first, so an unwritable path fails before the suite runs
    fh = _open_out(args.out)
    with fh or contextlib.nullcontext():
        results = run_checks(tolerance=args.tolerance)
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
        args, unread = _parser().parse_known_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    try:
        # argparse leaves its end-of-options marker "--" among the leftovers;
        # it is dropped, and every token after it is positional
        marker = unread.index("--") if "--" in unread else len(unread)
        unread = unread[:marker] + unread[marker + 1:]
        # argparse's own reading: "-", "-5", "-1e-5" and "stray" are positional,
        # "--x" a flag
        if unread and (marker == 0 or _parser()._parse_optional(unread[0]) is None):
            raise ValueError(f"{args.command} takes no positional argument {unread[0]!r}")
        if unread:
            raise _unread(args, unread[0].split("=")[0])
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
