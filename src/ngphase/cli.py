"""Command-line front end emitting deterministic CSV.

Subcommands: ``overlap``, ``parity``, ``evaluate``, ``optimize``, ``sweep``,
``figure``, ``verify``.  Identical flags produce byte-identical output:
numbers are printed with 17 significant digits, '.' decimal separator and
'\\n' line endings.  Exit codes: 0 success, 1 validation error, 2 computation
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import analytic
from .analytic import ProtocolParams, StateFamily
from .fock import (
    DEFAULT_TAIL_TOL,
    MAX_DIM,
    MAX_STEPS,
    ConvergenceError,
    FockSpace,
    LeakageError,
    cat_state,
    displace,
    fock_state,
    overlap,
    parity_signs,
    photon_distribution,
    recommend_dim,
)
from .loss import LossChannel, thin
from .protocols import (
    Evaluation,
    _default_space,
    delta_to_phi,
    evaluate,
    optimize_delta,
    phi_to_delta,
    sweep,
)
from .verification import run_checks

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
    def error(self, message):
        usage = " ".join(self.format_usage().split())
        raise _UsageError(f"{self.prog}: error: {message}; {usage}")


def fmt(value: float) -> str:
    """17-significant-digit, locale-independent rendering."""
    return format(float(value), ".17g")


def _write_rows(out_path: str | None, header: list[str], rows: list[list[str]]) -> None:
    text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


@dataclass(frozen=True)
class RunConfig:
    """Validated flag bundle shared by the scenario subcommands."""

    params: ProtocolParams
    dim: int | None
    tail_tol: float
    oracle: bool
    out: str | None

    def space_for(self, max_delta: float) -> FockSpace:
        if self.dim is not None:
            return FockSpace(self.dim, self.tail_tol)
        return _default_space(self.params, max_delta, self.tail_tol)


def _add_scenario_flags(parser: argparse.ArgumentParser, *, family_required: bool) -> None:
    parser.add_argument("--family", choices=["fock", "cat"], required=family_required,
                        help="probe state family")
    parser.add_argument("--n", type=int, help="photon number of the Fock probe")
    parser.add_argument("--alpha", type=float, help="amplitude of the cat probe")
    parser.add_argument("--eta", type=float, default=1.0, help="detector quantum efficiency")
    parser.add_argument("--r", type=float, default=0.0, help="squeeze factor")
    parser.add_argument("--photons", type=float, default=1e6,
                        help="mean photon number N at the phase object")
    parser.add_argument("--p0", type=float, default=0.5,
                        help="prior probability of no signal (Helstrom reference only)")
    parser.add_argument("--dim", type=int, help="override the basis dimension")
    parser.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                        help="truncation leakage budget")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the numeric route and report both")
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def _check_tail_tol(tail_tol: float) -> None:
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"--tail-tol must be in (0, 1), got {tail_tol}")


def _check_steps(steps, flag: str, least: int) -> None:
    """Grid lengths are checked before any list of that length is built."""
    if not least <= steps <= MAX_STEPS:
        raise ValueError(f"{flag} must be in [{least}, {MAX_STEPS}], got {steps}")


def _build_config(args) -> RunConfig:
    family = StateFamily(args.family)
    if family is StateFamily.FOCK:
        n = 1 if args.n is None else args.n
        params = ProtocolParams(family=family, photons=args.photons, n=n,
                                eta=args.eta, r=args.r, p0=args.p0, p_delta=1.0 - args.p0)
    else:
        if args.alpha is None:
            raise ValueError("--alpha is required for the cat family")
        params = ProtocolParams(family=family, photons=args.photons, alpha=args.alpha,
                                eta=args.eta, r=args.r, p0=args.p0, p_delta=1.0 - args.p0)
    if args.dim is not None and not 2 <= args.dim <= MAX_DIM:
        raise ValueError(f"--dim must be in [2, {MAX_DIM}]")
    _check_tail_tol(args.tail_tol)
    return RunConfig(params=params, dim=args.dim, tail_tol=args.tail_tol,
                     oracle=args.oracle, out=args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ngphase",
                     description="Phase-shift detection with Fock and cat probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap", parents=[], help="probe/displaced-probe overlap vs delta")
    _add_scenario_flags(p, family_required=True)
    p.add_argument("--delta-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=300,
                   help="number of grid points on [0, delta-max)")

    p = sub.add_parser("parity", help="displaced-cat parity vs delta")
    _add_scenario_flags(p, family_required=False)
    p.set_defaults(family="cat")
    p.add_argument("--delta-max", type=float, default=2.5)
    p.add_argument("--steps", type=int, default=250)

    p = sub.add_parser("evaluate", help="error rates at one phase")
    _add_scenario_flags(p, family_required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--phi", type=float, help="candidate phase shift (radians)")
    group.add_argument("--delta", type=float, help="candidate displacement")

    p = sub.add_parser("optimize", help="operating point with minimal miss probability")
    _add_scenario_flags(p, family_required=True)

    p = sub.add_parser("sweep", help="error rates along one parameter axis")
    _add_scenario_flags(p, family_required=True)
    p.add_argument("--axis", choices=["alpha", "eta", "n", "delta", "r"], required=True)
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


# ---------------------------------------------------------------------------
# subcommands


def _delta_grid(delta_max: float, steps: int) -> list[float]:
    _check_steps(steps, "--steps", 1)
    if not 0 <= delta_max < math.inf:
        raise ValueError("--delta-max must be finite and >= 0")
    return [(i * delta_max) / steps for i in range(steps)]


def _cmd_overlap(args) -> int:
    cfg = _build_config(args)
    params = cfg.params
    deltas = _delta_grid(args.delta_max, args.steps)
    space = cfg.space_for(args.delta_max)
    if params.family is StateFamily.FOCK:
        probe = fock_state(space, params.n)
        closed_form = lambda d: analytic.fock_overlap(params.n, d)
    else:
        probe = cat_state(space, params.alpha)
        closed_form = lambda d: analytic.cat_overlap(params.alpha, d)
    rows = []
    for delta, displaced in zip(deltas, displace(probe, deltas)):
        numeric = overlap(probe, displaced)
        a = closed_form(delta)
        rows.append([fmt(delta), fmt(a), fmt(numeric.real), fmt(abs(a - numeric))])
    _write_rows(cfg.out, ["delta", "analytic", "numeric", "abs_diff"], rows)
    return EXIT_OK


def _cmd_parity(args) -> int:
    cfg = _build_config(args)
    params = cfg.params
    if params.family is not StateFamily.CAT:
        raise ValueError("parity needs --family cat")
    deltas = _delta_grid(args.delta_max, args.steps)
    space = cfg.space_for(args.delta_max)
    probe = cat_state(space, params.alpha)
    probs = [photon_distribution(state) for state in displace(probe, deltas)]
    parities = thin(LossChannel(space, params.eta), probs) @ parity_signs(space.dim)
    rows = []
    for delta, numeric in zip(deltas, parities):
        a = analytic.cat_parity(params.alpha, delta, params.eta)
        rows.append([fmt(delta), fmt(a), fmt(numeric), fmt(abs(a - numeric))])
    _write_rows(cfg.out, ["delta", "analytic", "numeric", "abs_diff"], rows)
    return EXIT_OK


_RATE_HEADER = ["p_fp", "p_fn", "helstrom"]
_NUMERIC_HEADER = ["p_fp_numeric", "p_fn_numeric", "helstrom_numeric", "max_abs_diff"]


def _rate_cells(ev: Evaluation, oracle: bool) -> list[str]:
    if ev.analytic is not None:
        cells = [fmt(ev.analytic.p_fp), fmt(ev.analytic.p_fn), fmt(ev.analytic.helstrom)]
    else:
        cells = ["nan", "nan", "nan"]
    if oracle:
        cells += [fmt(ev.numeric.p_fp), fmt(ev.numeric.p_fn), fmt(ev.numeric.helstrom),
                  fmt(ev.max_discrepancy) if ev.max_discrepancy is not None else "nan"]
    return cells


def _cmd_evaluate(args) -> int:
    cfg = _build_config(args)
    phi = args.phi if args.phi is not None else delta_to_phi(cfg.params, args.delta)
    space = None
    if cfg.oracle:
        space = cfg.space_for(abs(phi_to_delta(cfg.params, phi)))
    ev = evaluate(cfg.params, phi, with_oracle=cfg.oracle, space=space,
                  tail_tol=cfg.tail_tol)
    header = ["phi", "delta", "delta_detected"] + _RATE_HEADER
    if cfg.oracle:
        header += _NUMERIC_HEADER
    row = [fmt(ev.phi), fmt(ev.delta), fmt(ev.delta_detected)] + _rate_cells(ev, cfg.oracle)
    _write_rows(cfg.out, header, [row])
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = _build_config(args)
    op = optimize_delta(cfg.params)
    ev = evaluate(cfg.params, op.phi0, with_oracle=cfg.oracle, tail_tol=cfg.tail_tol)
    header = ["source", "phi0", "delta_detected"] + _RATE_HEADER
    if cfg.oracle:
        header += _NUMERIC_HEADER
    row = [op.source.value, fmt(op.phi0), fmt(op.delta)] + _rate_cells(ev, cfg.oracle)
    _write_rows(cfg.out, header, [row])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    if args.values is not None:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ValueError("--values is empty")
    else:
        lo, hi, steps = args.grid
        _check_steps(steps, "--grid STEPS", 2)
        steps = int(steps)
        values = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    result = sweep(cfg.params, args.axis, values, with_oracle=cfg.oracle,
                   tail_tol=cfg.tail_tol)
    header = [args.axis, "phi", "delta", "delta_detected"] + _RATE_HEADER
    if cfg.oracle:
        header += _NUMERIC_HEADER
    rows = []
    for value, ev in zip(result.values, result.points):
        rows.append([fmt(value), fmt(ev.phi), fmt(ev.delta), fmt(ev.delta_detected)]
                    + _rate_cells(ev, cfg.oracle))
    _write_rows(cfg.out, header, rows)
    return EXIT_OK


def _figure_2(args) -> tuple[list[str], list[list[str]]]:
    _check_tail_tol(args.tail_tol)
    space = FockSpace(recommend_dim(1.0, abs(args.delta), args.tail_tol), args.tail_tol)
    if not 1 <= args.levels <= space.dim:
        raise ValueError(f"--levels must be in [1, {space.dim}] (the basis dimension), "
                         f"got {args.levels}")
    probe = fock_state(space, 1)
    displaced = displace(probe, [args.delta])[0]
    p0 = photon_distribution(probe)
    p1 = photon_distribution(displaced)
    rows = [[str(n), fmt(p0[n]), fmt(p1[n])] for n in range(args.levels)]
    return ["n", "p_initial", "p_displaced"], rows


def _figure_steps(args, default: int) -> int:
    """Length of a figure grid; it includes both end points, so at least 2."""
    steps = default if args.steps is None else args.steps
    _check_steps(steps, "--steps", 2)
    return steps


def _figure_3(args) -> tuple[list[str], list[list[str]]]:
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    steps = _figure_steps(args, 500)
    header = ["delta"] + [f"parity_alpha_{a:g}" for a in alphas]
    rows = []
    for i in range(steps):
        delta = (i * 2.5) / (steps - 1)
        rows.append([fmt(delta)] + [fmt(analytic.cat_parity(a, delta, 1.0)) for a in alphas])
    return header, rows


def _alpha_grid(steps: int) -> list[float]:
    return [0.5 + i * 3.5 / (steps - 1) for i in range(steps)]


def _figure_4(args) -> tuple[list[str], list[list[str]]]:
    steps = _figure_steps(args, 200)
    rows = []
    for alpha in _alpha_grid(steps):
        params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha)
        op = optimize_delta(params)
        parity = analytic.cat_parity(alpha, op.delta, 1.0)
        p_even = 0.5 * (1.0 + parity)
        rows.append([fmt(alpha), fmt(op.delta), fmt(p_even), fmt(1.0 - p_even)])
    return ["alpha", "delta_opt", "p_even", "p_odd"], rows


def _figure_etas(args) -> list[float]:
    """The --etas grid of figures 5 and 6; every efficiency must lie in (0, 1]."""
    etas = [float(e) for e in args.etas.split(",") if e.strip()]
    bad = [e for e in etas if not 0.0 < e <= 1.0]
    if bad:
        raise ValueError(f"--etas values must be in (0, 1], got {bad[0]}")
    return etas


def _figure_5(args) -> tuple[list[str], list[list[str]]]:
    etas = _figure_etas(args)
    steps = _figure_steps(args, 200)
    header = ["alpha"] + [f"p_fp_eta_{e:g}" for e in etas]
    rows = []
    for alpha in _alpha_grid(steps):
        cells = [fmt(alpha)]
        for eta in etas:
            cells.append(fmt(analytic.cat_false_positive_product_form(alpha, eta)))
        rows.append(cells)
    return header, rows


def _figure_6(args) -> tuple[list[str], list[list[str]]]:
    etas = _figure_etas(args)
    steps = _figure_steps(args, 200)
    header = ["alpha"] + [f"p_fn_eta_{e:g}" for e in etas]
    rows = []
    for alpha in _alpha_grid(steps):
        cells = [fmt(alpha)]
        for eta in etas:
            params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha, eta=eta)
            op = optimize_delta(params)
            parity = analytic.cat_parity(alpha, op.delta / math.sqrt(eta), eta)
            cells.append(fmt(0.5 * (1.0 + parity)))
        rows.append(cells)
    return header, rows


def _cmd_figure(args) -> int:
    builders = {2: _figure_2, 3: _figure_3, 4: _figure_4, 5: _figure_5, 6: _figure_6}
    header, rows = builders[args.id](args)
    _write_rows(args.out, header, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_checks(grid=args.grid, tolerance=args.tolerance)
    header = ["status", "check", "max_discrepancy", "tolerance", "seconds"]
    rows = [["PASS" if r.passed else "FAIL", r.name, fmt(r.discrepancy),
             fmt(r.tolerance), f"{r.seconds:.3f}"] for r in results]
    _write_rows(args.out, header, rows)
    if args.out is not None:
        _write_rows(None, header, rows)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed", file=sys.stderr)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"ngphase: invalid request: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LeakageError, ConvergenceError, ArithmeticError, RuntimeError) as exc:
        print(f"ngphase: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def entrypoint() -> None:
    raise SystemExit(main())
