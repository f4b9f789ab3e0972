"""Detection-protocol tests: evaluation, optimization, sweeps, dual routes."""

import functools
import math
import re
import sys
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngphase import analytic, protocols
from ngphase.analytic import ProtocolParams, StateFamily, cat_overlap_zero, cat_parity
from ngphase.protocols import (
    OracleRangeError,
    SweepPointError,
    UnsupportedProtocolError,
    _cat_parity_minimum,
    _params_at,
    delta_to_phi,
    evaluate,
    optimize_delta,
    phi_to_delta,
    sweep,
)

from reference_search import (
    bracketed_newton_root,
    cat_stationarity,
    cell_bracket,
    full_scan_cat_parity_minimum,
    full_scan_cell,
    golden_section_minimize,
)

FOCK1 = dict(family=StateFamily.FOCK, photons=1e6, n=1)
CAT2 = dict(family=StateFamily.CAT, photons=1e6, alpha=2.0)


def test_phi_delta_round_trip():
    params = ProtocolParams(**FOCK1, r=0.7)
    phi = 3.2e-4
    assert delta_to_phi(params, phi_to_delta(params, phi)) == pytest.approx(phi, rel=1e-14)


def test_evaluate_lossless_fock_at_threshold():
    from ngphase.analytic import threshold_phase

    params = ProtocolParams(**FOCK1)
    ev = evaluate(params, threshold_phase(params), with_oracle=True)
    assert ev.analytic.p_fp == 0.0
    assert abs(ev.analytic.p_fn) < 1e-15
    assert abs(ev.numeric.p_fp) < 1e-8
    assert abs(ev.numeric.p_fn) < 1e-8
    assert ev.analytic.helstrom < 1e-12


def test_evaluate_lossy_fock_at_operating_point():
    eta = 0.98
    params = ProtocolParams(**FOCK1, eta=eta)
    phi = 1.0 / math.sqrt(eta * 1e6)
    ev = evaluate(params, phi, with_oracle=True)
    assert ev.analytic.p_fp == pytest.approx(0.02, abs=1e-12)
    assert ev.analytic.p_fn == pytest.approx(0.02 / math.e, abs=1e-12)
    assert ev.numeric.p_fp == pytest.approx(0.02, abs=1e-8)
    assert ev.numeric.p_fn == pytest.approx(0.02 / math.e, abs=1e-8)
    assert ev.delta_detected == pytest.approx(1.0, rel=1e-12)


def test_evaluate_cat_at_parity_minimum():
    params = ProtocolParams(**CAT2)
    op = optimize_delta(params)
    ev = evaluate(params, op.phi0, with_oracle=True)
    assert ev.analytic.p_fp == 0.0
    expected_fn = 0.5 * (1.0 + cat_parity(2.0, op.delta, 1.0))
    assert ev.analytic.p_fn == pytest.approx(expected_fn, abs=1e-12)
    assert ev.max_discrepancy < 1e-8


def test_evaluate_requires_oracle_for_lossy_multiphoton():
    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=2, eta=0.9)
    with pytest.raises(UnsupportedProtocolError):
        evaluate(params, 1e-3)
    ev = evaluate(params, 1e-3, with_oracle=True)
    assert ev.analytic is None
    assert 0.0 <= ev.numeric.p_fp <= 1.0
    assert 0.0 <= ev.numeric.p_fn <= 1.0
    assert ev.max_discrepancy is None  # one route, so no gap to report


def test_evaluate_lossless_multiphoton_closed_form():
    from ngphase.analytic import fock_overlap

    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=3)
    phi = 4e-4
    ev = evaluate(params, phi, with_oracle=True)
    assert ev.analytic.p_fp == 0.0
    assert ev.analytic.p_fn == pytest.approx(fock_overlap(3, ev.delta) ** 2, abs=1e-15)
    assert ev.max_discrepancy < 1e-8


# ---------------------------------------------------------------------------
# operating points


def test_optimize_fock_lossy():
    params = ProtocolParams(**FOCK1, eta=0.9)
    op = optimize_delta(params)
    assert op.delta == pytest.approx(1.0, abs=1e-12)
    assert op.phi0 == pytest.approx(1.0 / math.sqrt(0.9e6), rel=1e-12)


def test_operating_point_relation():
    # delta stored on the operating point is sqrt(eta) sqrt(N) phi0 e^r
    for kwargs in (dict(**FOCK1, eta=0.9, r=0.4), dict(**CAT2, eta=0.85, r=0.2)):
        params = ProtocolParams(**kwargs)
        op = optimize_delta(params)
        reconstructed = math.sqrt(params.eta * params.photons) * op.phi0 * math.exp(params.r)
        assert abs(op.delta - reconstructed) < 1e-12


def test_optimize_cat_against_grid_scan():
    # oracle: fine grid scan of the lossless parity
    params = ProtocolParams(**CAT2)
    op = optimize_delta(params)
    grid = np.linspace(1e-4, math.pi / 4.0, 20001)
    best = grid[int(np.argmin([cat_parity(2.0, d, 1.0) for d in grid]))]
    assert abs(op.delta - best) < 1e-4
    assert abs(op.delta - 0.371) < 0.005
    ev = evaluate(params, op.phi0)
    assert abs(ev.analytic.p_fn - 0.126) < 0.01


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_optimize_cat_near_quarter_wave_approximation(alpha):
    params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha)
    op = optimize_delta(params)
    approx_phi = math.pi / (4.0 * alpha * math.sqrt(1e6))
    assert abs(op.phi0 - approx_phi) / approx_phi < 0.15


def test_optimize_cat_beats_overlap_zero_point():
    # the parity minimizer can only improve on the overlap-zero and
    # quarter-wave operating points
    for alpha, eta in ((1.5, 1.0), (2.0, 0.9), (3.0, 0.95)):
        params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha, eta=eta)
        op = optimize_delta(params)
        p_opt = evaluate(params, op.phi0).analytic.p_fn
        for delta in (cat_overlap_zero(alpha, 0), math.pi / (4.0 * alpha)):
            p_alt = evaluate(params, delta_to_phi(params, delta)).analytic.p_fn
            assert p_opt <= p_alt + 1e-12


def _reference_cat_optimum(alpha, eta):
    """The cat operating point recomputed independently: the parity formula
    evaluated term by term per delta, a 64-cell scan kept as (d', parity)
    pairs and ranked by ``min``, then the test's copy of the bracketed Newton
    rule on the stationarity condition."""
    def parity_at(delta_p):
        delta = delta_p / math.sqrt(eta)
        a_p, d_p = math.sqrt(eta) * alpha, math.sqrt(eta) * delta
        k = 2.0 * (1.0 + math.exp(-2.0 * alpha * alpha))
        return (2.0 * math.exp(-2.0 * d_p * d_p) / k) * (
            math.exp(-2.0 * (1.0 - eta) * alpha * alpha) * math.cos(4.0 * a_p * d_p)
            + math.exp(-2.0 * a_p * a_p))

    hi = 0.5 * math.pi / (math.sqrt(eta) * alpha)
    n_cells = 64
    probes = [(i * hi / n_cells, parity_at(i * hi / n_cells)) for i in range(1, n_cells + 1)]
    best = min(range(len(probes)), key=lambda i: probes[i][1])
    lo, d, top = cell_bracket(best + 1, hi)
    return bracketed_newton_root(cat_stationarity(alpha, eta), d, lo, top)


@pytest.mark.parametrize("eta", [0.8, 0.9, 0.95, 0.98, 1.0])
def test_optimize_cat_is_bit_identical_to_reference_search(eta):
    # figures 4 and 6 and every cat sweep print these digits;
    # test_reference_digits.py holds them to the 50-digit root
    for alpha in [0.5 + 0.125 * k for k in range(29)]:
        params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha, eta=eta)
        op = optimize_delta(params)
        assert op.delta == _reference_cat_optimum(alpha, eta), alpha


def test_optimize_cat_builds_one_parity_curve_per_operating_point(monkeypatch):
    # a count, not a timing: the objective's (alpha, eta) factors are computed
    # once per call, not once per objective evaluation (about 108 of them)
    built, norms = [], []
    curve, norm = analytic.cat_parity_curve, analytic.cat_norm
    monkeypatch.setattr(analytic, "cat_parity_curve",
                        lambda *args: built.append(args) or curve(*args))
    monkeypatch.setattr(analytic, "cat_norm", lambda alpha: norms.append(alpha) or norm(alpha))
    points = [(alpha, eta) for alpha in (0.5, 2.0, 3.9) for eta in (0.8, 1.0)]
    for alpha, eta in points:
        optimize_delta(ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha, eta=eta))
    assert built == points
    assert norms == [alpha for alpha, _ in points]


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.95, 1.0])
def test_cat_parity_minimum_returns_the_curve_at_the_optimum(eta):
    # figures 4 and 6 print this parity in place of a second evaluation
    for alpha in [0.5 + 0.25 * k for k in range(15)] + [1e-200, 9e153]:
        delta, parity = _cat_parity_minimum(alpha, eta)
        params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=alpha, eta=eta)
        assert delta == optimize_delta(params).delta, alpha
        assert parity == analytic.cat_parity_curve(alpha, eta)(delta / math.sqrt(eta)), alpha


def _outcome(search, alpha, eta):
    try:
        return search(alpha, eta)
    except (ArithmeticError, ValueError) as exc:  # a bracket that over- or underflows
        return type(exc), str(exc)


FIGURE_4_ALPHAS = [0.5 + i * 3.5 / 199 for i in range(200)]


@given(alpha=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)
       | st.sampled_from([1e-200, 9e153] + FIGURE_4_ALPHAS),
       eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
       | st.sampled_from([1e-3, 1.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pruned_scan_matches_the_full_scan(alpha, eta):
    # the scan skips blocks of cells by a lower bound; the optimum, the parity
    # there and any error must be those of reading all 64 cells
    assert _outcome(_cat_parity_minimum, alpha, eta) == _outcome(
        full_scan_cat_parity_minimum, alpha, eta)


@pytest.mark.parametrize("eta", [0.47, 0.48, 0.49])
def test_pruned_scan_matches_the_full_scan_where_damping_meets_floor(eta):
    # just below eta = 1/2 the damping sits just under the floor, so the
    # lowest cell can lie outside the first block read and the bounds of the
    # blocks skipped decide the result; a bound taken at the wrong block end
    # moves 22 of these 600 optima
    for alpha in FIGURE_4_ALPHAS:
        assert _cat_parity_minimum(alpha, eta) == full_scan_cat_parity_minimum(alpha, eta)


@pytest.mark.parametrize("eta", [0.47, 0.9, 0.9568, 1.0])
def test_every_parity_the_search_reads_has_the_curve_bits(monkeypatch, eta):
    # the scan's values only choose a cell, so a value one rounding away from
    # the curve's rarely moves an optimum: read each value where it is made
    # and match it, by its cosine argument, with the full scan's curve value.
    # The refinement reads no parity: it starts with the first sine, and what
    # its cosines make from there on is not a parity value.
    read = []  # (cosine argument, parity) of each value read
    refinement_starts = []  # len(read) at each sine

    def tagged(cls, value, argument):
        value = cls(value)
        value.argument = argument
        return value

    class Cosine(float):
        # Python tries a float subclass's reflected method first, so the
        # search's D * cos and prefactor * (D cos + F) reach these methods
        def __rmul__(self, damping):
            return tagged(Sum, damping * float(self), self.argument)

    class Sum(float):
        def __add__(self, floor):
            return tagged(Product, float(self) + floor, self.argument)

    class Product(float):
        def __rmul__(self, prefactor):
            read.append((self.argument, prefactor * float(self)))
            return read[-1][1]

    def cosine(x):
        return tagged(Cosine, math.cos(x), x)

    def sine(x):
        refinement_starts.append(len(read))
        return math.sin(x)

    deltas, build = [], analytic.cat_parity_curve

    def recording_build(*args):
        curve = build(*args)

        @functools.wraps(curve)  # keeps the curve's factors for the search
        def recorded(delta):
            deltas.append(delta)
            return curve(delta)
        return recorded

    monkeypatch.setattr(protocols, "math", types.SimpleNamespace(
        **dict(vars(math), cos=cosine, sin=sine)))
    monkeypatch.setattr(analytic, "cat_parity_curve", recording_build)
    for alpha in FIGURE_4_ALPHAS[::10]:
        read.clear()
        refinement_starts.clear()
        deltas.clear()
        _cat_parity_minimum(alpha, eta)
        full_scan_cat_parity_minimum(alpha, eta)
        curve, root_eta = build(alpha, eta), math.sqrt(eta)
        reference = {4.0 * (root_eta * alpha) * (root_eta * d): curve(d) for d in deltas}
        scan = read[:refinement_starts[0]]
        assert scan and len(scan) % 4 == 0  # whole blocks of 4 cells
        assert [reference[x] for x, _ in scan] == [value for _, value in scan], alpha


# the closed_form benchmark draws figure 6's --etas from four cells, these
# values among them
BENCHMARK_FIGURE_6_ETAS = [0.78, 0.7905, 0.83, 0.88, 0.8995, 0.92, 0.93, 0.9568, 0.96, 0.97,
                           0.9778, 0.99]


@pytest.mark.parametrize("eta", BENCHMARK_FIGURE_6_ETAS)
def test_pruned_scan_matches_the_full_scan_on_the_benchmark_figure_6_etas(eta):
    for alpha in FIGURE_4_ALPHAS:
        assert _cat_parity_minimum(alpha, eta) == full_scan_cat_parity_minimum(alpha, eta)


def _counting_sines(monkeypatch):
    """Patch the search's sine to count its calls, one per evaluation of g."""
    calls = []
    monkeypatch.setattr(protocols, "math", types.SimpleNamespace(
        **dict(vars(math), sin=lambda x: calls.append(x) or math.sin(x))))
    return calls


@pytest.mark.parametrize("eta", [1.0, 0.8, 0.9, 0.95, 0.98] + BENCHMARK_FIGURE_6_ETAS)
def test_the_refinement_evaluates_g_at_most_6_times_on_the_figure_grids(monkeypatch, eta):
    # figure 4 (eta = 1), figure 6's default --etas and the benchmark's: the
    # lowest cell, one bracket end, then 2 or 3 Newton steps
    calls = _counting_sines(monkeypatch)
    counts = []
    for alpha in FIGURE_4_ALPHAS:
        calls.clear()
        _cat_parity_minimum(alpha, eta)
        counts.append(len(calls))
    assert 2 <= min(counts) and max(counts) <= 6


def _exact_parity(alpha, eta, delta_p):
    """The lossy cat parity at d' to 50 digits, from the float inputs."""
    with mpmath.workdps(50):
        a, e, d = mpmath.mpf(alpha), mpmath.mpf(eta), mpmath.mpf(delta_p)
        a_p = mpmath.sqrt(e) * a
        return (2 * mpmath.exp(-2 * d * d) / (2 * (1 + mpmath.exp(-2 * a * a)))
                * (mpmath.exp(-2 * (1 - e) * a * a) * mpmath.cos(4 * a_p * d)
                   + mpmath.exp(-2 * a_p * a_p)))


@given(alpha=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)
       | st.sampled_from([1e-200, 9e153]),
       eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_the_refinement_ends_in_its_bracket_no_higher_than_golden_section(alpha, eta):
    # either the scan's ValueError, or a finite d' in the scan's bracket after
    # a bounded number of evaluations of g, and no ZeroDivisionError where
    # g' = 0.  Its parity is compared with golden section's (the previous
    # search) exactly: the curve's float value rounds with about 1e-16 of its
    # terms (2/K) e^{-2 d'^2} (D |cos| + F), hundreds of its own ulps where
    # D cos + F cancels (small alpha, eta > 1/2), and golden section, which
    # reads those values, can stop on a favourable rounding
    try:
        lo, _, hi = full_scan_cell(alpha, eta)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _cat_parity_minimum(alpha, eta)
        return
    curve, root_eta = analytic.cat_parity_curve(alpha, eta), math.sqrt(eta)
    golden, golden_parity = golden_section_minimize(lambda x: curve(x / root_eta), lo, hi)
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_sines(patch)
        delta_p, _ = _cat_parity_minimum(alpha, eta)
    assert math.isfinite(delta_p) and lo <= delta_p <= hi
    assert len(calls) <= 12
    assert (_exact_parity(alpha, eta, delta_p)
            <= _exact_parity(alpha, eta, golden) + 2 * math.ulp(golden_parity))


def test_optimize_lossy_multiphoton_refused():
    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=2, eta=0.9)
    with pytest.raises(UnsupportedProtocolError):
        optimize_delta(params)


def test_optimize_keeps_the_phase_where_eta_photons_is_the_least_normal_float():
    # below it, or where phi0 is no finite normal float, optimize refuses the
    # point (the CLI's validation table holds those cases)
    params = ProtocolParams(**dict(FOCK1, photons=sys.float_info.min))
    assert optimize_delta(params).phi0 == 1.0 / math.sqrt(sys.float_info.min)


def test_optimize_lossless_multiphoton_uses_first_root():
    from ngphase.analytic import laguerre_first_root

    params = ProtocolParams(family=StateFamily.FOCK, photons=1e6, n=4)
    op = optimize_delta(params)
    assert op.delta == pytest.approx(math.sqrt(laguerre_first_root(4)), rel=1e-12)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_lossless_cat_has_no_false_positives():
    params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=1.0)
    evaluations = sweep(params, "alpha", (0.8, 1.2, 1.6, 2.0, 2.4))
    assert all(p.analytic.p_fp == 0.0 for p in evaluations)


def test_sweep_alpha_shape_matches_even_odd_crossover():
    # p_odd grows and p_even falls toward ~0.1 as alpha passes 2
    params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=1.0)
    values = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    p_even = [p.analytic.p_fn for p in sweep(params, "alpha", values)]
    p_odd = [1.0 - pe for pe in p_even]
    assert all(b < a for a, b in zip(p_even, p_even[1:]))
    assert all(b > a for a, b in zip(p_odd, p_odd[1:]))
    assert p_even[values.index(2.5)] <= 0.11
    assert p_even[-1] <= 0.1


def test_sweep_preserves_input_order():
    params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=1.0)
    values = (2.0, 0.7, 1.4)
    at = [_params_at(params, "alpha", v) for v in values]
    assert sweep(params, "alpha", values) == tuple(evaluate(p, optimize_delta(p).phi0) for p in at)


def test_sweep_delta_axis_fock_fp_independent_of_delta():
    params = ProtocolParams(**FOCK1, eta=0.9)
    fps = {p.analytic.p_fp for p in sweep(params, "delta", (0.2, 0.6, 1.0, 1.4))}
    assert fps == {1.0 - 0.9}


# Bounds the README states for an oracle sweep against per-point evaluate on
# the same basis: the rates move by rounding only; the Helstrom bound's square
# root turns an overlap rounding of 1e-14 into up to sqrt(1e-14) / 2 near
# delta = 0.
RATE_BOUND = 1e-14
HELSTROM_BOUND = 0.5 * math.sqrt(RATE_BOUND)


@pytest.mark.parametrize("kwargs", [
    dict(**CAT2, eta=0.9),
    dict(family=StateFamily.CAT, photons=1e6, alpha=0.5, r=0.4),
    dict(**FOCK1, eta=0.9),
    dict(family=StateFamily.FOCK, photons=1e6, n=2, eta=0.8),
])
def test_delta_axis_oracle_sweep_matches_per_point_evaluate(kwargs):
    # one basis for the largest |delta| against one basis per point, one
    # batch against one delta at a time
    params = ProtocolParams(**kwargs)
    values = (0.0, -0.7, 0.3, 1e-9, 2.0, -2.5)
    evaluations = sweep(params, "delta", values, with_oracle=True)
    for value, point in zip(values, evaluations):
        alone = evaluate(params, delta_to_phi(params, value), with_oracle=True)
        assert (point.phi, point.delta, point.analytic) == (alone.phi, alone.delta, alone.analytic)
        assert abs(point.numeric.p_fp - alone.numeric.p_fp) <= RATE_BOUND
        assert abs(point.numeric.p_fn - alone.numeric.p_fn) <= RATE_BOUND
        assert abs(point.numeric.helstrom - alone.numeric.helstrom) <= HELSTROM_BOUND


@pytest.mark.parametrize("kwargs, axis, values", [
    (dict(**CAT2, eta=0.9), "eta", (0.8, 0.95, 1.0, 0.5, 0.8)),
    (dict(**CAT2, eta=0.9), "alpha", (1.0, 2.5, 0.5, 3.5, 1.0)),
    (dict(**CAT2, eta=0.9), "r", (0.0, 0.5, 1.0)),
    (dict(**FOCK1, eta=0.9), "eta", (0.8, 0.3, 1.0, 0.95)),
    (dict(**FOCK1, eta=0.9), "r", (0.0, 0.7)),
    # lossless, so n = 2 and 3 have closed forms beside n = 1
    (dict(**FOCK1), "n", (1, 2, 1, 3)),
])
def test_oracle_sweep_matches_per_point_evaluate_on_every_axis(monkeypatch, kwargs, axis,
                                                                values):
    # one basis for the largest amplitude and |delta|, one batch of probes,
    # displacements and thinning tables, against one point at a time on it:
    # each point's evaluate reads its _readout on the sweep's _oracle_space
    params = ProtocolParams(**kwargs)
    evaluations = sweep(params, axis, values, with_oracle=True)
    at = [_params_at(params, axis, value) for value in values]
    space = protocols._oracle_space([(protocols._probe(point_params), point.delta)
                                     for point_params, point in zip(at, evaluations)])
    monkeypatch.setattr(protocols, "_oracle_space", lambda points, tail_tol: space)
    for point_params, point in zip(at, evaluations):
        alone = evaluate(point_params, optimize_delta(point_params).phi0, with_oracle=True)
        assert ((point.phi, point.delta, point.delta_detected, point.analytic)
                == (alone.phi, alone.delta, alone.delta_detected, alone.analytic))
        assert abs(point.numeric.p_fp - alone.numeric.p_fp) <= RATE_BOUND
        assert abs(point.numeric.p_fn - alone.numeric.p_fn) <= RATE_BOUND
        assert abs(point.numeric.helstrom - alone.numeric.helstrom) <= HELSTROM_BOUND


_READOUT = protocols._readout


def _readout_at(params, rate, value):
    """A readout that puts ``rate`` at ``value`` and the other rate at 1/2,
    with the real batch."""
    if params.family is StateFamily.FOCK:  # p_fp = 1 - quiet, p_fn = signal
        quiet, signal = (1.0 - value, 0.5) if rate == "p_fp" else (0.5, value)
    else:  # p_fp = (1 - quiet) / 2, p_fn = (1 + signal) / 2
        quiet, signal = (1.0 - 2.0 * value, 0.0) if rate == "p_fp" else (0.0, 2.0 * value - 1.0)
    return lambda points, space: ([quiet] * len(points), [signal] * len(points),
                                  _READOUT(points, space)[2])


@pytest.mark.parametrize("kwargs", [dict(**FOCK1, eta=0.9), dict(**CAT2, eta=0.9)])
@pytest.mark.parametrize("rate", ["p_fp", "p_fn"])
def test_numeric_rates_clamp_rounding_only(monkeypatch, kwargs, rate):
    # rounding past [0, 1] is clamped; a readout 1e-9 past it is a fault
    params = ProtocolParams(**kwargs)
    for value, clamped in ((-1e-13, 0.0), (1.0 + 1e-13, 1.0)):
        monkeypatch.setattr(protocols, "_readout", _readout_at(params, rate, value))
        assert getattr(evaluate(params, 1e-3, with_oracle=True).numeric, rate) == clamped
    for value in (-1e-9, 1.0 + 1e-9):
        monkeypatch.setattr(protocols, "_readout", _readout_at(params, rate, value))
        with pytest.raises(OracleRangeError, match=f"numeric {rate}"):
            evaluate(params, 1e-3, with_oracle=True)


def test_sweep_oracle_discrepancy_bound():
    params = ProtocolParams(family=StateFamily.CAT, photons=1e6, alpha=1.5, eta=0.9)
    evaluations = sweep(params, "eta", (0.8, 0.9, 1.0), with_oracle=True)
    assert max(ev.max_discrepancy for ev in evaluations) < 1e-6


def test_sweep_wraps_point_failures_with_index():
    params = ProtocolParams(**FOCK1, eta=0.9)
    with pytest.raises(SweepPointError) as err:
        sweep(params, "n", (1, 2))
    assert err.value.index == 1
    assert err.value.value == 2.0
    # the cause is a validation error, so the wrapper is one too
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("value", [1.5, 2.9, math.inf, -math.inf, math.nan])
def test_sweep_n_axis_rejects_non_integral_values(value):
    # int(1.5) would evaluate n = 1 under a row labelled 1.5
    params = ProtocolParams(**FOCK1)
    with pytest.raises(SweepPointError, match="finite integers") as err:
        sweep(params, "n", (1.0, value))
    assert err.value.index == 1
    assert isinstance(err.value, ValueError)


def test_sweep_rejects_unknown_axis():
    params = ProtocolParams(**FOCK1)
    with pytest.raises(ValueError):
        sweep(params, "gamma", (1.0,))


@pytest.mark.parametrize("params, axis", [(FOCK1, "alpha"), (CAT2, "n")])
def test_sweep_refuses_an_axis_of_the_other_family_before_any_point(params, axis):
    # no point is at fault, so the error is no SweepPointError; an empty
    # sweep is refused too
    for values in ((1.0, 2.0), ()):
        with pytest.raises(ValueError, match=f"has no {axis} axis") as err:
            sweep(ProtocolParams(**params), axis, values)
        assert not isinstance(err.value, SweepPointError)


def test_helstrom_zero_iff_orthogonal():
    from ngphase.analytic import threshold_phase

    params = ProtocolParams(**CAT2)
    at_zero = evaluate(params, threshold_phase(params)).analytic.helstrom
    away = evaluate(params, 0.5 * threshold_phase(params)).analytic.helstrom
    assert at_zero < 1e-12
    assert away > 1e-3
