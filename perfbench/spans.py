"""In-memory spans around calls into ngphase, and the per-layer figures they give.

``instrument`` wraps public functions and methods of the ngphase modules from
outside the package: each wrapper is bound in place of the original in every
module that holds the original under some name, because ``cli``,
``protocols``, ``verification`` and ``loss`` import functions by name
(``from .fock import displacement``), so patching ``ngphase.fock`` alone
would miss their calls.

Functions that cost about a microsecond (the scalar closed forms) are only
counted: a span costs about as much as the call, so their time is left to
the enclosing span (``search``, ``protocols``, ``analytic``, ``verification``
or ``cli``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans (name, start, end, parent) and named counters for one pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        # One-element lists: a wrapper bumps ``cell[0]``, the cheapest
        # counter a Python wrapper can keep.
        self.cells: defaultdict = defaultdict(lambda: [0])
        self.samples: defaultdict = defaultdict(list)

    def count(self, name: str) -> int:
        return self.cells[name][0]

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(float("nan"))
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]} ended out of order")

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` is a sequence of (name, start, end, parent index or -1).
    """
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def reuse_ratio(keys) -> float:
    """Share of builds whose key was already built: 1 - distinct / builds."""
    keys = list(keys)
    if not keys:
        return 0.0
    return 1.0 - len(set(keys)) / len(keys)


# ---------------------------------------------------------------------------
# what is wrapped

# (module, function) -> span name.  Missing names are skipped, so a program
# that drops one of them still runs; its figures then read 0.
SPANNED = {
    ("fock", "displacement"): "fock.displacement",
    ("fock", "squeeze"): "fock.squeeze",
    ("fock", "fock_state"): "fock.states",
    ("fock", "cat_state"): "fock.states",
    ("fock", "coherent_state"): "fock.states",
    ("fock", "apply"): "fock.apply",
    ("fock", "overlap"): "fock.readout",
    ("fock", "photon_distribution"): "fock.readout",
    ("fock", "parity_expectation"): "fock.readout",
    ("fock", "trace_distance"): "fock.readout",
    ("fock", "recommend_dim"): "fock.sizing",
    ("loss", "apply_loss"): "loss.apply_loss",
    ("loss", "apply_loss_via_purification"): "loss.purification",
    ("loss", "lossy_displaced_fock1"): "loss.closed_form",
    ("loss", "lossy_displaced_cat"): "loss.closed_form",
    ("analytic", "cat_error_rates"): "analytic",
    ("analytic", "fock1_error_rates"): "analytic",
    ("analytic", "laguerre_first_root"): "analytic",
    ("analytic", "threshold_phase"): "analytic",
    ("analytic", "baseline_phase_errors"): "analytic",
    ("search", "golden_section_minimize"): "search.golden",
    ("search", "bisect_root"): "search.bisect",
    ("protocols", "optimize_delta"): "protocols.optimize_delta",
    ("protocols", "evaluate"): "protocols.evaluate",
    ("verification", "run_checks"): "verification",
}

SPANNED_METHODS = {
    ("fock", "DensityOperator", "__post_init__"): "fock.density",
    ("loss", "LossChannel", "kraus_operators"): "loss.kraus_build",
}

# Microsecond-scale closed forms: counted as analytic calls, never spanned.
# The spanned analytic functions count as analytic calls too.
COUNTED = ("laguerre", "fock_overlap", "cat_norm", "cat_overlap", "cat_overlap_zero",
           "helstrom", "fock1_false_negative", "cat_parity",
           "cat_false_positive_product_form", "cat_pn")


def _observe_displacement(samples, args, result):
    samples["displacement_dim"].append(args[0].dim)


def _observe_sizing(samples, args, result):
    samples["dim"].append(result)


def _observe_apply(samples, args, result):
    samples["leakage"].append(result.leakage)


def _observe_kraus(samples, args, result):
    channel = args[0]
    samples["kraus_key"].append((channel.space.dim, channel.eta))
    samples["kraus_terms"].append(len(result))


def _observe_evaluate(samples, args, result):
    if result.max_discrepancy is not None:
        samples["oracle_gap"].append(result.max_discrepancy)


def _observe_checks(samples, args, result):
    samples["checks"].extend(result)


# Counters read off a wrapped call's arguments and result.
OBSERVERS = {
    "fock.displacement": _observe_displacement,
    "fock.sizing": _observe_sizing,
    "fock.apply": _observe_apply,
    "loss.kraus_build": _observe_kraus,
    "protocols.evaluate": _observe_evaluate,
    "verification": _observe_checks,
}


def _spanned(tracer: Tracer, span: str, fn):
    begin, end, samples = tracer.begin, tracer.end, tracer.samples
    cell = tracer.cells["analytic.calls"] if span == "analytic" else None
    observe = OBSERVERS.get(span)
    evals = tracer.cells["search.golden.evals"] if span == "search.golden" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if cell is not None:
            cell[0] += 1
        if evals is not None:
            args = (_counting(evals, args[0]),) + args[1:]
        index = begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(index)
        if observe:
            observe(samples, args, result)
        return result
    return wrapper


def _counting(cell: list[int], fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def instrument(tracer: Tracer, package: str = "ngphase"):
    """Wrap the listed ngphase functions; returns a callable that undoes it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo = []

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    for (home, fname), span in SPANNED.items():
        original = getattr(sys.modules.get(f"{package}.{home}"), fname, None)
        if original is not None:
            rebind(original, _spanned(tracer, span, original))
    for fname in COUNTED:
        original = getattr(sys.modules.get(f"{package}.analytic"), fname, None)
        if original is not None:
            rebind(original, _counting(tracer.cells["analytic.calls"], original))
    for (home, cls_name, method), span in SPANNED_METHODS.items():
        cls = getattr(sys.modules.get(f"{package}.{home}"), cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if original is not None:
            setattr(cls, method, _spanned(tracer, span, original))
            undo.append((cls, method, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


# ---------------------------------------------------------------------------
# per-layer figures

SELF_TIME_METRICS = {
    "fock.displacement": "fock.displacement.self_s",
    "fock.squeeze": "fock.squeeze.self_s",
    "fock.states": "fock.states.self_s",
    "fock.apply": "fock.apply.self_s",
    "fock.readout": "fock.readout.self_s",
    "fock.density": "fock.density.self_s",
    "fock.sizing": "fock.sizing.self_s",
    "loss.kraus_build": "loss.kraus_build.self_s",
    "loss.apply_loss": "loss.apply_loss.self_s",
    "loss.purification": "loss.purification.self_s",
    "loss.closed_form": "loss.closed_form.self_s",
    "analytic": "analytic.self_s",
    "search.golden": "search.self_s",
    "search.bisect": "search.self_s",
    "protocols.optimize_delta": "protocols.optimize_delta.self_s",
    "protocols.evaluate": "protocols.evaluate.self_s",
    "verification": "verification.self_s",
    "cli": "cli.self_s",
}

CALL_METRICS = {
    "fock.displacement": "fock.displacement.calls",
    "fock.density": "fock.density.calls",
    "loss.kraus_build": "loss.kraus_build.calls",
    "loss.apply_loss": "loss.apply_loss.calls",
    "search.golden": "search.golden.calls",
    "search.bisect": "search.bisect.calls",
    "protocols.optimize_delta": "protocols.optimize_delta.calls",
    "protocols.evaluate": "protocols.evaluate.calls",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass that took ``pass_s`` seconds.

    The ``*.self_s`` values plus ``trace.unattributed_s`` add up to
    ``pass_s``: every span is inside a ``cli`` span, and the time outside
    those is the benchmark's own loop.
    """
    spans = tracer.spans()
    metrics = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    metrics.update({name: 0 for name in CALL_METRICS.values()})
    roots = 0.0
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        metrics[SELF_TIME_METRICS[name]] += own
        if name in CALL_METRICS:
            metrics[CALL_METRICS[name]] += 1
        if parent < 0:
            roots += end - start
    samples = tracer.samples
    dims = samples["displacement_dim"]
    golden = metrics["search.golden.calls"]
    metrics.update({
        "fock.displacement.calls_per_dim": len(dims) / len(set(dims)) if dims else 0.0,
        "fock.dim_mean": _mean(samples["dim"]),
        "fock.dim_max": max(samples["dim"], default=0),
        "fock.leakage_max": max(samples["leakage"], default=0.0),
        "loss.kraus_build.reuse_ratio": reuse_ratio(samples["kraus_key"]),
        "loss.kraus_terms_mean": _mean(samples["kraus_terms"]),
        "analytic.calls": tracer.count("analytic.calls"),
        "search.golden.evals_per_call": (
            tracer.count("search.golden.evals") / golden if golden else 0.0),
        "protocols.oracle_gap_max": max(samples["oracle_gap"], default=0.0),
        "verification.gap_ratio_max": max(
            (c.discrepancy / c.tolerance for c in samples["checks"]), default=0.0),
        "trace.pass_s": pass_s,
        "trace.unattributed_s": pass_s - roots,
        "trace.spans": len(spans),
    })
    for check in samples["checks"]:
        key = f"verification.check_s.{check.name}"
        metrics[key] = metrics.get(key, 0.0) + check.seconds
    return metrics
