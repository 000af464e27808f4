"""Spans and counters around the layers' entry points, installed from outside.

Each hook replaces one module or class attribute of ``mildheat`` for the
duration of a pass and puts the original object back afterwards, so the
package itself carries no instrumentation.  A hook whose target no longer
exists is skipped: the metrics that depend on it read ``None`` and a note
says which target was missing, and the pass still runs.

A layer's self time is its inclusive span time minus the time covered by
the spans nested inside it, so ``solver.apply_s`` excludes the matrix
assembly that ``DuhamelOperator.apply`` triggers lazily (as long as the
assembly hook is installed).  ``solver.matrix_mb`` and
``solver.apply_gflop`` are computed from array sizes, not measured.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


class Tracer:
    """Inclusive and child-covered seconds per layer, plus named counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(float)
        self.sup_ratios = []  # successive sup_diff ratios of every solve
        self.bracket_ratios = []
        self.unreadable = {}  # hook name -> why its result could not be read
        self._stack = []

    @contextlib.contextmanager
    def span(self, layer: str):
        self._stack.append(layer)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.total[layer] += dt
            if self._stack:
                self.child[self._stack[-1]] += dt

    def self_seconds(self, layer: str) -> float:
        return self.total[layer] - self.child[layer]

    def add(self, counter: str, amount: float = 1.0):
        self.counts[counter] += amount


class SetupClock:
    """Seconds from the start of a pass to the end of its set-up."""

    def __init__(self):
        self.start = time.perf_counter()
        self.seconds: Optional[float] = None

    def mark(self):
        if self.seconds is None:
            self.seconds = time.perf_counter() - self.start


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.path`` with ``make(original)`` while a pass runs."""

    name: str
    module: str
    path: str
    make: Callable[[Callable], Callable]


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        obj = vars(obj)[part]
    return obj, attr


@contextlib.contextmanager
def installed(hooks):
    """Install hooks; yield {hook name: note} for targets that are missing.

    Every installed hook is restored on exit, also when the pass raises."""
    restore = []
    missing = {}
    try:
        for hook in hooks:
            try:
                owner, attr = _owner(hook.module, hook.path)
                original = vars(owner)[attr]
            except (ImportError, KeyError, TypeError) as exc:
                missing[hook.name] = (
                    f"{hook.module}.{hook.path} not found ({type(exc).__name__}: {exc})"
                )
                continue
            setattr(owner, attr, hook.make(original))
            restore.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def setup_hook(clock: SetupClock) -> Hook:
    """The one hook end-to-end metrics use: set-up ends when the solver
    state (grid, data evolution, operator plans) is constructed."""

    def make(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            clock.mark()

        return __init__

    return Hook("setup", "mildheat.solver", "PicardRunner.__init__", make)


def _read(tr: Tracer, hook: str, after, out, args, kwargs):
    """Let ``after`` count from a call's arguments and result.  A result
    whose shape changed marks the hook's metrics unreadable instead of
    failing the pass."""
    try:
        after(out, *args, **kwargs)
    except (AttributeError, KeyError, TypeError) as exc:
        tr.unreadable[hook] = f"result of the {hook} hook not readable ({exc!r})"


def _spanned(tr: Tracer, hook: str, layer: str, after=None):
    """Wrapper factory: span ``layer`` around the call, then read it."""

    def make(fn):
        def wrapper(*args, **kwargs):
            with tr.span(layer):
                out = fn(*args, **kwargs)
            if after is not None:
                _read(tr, hook, after, out, args, kwargs)
            return out

        return wrapper

    return make


def _counted(tr: Tracer, hook: str, after):
    """Wrapper factory without a span, for calls too frequent to time."""

    def make(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            _read(tr, hook, after, out, args, kwargs)
            return out

        return wrapper

    return make


def layer_hooks(tr: Tracer) -> list:
    """Hooks at the entry point of every layer the benchmark measures."""

    def evolved(out, *args, **kwargs):
        tr.add("evolve_calls")
        tr.add("evolve_node_times", out.size)  # (times, nodes) array

    def assembled(out, *args, **kwargs):
        tr.add("matrices_built")
        tr.add("matrix_bytes", 4 * out.size)  # kept as float32

    def looked_up(mat, *args, **kwargs):
        tr.add("matrix_lookups")
        tr.add("apply_flop", 2 * mat.size)  # one matrix-vector product each

    def applied(out, *args, **kwargs):
        tr.add("apply_calls")

    def solved(out, *args, **kwargs):
        tr.add("solves")
        tr.add("picard_iterations", out.iterations)
        tr.add("inconclusive_solves", out.status == "Inconclusive")
        diffs = [h["sup_diff"] for h in out.history]
        tr.sup_ratios += [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]

    def swept(out, *args, **kwargs):
        tr.add("sweep_probes", len(out.history))
        tr.bracket_ratios.append(out.kappa_high / out.kappa_low)

    def boxed(fn):
        sig = inspect.signature(fn)
        fine = getattr(importlib.import_module("mildheat.quadrature"), "_N_FINE", 15)

        def after(res, *args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            target = a["tol"] * (max(abs(res.value), 1e-300) if a["relative"] else 1.0)
            cell_pair = 2 * fine ** len(a["lo"])
            tr.add("quad_calls")
            tr.add("quad_evals", res.evaluations)
            if res.error_estimate > target and res.evaluations + cell_pair > a["max_evals"]:
                tr.add("over_budget")
                tr.add("over_budget_evals", res.evaluations)

        return _spanned(tr, "box", "quadrature", after)(fn)

    def checked(out, *args, **kwargs):
        tr.add("criteria_samples", len(out.samples))

    def time_quad(res, *args, **kwargs):
        tr.add("time_quad_evals", res.evaluations)

    def ivp(out, *args, **kwargs):
        tr.add("ivp_calls")
        tr.add("ivp_rhs_evals", out.nfev)

    return [
        Hook("evolve", "mildheat.solver", "_InitialEvaluator.at_times",
             _spanned(tr, "evolve", "solver.evolve", evolved)),
        Hook("assemble", "mildheat.solver", "_hat_transport_matrix",
             _spanned(tr, "assemble", "solver.assemble", assembled)),
        Hook("apply", "mildheat.solver", "DuhamelOperator.apply",
             _spanned(tr, "apply", "solver.apply", applied)),
        Hook("lookup", "mildheat.solver", "DuhamelOperator._matrix",
             _counted(tr, "lookup", looked_up)),
        Hook("picard", "mildheat.solver", "PicardRunner.solve",
             _spanned(tr, "picard", "solver.picard", solved)),
        Hook("sweep", "mildheat.cli", "dichotomy_sweep", _spanned(tr, "sweep", "cli", swept)),
        Hook("box", "mildheat.quadrature", "_adaptive_box", boxed),
        Hook("criteria", "mildheat.criteria", "orlicz_moment_check",
             _spanned(tr, "criteria", "criteria", checked)),
        Hook("witness", "mildheat.cutoffs", "differential_inequality_bound",
             _spanned(tr, "witness", "cutoffs.witness")),
        Hook("ivp", "mildheat.cutoffs", "solve_ivp", _spanned(tr, "ivp", "cutoffs.ivp", ivp)),
        Hook("time_quad", "mildheat.cutoffs", "integrate_time",
             _counted(tr, "time_quad", time_quad)),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self(layer: str):
    return lambda t: t.self_seconds(layer)


def _count(key: str, scale: float = 1.0):
    return lambda t: t.counts[key] * scale


# name -> (unit, better, hooks it needs, value from the pass's tracer).
# Ratios read 0 when their denominator is 0, that is when the layer
# was not used.
PER_LAYER = {
    "solver.evolve_s": ("s", "lower", ("evolve",), _self("solver.evolve")),
    "solver.evolve_calls": ("count", "lower", ("evolve",), _count("evolve_calls")),
    "solver.evolve_node_times": ("count", "lower", ("evolve",), _count("evolve_node_times")),
    "solver.assemble_s": ("s", "lower", ("assemble",), _self("solver.assemble")),
    "solver.matrices_built": ("count", "lower", ("assemble",), _count("matrices_built")),
    "solver.matrix_mb": ("MB-computed", "lower", ("assemble",), _count("matrix_bytes", 1e-6)),
    "solver.apply_s": ("s", "lower", ("apply",), _self("solver.apply")),
    "solver.apply_calls": ("count", "lower", ("apply",), _count("apply_calls")),
    "solver.matrix_lookups": ("count", "lower", ("lookup",), _count("matrix_lookups")),
    "solver.cache_hit_ratio": (
        "ratio", "higher", ("lookup", "assemble"),
        lambda t: t.counts["matrix_lookups"] and 1.0 - _ratio(t.counts["matrices_built"],
                                                               t.counts["matrix_lookups"])),
    "solver.apply_gflop": ("GFLOP-computed", "lower", ("lookup",), _count("apply_flop", 1e-9)),
    "solver.picard_s": ("s", "lower", ("picard",), _self("solver.picard")),
    "solver.solves": ("count", "lower", ("picard",), _count("solves")),
    "solver.picard_iterations": ("count", "lower", ("picard",), _count("picard_iterations")),
    "solver.inconclusive_solves": ("count", "lower", ("picard",), _count("inconclusive_solves")),
    "solver.contraction_q": ("ratio", "lower", ("picard",),
                             lambda t: statistics.median(t.sup_ratios) if t.sup_ratios else 0.0),
    "cli.sweep_s": ("s", "lower", ("sweep",), _self("cli")),
    "cli.sweep_probes": ("count", "lower", ("sweep",), _count("sweep_probes")),
    "cli.bracket_ratio": ("ratio", "lower", ("sweep",),
                          lambda t: max(t.bracket_ratios, default=0.0)),
    "quadrature.box_s": ("s", "lower", ("box",), _self("quadrature")),
    "quadrature.calls": ("count", "lower", ("box",), _count("quad_calls")),
    "quadrature.evaluations": ("count", "lower", ("box",), _count("quad_evals")),
    "quadrature.over_budget": ("count", "lower", ("box",), _count("over_budget")),
    "quadrature.wasted_eval_frac": (
        "ratio", "lower", ("box",),
        lambda t: _ratio(t.counts["over_budget_evals"], t.counts["quad_evals"])),
    "criteria.check_s": ("s", "lower", ("criteria",), _self("criteria")),
    "criteria.samples": ("count", "higher", ("criteria",), _count("criteria_samples")),
    "cutoffs.witness_s": ("s", "lower", ("witness",), _self("cutoffs.witness")),
    "cutoffs.ivp_calls": ("count", "lower", ("ivp",), _count("ivp_calls")),
    "cutoffs.ivp_s": ("s", "lower", ("ivp",), _self("cutoffs.ivp")),
    "cutoffs.ivp_rhs_evals": ("count", "lower", ("ivp",), _count("ivp_rhs_evals")),
    "cutoffs.time_quad_evals": ("count", "lower", ("time_quad",), _count("time_quad_evals")),
    # traced wall time outside every span, and traced minus untraced wall time
    "trace.unattributed_s": ("s", "lower", (), None),
    "trace.overhead_s": ("s", "lower", (), None),
}


def layer_metrics(tr: Tracer, missing: dict, traced_wall: float, overhead: float):
    """Per-layer metrics of one traced pass, and notes on what is missing."""
    lost = {**tr.unreadable, **missing}
    values = {
        "trace.unattributed_s": traced_wall - sum(tr.self_seconds(k) for k in list(tr.total)),
        "trace.overhead_s": overhead,
    }
    out = {}
    notes = []
    for name, (unit, _better, needs, value) in PER_LAYER.items():
        gone = [lost[h] for h in needs if h in lost]
        if gone:
            out[name] = {"value": None, "unit": unit}
            notes.append(f"{name}: null, {'; '.join(gone)}")
        else:
            out[name] = {"value": float(values[name] if value is None else value(tr)),
                         "unit": unit}
    return out, notes
