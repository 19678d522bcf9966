"""Per-layer tracing of moclab from outside the package.

The tracer replaces public entry points of each ``moclab`` module with
wrappers that record, per layer, the number of calls, the amount of work
(points, nodes, steps) and the *self time*: a span's duration minus the
part covered by the spans it contains. Nothing inside ``src/`` changes.

Every name is patched where it is looked up: a function imported by name
into several modules (``build_modulus``, ``panel_nodes``,
``multiplier_of_symbol_1d``) is replaced in each of them, and a class
attribute bound twice (``DissipationSymbol.__call__`` is an alias of ``m``)
is replaced under every name. ``scipy.integrate.quad`` is traced only as
bound in ``moclab.moduli``, where the below-floor moment fallback uses it.

Known blind spot: ``ObedienceMonitor`` and ``check_obeys`` reach omega
through the private ``ModulusMember._omega_scalar`` (captured by
``moduli._omega_of``), which is not a public entry point. Until the
program traces itself, that work is attributed to ``moduli.pair_search``.

A call made while a span of the same layer is open (``envelope`` calling
``m``) is folded into the open span: it adds no call and no points.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    points: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    keep_durations: bool = False
    durations: list = field(default_factory=list)


def _points_of_arg(index):
    # number of evaluation points in positional argument ``index``
    def count(args, kwargs, result):
        return int(np.size(args[index])) if len(args) > index else 1
    return count


def _rows_of_arg(index):
    # rows of an (M, 2) point array
    def count(args, kwargs, result):
        return int(np.size(args[index])) // 2
    return count


def _one(args, kwargs, result):
    return 1


def _nodes_of_result(args, kwargs, result):
    return int(np.size(result[0]))


def _steps_of_record(args, kwargs, result):
    return int(result.meta["steps"])


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    ``owner`` is the home module or class and ``name`` the attribute there;
    every alias of the same object in ``alias_owners`` is patched as well.
    ``points`` maps (args, kwargs, result) to a work count. A ``span``
    target records time; a counter-only target records calls and work and
    leaves its time to the caller's self time.
    """

    layer: str
    owner: object
    name: str
    points: object = None
    span: bool = True
    keep_durations: bool = False
    alias_owners: tuple = ()


def moclab_targets():
    """The traced entry points of every ``moclab`` module, by layer."""
    from moclab import (burgers, certificates, fields, kernels, moduli,
                        quadrature, sqg_euler, symbols)

    modules = (burgers, certificates, fields, kernels, moduli, quadrature,
               sqg_euler, symbols)
    sym_cls = symbols.DissipationSymbol
    mem_cls = moduli.ModulusMember
    f2d = fields.ScalarField2D
    out = [
        Target("symbols.eval", sym_cls, "m", _points_of_arg(1)),
        Target("symbols.eval", sym_cls, "envelope", _points_of_arg(1)),
        Target("kernels.multiplier", kernels, "multiplier_of_symbol_1d",
               alias_owners=modules),
        Target("quadrature.panel_nodes", quadrature, "panel_nodes",
               _nodes_of_result, span=False, alias_owners=modules),
        Target("moduli.quad", moduli, "quad"),
        Target("fields.evaluate_at", f2d, "evaluate_at", _rows_of_arg(1)),
        Target("moduli.build", moduli, "build_modulus", alias_owners=modules),
        Target("moduli.omega", mem_cls, "omega", _points_of_arg(1)),
        Target("moduli.omega", mem_cls, "omega_prime", _points_of_arg(1)),
        Target("moduli.omega", mem_cls, "omega_second", _points_of_arg(1)),
        Target("moduli.omega", mem_cls, "evaluate", _one),
        Target("moduli.pair_search", moduli.StratifiedPairSearch, "__init__"),
        Target("moduli.pair_search", moduli.StratifiedPairSearch, "run"),
        Target("moduli.check_obeys", moduli, "check_obeys",
               alias_owners=modules),
        Target("moduli.find_B", moduli, "find_B_for_data",
               alias_owners=modules),
        Target("certificates.sqg_criterion", certificates, "sqg_criterion"),
        Target("certificates.burgers_criterion", certificates,
               "burgers_criterion"),
        Target("burgers.compute_Lw", burgers, "compute_Lw"),
        Target("burgers.kernel_mass", burgers, "kernel_mass"),
        Target("burgers.design", burgers, "design_blowup_data"),
        Target("burgers.simulate", burgers, "simulate_burgers",
               _steps_of_record),
        Target("burgers.detect", burgers, "detect_blowup"),
        Target("sqg_euler.simulate", sqg_euler, "simulate_sqg",
               _steps_of_record),
        Target("sqg_euler.monitor", sqg_euler.ObedienceMonitor, "margin",
               keep_durations=True),
    ]
    out += [Target("fields.diagnostics", f2d, name)
            for name in ("linf", "grad_linf", "l2", "spectral_tail_fraction")]
    return out


class Tracer:
    """Installs wrappers, aggregates spans, and restores what it patched.

    Wrappers record only while ``active`` is set, so objects built with the
    wrappers installed (before any input exists) can still be used in an
    untraced pass without polluting the statistics.
    """

    ROOT = "bench.unattributed"

    def __init__(self, targets):
        self.targets = list(targets)
        self.active = False
        self.stats: dict[str, LayerStats] = {}
        self._stack: list = []
        self._patched: list = []   # (owner, name, original)
        self.reset()

    # -- statistics -------------------------------------------------------

    def reset(self) -> None:
        self.stats = {self.ROOT: LayerStats()}
        for t in self.targets:
            st = self.stats.setdefault(t.layer, LayerStats())
            st.keep_durations |= t.keep_durations
        self._stack = []

    def run_root(self, fn, *args, **kwargs):
        """Call ``fn`` under the root span, with recording on."""
        self.active = True
        try:
            return self._span(self.stats[self.ROOT], fn, args, kwargs)
        finally:
            self.active = False

    def _span(self, st, fn, args, kwargs):
        frame = [st, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            st.self_s += dur - frame[1]
            st.total_s += dur
            if st.keep_durations:
                st.durations.append(dur)
            if self._stack:
                self._stack[-1][1] += dur

    # -- patching ---------------------------------------------------------

    def _wrapper(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer.stats[target.layer]
            if target.span:
                if tracer._stack and tracer._stack[-1][0] is st:
                    return fn(*args, **kwargs)
                result = tracer._span(st, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            st.calls += 1
            if target.points is not None:
                st.points += target.points(args, kwargs, result)
            return result

        return wrapper

    def sites(self) -> dict:
        """Every (owner, name) bound to a traced object, with that object.

        Keys are printable ``owner.name`` strings.
        """
        out = {}
        for t in self.targets:
            original = vars(t.owner)[t.name]
            for owner in (t.owner, *t.alias_owners):
                for name, val in vars(owner).items():
                    if val is original:
                        key = f"{getattr(owner, '__name__', owner)}.{name}"
                        out[key] = (owner, name, original, t)
        return out

    def install(self) -> dict:
        """Patch every site; returns the sites for ``unrestored``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        sites = self.sites()
        wrappers = {}
        for owner, name, original, t in sites.values():
            key = (id(original), t.layer)
            if key not in wrappers:
                wrappers[key] = self._wrapper(original, t)
            self._patched.append((owner, name, original))
            setattr(owner, name, wrappers[key])
        return sites

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []


def unrestored(sites: dict) -> list[str]:
    """Sites whose current value is not the original object."""
    return [key for key, (owner, name, original, _) in sites.items()
            if vars(owner).get(name) is not original]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _calls(layer):
    return lambda st: st[layer].calls


def _points(layer):
    return lambda st: st[layer].points


def _self(layer):
    return lambda st: st[layer].self_s


def _per(num, den, scale=1.0):
    return lambda st: scale * num(st) / den(st) if den(st) else 0.0


def _duration_quantile(layer, q):
    def value(st):
        d = sorted(st[layer].durations)
        if not d:
            return 0.0
        return d[min(len(d) - 1, int(q * len(d)))]
    return value


# (name, unit, better, value from the pass's LayerStats by layer)
LAYER_METRICS = [
    ("symbols.eval.calls", "count", "lower", _calls("symbols.eval")),
    ("symbols.eval.points", "count", "lower", _points("symbols.eval")),
    ("symbols.eval.self_s", "s", "lower", _self("symbols.eval")),
    ("symbols.eval.points_per_call", "points/call", "higher",
     _per(_points("symbols.eval"), _calls("symbols.eval"))),
    ("kernels.multiplier.self_s", "s", "lower", _self("kernels.multiplier")),
    ("quadrature.panel_nodes.calls", "count", "lower",
     _calls("quadrature.panel_nodes")),
    ("quadrature.panel_nodes.nodes", "count", "lower",
     _points("quadrature.panel_nodes")),
    ("moduli.quad.calls", "count", "lower", _calls("moduli.quad")),
    ("moduli.quad.self_s", "s", "lower", _self("moduli.quad")),
    # quad's integrand evaluates the symbol one radius at a time; those
    # calls are symbols.eval self time, and this inclusive time holds both
    ("moduli.quad.total_s", "s", "lower",
     lambda st: st["moduli.quad"].total_s),
    ("fields.evaluate_at.calls", "count", "lower",
     _calls("fields.evaluate_at")),
    ("fields.evaluate_at.points", "count", "lower",
     _points("fields.evaluate_at")),
    ("fields.evaluate_at.self_s", "s", "lower", _self("fields.evaluate_at")),
    ("fields.diagnostics.self_s", "s", "lower", _self("fields.diagnostics")),
    ("moduli.build.calls", "count", "lower", _calls("moduli.build")),
    ("moduli.build.self_s", "s", "lower", _self("moduli.build")),
    ("moduli.omega.calls", "count", "lower", _calls("moduli.omega")),
    ("moduli.omega.points", "count", "lower", _points("moduli.omega")),
    ("moduli.omega.self_s", "s", "lower", _self("moduli.omega")),
    ("moduli.omega.us_per_point", "us/point", "lower",
     _per(_self("moduli.omega"), _points("moduli.omega"), 1e6)),
    ("moduli.pair_search.calls", "count", "lower",
     _calls("moduli.pair_search")),
    ("moduli.pair_search.self_s", "s", "lower", _self("moduli.pair_search")),
    ("moduli.check_obeys.calls", "count", "lower",
     _calls("moduli.check_obeys")),
    ("moduli.check_obeys.self_s", "s", "lower", _self("moduli.check_obeys")),
    ("moduli.find_B.calls", "count", "lower", _calls("moduli.find_B")),
    ("moduli.find_B.self_s", "s", "lower", _self("moduli.find_B")),
    ("certificates.sqg_criterion.self_s", "s", "lower",
     _self("certificates.sqg_criterion")),
    ("certificates.burgers_criterion.self_s", "s", "lower",
     _self("certificates.burgers_criterion")),
    ("burgers.compute_Lw.self_s", "s", "lower", _self("burgers.compute_Lw")),
    ("burgers.kernel_mass.self_s", "s", "lower", _self("burgers.kernel_mass")),
    ("burgers.design.self_s", "s", "lower", _self("burgers.design")),
    ("burgers.simulate.self_s", "s", "lower", _self("burgers.simulate")),
    ("burgers.detect.self_s", "s", "lower", _self("burgers.detect")),
    ("burgers.steps", "count", "lower", _points("burgers.simulate")),
    ("burgers.step_us", "us", "lower",
     _per(_self("burgers.simulate"), _points("burgers.simulate"), 1e6)),
    ("sqg_euler.simulate.self_s", "s", "lower", _self("sqg_euler.simulate")),
    ("sqg_euler.steps", "count", "lower", _points("sqg_euler.simulate")),
    ("sqg_euler.step_ms", "ms", "lower",
     _per(_self("sqg_euler.simulate"), _points("sqg_euler.simulate"), 1e3)),
    ("sqg_euler.monitor.calls", "count", "lower", _calls("sqg_euler.monitor")),
    ("sqg_euler.monitor.self_s", "s", "lower", _self("sqg_euler.monitor")),
    ("sqg_euler.monitor.call_s.p50", "s", "lower",
     _duration_quantile("sqg_euler.monitor", 0.5)),
    ("sqg_euler.monitor.call_s.p80", "s", "lower",
     _duration_quantile("sqg_euler.monitor", 0.8)),
    ("trace.unattributed_s", "s", "lower", _self(Tracer.ROOT)),
    ("trace.self_sum_s", "s", "lower",
     lambda st: sum(v.self_s for k, v in st.items() if k != Tracer.ROOT)),
]
