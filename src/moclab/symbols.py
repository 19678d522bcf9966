"""Radial dissipation symbols and Fourier multipliers.

A dissipation symbol is a singular radial density m(r) > 0 defining the
nonlocal operator

    L u(x) = P.V. integral of (u(x) - u(x+y)) m(|y|) / |y|^d  dy,

subject to two structure conditions: r * m(r) bounded on (0, r0), and
r^alpha * m(r) non-increasing for some alpha in (0, 1]. A Fourier multiplier
P(|k|) plays the same role on the spectral side. Built-in families:

* power:  m(r) = r^-a, 0 < a <= 1 (a = 1 is the critical case);
* log:    m(r) = 1 / (r * ln^a(2/r)) on (0, 1], 0 < a <= 1;
* multiplier-derived: m(r) = P(1/r) for a sub-linear multiplier P.

Every built-in decays as an exact power law tail_coeff * r^-alpha beyond its
core radius, which downstream periodization exploits. The log family with
a > ln 2 is not monotone on (2 e^-a, 1]; the `envelope` accessor provides the
non-increasing envelope that modulus construction uses (the raw m is kept so
closed-form identities on (0, 1] survive, and `check_conditions` reports the
violation window honestly).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .quadrature import (classify_decades, decade_increments,
                         log_panel_rows)

LN2 = math.log(2.0)
_R_OVER = 2.0 / np.finfo(float).max  # 2/r overflows for r <= _R_OVER

# Decade-ratio thresholds over the last _TREND_WINDOW ratios: a divergence
# flag needs every ratio at or above _TREND_DIV_RATIO; check_conditions
# reads a trend only outside its (_CHECK_CONV_RATIO, _CHECK_DIV_RATIO) gap.
_TREND_WINDOW = 3
_TREND_DIV_RATIO = 0.9
_CHECK_CONV_RATIO = 0.85
_CHECK_DIV_RATIO = 0.93
_CHECK_DECADES = 16


# ---------------------------------------------------------------------------
# dissipation symbols
# ---------------------------------------------------------------------------

def _radii(R) -> tuple[np.ndarray, tuple | None]:
    # flat float array of tail radii, and the shape to restore (None for a
    # scalar argument)
    arr = np.asarray(R, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("tail integral needs R > 0")
    return arr.ravel(), (None if arr.ndim == 0 else arr.shape)


def _shaped(out: np.ndarray, shape: tuple | None):
    return float(out[0]) if shape is None else out.reshape(shape)


@dataclass(eq=False)
class DissipationSymbol:
    """Singular radial density m(r). Treat as immutable after construction."""

    family: str
    alpha: float                 # tail decay exponent; r^alpha m(r) monotone where valid
    r0: float                    # validity radius for the r*m <= C0 bound
    C0: float
    sqg_admissible: bool         # integral of m over (0,1) diverges
    a: float | None = None
    core_radius: float = 1.0
    tail_coeff: float = 1.0      # m(r) = tail_coeff * r**-alpha beyond core_radius
    label: str = ""
    _core: Callable | None = field(default=None, repr=False)
    # plateau (r_lo, m_flat, r_hi) of the non-increasing envelope, or None
    _env_plateau: tuple | None = field(default=None, repr=False)
    # (radii, values) for the tabulated family, kept for serialization
    _table: tuple | None = field(default=None, repr=False)

    def m(self, r):
        """Evaluate m(r), vectorized; r must be positive."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        # count_nonzero: a quarter of the cost of .any() on the short arrays
        # of the crossover bisection
        if np.count_nonzero(r <= 0.0):
            raise ValueError("symbol evaluated at non-positive radius")
        # a radius set inside one branch skips the gather and the scatter
        # (always so for power, whose core radius is 0)
        core = r <= self.core_radius
        n_core = np.count_nonzero(core)
        if n_core == 0:
            out = self.tail_coeff * r ** (-self.alpha)
        elif n_core == r.size:
            out = self._core(r)
        else:
            out = np.empty_like(r)
            out[core] = self._core(r[core])
            out[~core] = self.tail_coeff * r[~core] ** (-self.alpha)
        return float(out[0]) if scalar else out

    __call__ = m

    def envelope(self, r):
        """Non-increasing envelope of m; equals m wherever m is monotone."""
        if self._env_plateau is None:
            return self.m(r)
        r_lo, m_flat, r_hi = self._env_plateau
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        # a NaN radius falls in none of the three pieces and stays NaN
        low = r < r_lo
        high = r >= r_hi
        if low.all():
            out = self.m(r)
        elif high.all():
            out = self.tail_coeff * r ** (-self.alpha)
        else:
            out = np.full_like(r, np.nan)
            mid = (r >= r_lo) & (r < r_hi)
            if low.any():
                out[low] = self.m(r[low])
            out[mid] = m_flat
            if high.any():
                out[high] = self.tail_coeff * r[high] ** (-self.alpha)
        return float(out[0]) if scalar else out

    @property
    def breakpoints(self) -> list[float]:
        """Positive radii where m or its envelope may lose smoothness: the
        plateau edges (else the core radius) and any table radii."""
        if self._env_plateau is not None:
            pts = [self._env_plateau[0], self._env_plateau[2]]
        else:
            pts = [self.core_radius]
        if self._table is not None:
            pts += list(self._table[0])
        return [p for p in pts if p > 0.0]

    @property
    def tail_start(self) -> float:
        """Radius from which the envelope is the exact power tail."""
        if self._env_plateau is not None:
            return self._env_plateau[2]
        return self.core_radius

    def tail_integral_over_r(self, R):
        """Integral of m(u)/u over (R, inf) for every R > 0 (scalar or array).

        Exact on the power tail, through np.power as in ``m``; the core part
        below core_radius uses log panels, 8 per decade of order 12.
        """
        R, shape = _radii(R)
        out = (self.tail_coeff
               * np.power(np.maximum(R, self.core_radius), -self.alpha)
               / self.alpha)
        inner = R < self.core_radius
        if inner.any():
            rows = log_panel_rows(R[inner], self.core_radius, 8.0, 12)
            out[inner] += rows.integrate(self.m(rows.nodes) / rows.nodes)
        return _shaped(out, shape)

    def envelope_tail_integral_over_r(self, R):
        """Integral of envelope(u)/u over (R, inf) for every R > 0.

        The far part is the power tail, in closed form; any plateau or core
        portion of the envelope between R and tail_start is added by one
        order-20 panel in ln(u) per gap between breakpoints.
        """
        R, shape = _radii(R)
        tail_start = self.tail_start
        out = self.tail_integral_over_r(np.maximum(R, tail_start))
        gap = R < tail_start
        if gap.any():
            rows = log_panel_rows(R[gap], tail_start, 0.0, 20,
                                  self.breakpoints)
            out[gap] += rows.integrate(self.envelope(rows.nodes) / rows.nodes)
        return _shaped(out, shape)

    def to_dict(self) -> dict:
        if self.family == "log":
            scale = self.tail_coeff * LN2 ** self.a
        else:
            scale = self.tail_coeff
        doc = {
            "family": self.family,
            "a": self.a,
            "alpha": self.alpha,
            "r0": self.r0,
            "C0": self.C0,
            "scale": scale,
            "sqg_admissible": self.sqg_admissible,
            "label": self.label,
        }
        if self._table is not None:
            doc["radii"] = list(self._table[0])
            doc["values"] = list(self._table[1])
        return doc


def make_symbol(family: str, a: float | None = None, r0: float = 1.0,
                alpha: float | None = None,
                scale: float = 1.0) -> DissipationSymbol:
    """Build a built-in dissipation symbol.

    Parameters
    ----------
    family : "power" or "log"
    a : family parameter in (0, 1]
    r0 : requested validity radius (capped where the family requires it)
    alpha : tail decay exponent for the log family; defaults to 1/2
    scale : overall positive prefactor (e.g. the fractional-Laplacian
        normalization for the power family)

    Returns
    -------
    DissipationSymbol with C0, alpha, admissibility set for the family and a
    smooth power-law extension beyond r = 1.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    if family == "power":
        if a is None or not 0.0 < a <= 1.0:
            raise ValueError("power family needs a in (0, 1]")
        if alpha is not None and not math.isclose(alpha, a):
            raise ValueError("power family has tail exponent a")
        # r * m = scale * r^(1-a) is increasing for a < 1, constant at a = 1
        C0 = scale if a == 1.0 else scale * r0 ** (1.0 - a)
        label = f"power(a={a:g})" if scale == 1.0 \
            else f"{scale:g}*power(a={a:g})"
        # the power law is its own tail: core_radius 0 routes every radius
        # through the exact tail branch, which periodization relies on
        return DissipationSymbol(
            family="power", a=a, alpha=a, r0=r0, C0=C0,
            sqg_admissible=(a >= 1.0),
            core_radius=0.0, tail_coeff=scale,
            label=label,
            _core=lambda r, a=a, s=scale: s * r ** (-a),
        )
    if family == "log":
        if a is None or not 0.0 < a <= 1.0:
            raise ValueError("log family needs a in (0, 1]")
        alpha = 0.5 if alpha is None else float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError("log family tail exponent must lie in (0, 1)")

        def core(r, a=a, s=scale):
            tiny = r <= _R_OVER  # ln(2/r) is ln 2 - ln r there
            if tiny.any():
                return np.where(tiny, s / (r * (LN2 - np.log(r)) ** a),
                                core(np.where(tiny, 1.0, r)))
            return s / (r * np.log(2.0 / r) ** a)

        m1 = scale / LN2 ** a
        # closed form stops being monotone at 2 e^-a; the stored validity
        # radius stays below that so m and its envelope agree on (0, r0)
        r_mono = 2.0 * math.exp(-a)
        r0_eff = min(r0, r_mono)
        C0 = scale / math.log(2.0 / r0_eff) ** a
        plateau = None
        if r_mono < 1.0:
            m_flat = float(core(np.array([r_mono]))[0])
            r_hi = (m1 / m_flat) ** (1.0 / alpha)
            plateau = (r_mono, m_flat, r_hi)
        label = f"log(a={a:g})" if scale == 1.0 else f"{scale:g}*log(a={a:g})"
        return DissipationSymbol(
            family="log", a=a, alpha=alpha, r0=r0_eff, C0=C0,
            sqg_admissible=True,
            core_radius=1.0, tail_coeff=m1,
            label=label,
            _core=core, _env_plateau=plateau,
        )
    raise ValueError(f"unknown symbol family: {family!r}")


def symbol_from_table(radii, values, alpha: float | None = None,
                      r0: float | None = None,
                      sqg_admissible: bool | None = None,
                      label: str = "tabulated") -> DissipationSymbol:
    """Build a symbol from tabulated (radius, value) samples.

    Interpolation is shape-preserving (monotone pchip in log-log), so the
    interpolant never overshoots the data. Values must be positive and
    strictly decreasing; non-monotone tables are rejected outright. Beyond
    the last radius the symbol continues with the power law fitted to the
    final two samples.
    """
    from scipy.interpolate import PchipInterpolator

    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 4:
        raise ValueError("need matching 1-D arrays of at least 4 samples")
    if np.any(radii <= 0.0) or np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be positive and strictly increasing")
    if np.any(values <= 0.0):
        raise ValueError("symbol values must be positive")
    if np.any(np.diff(values) >= 0.0):
        raise ValueError("tabulated symbol must be strictly decreasing")

    logr = np.log(radii)
    logm = np.log(values)
    interp = PchipInterpolator(logr, logm, extrapolate=False)
    end_slope = (logm[-1] - logm[-2]) / (logr[-1] - logr[-2])
    tail_alpha = -end_slope if alpha is None else float(alpha)
    if not tail_alpha > 0.0:
        raise ValueError("tail exponent must come out positive")
    core_radius = float(radii[-1])
    tail_coeff = float(values[-1]) * core_radius ** tail_alpha
    # inside the first sample, extend with the power law of the first pair;
    # the table owner is expected to sample deep enough that this is moot
    head_slope = (logm[1] - logm[0]) / (logr[1] - logr[0])

    def core(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        below = r < radii[0]
        if below.any():
            out[below] = values[0] * (r[below] / radii[0]) ** head_slope
        if (~below).any():
            out[~below] = np.exp(interp(np.log(r[~below])))
        return out

    r0 = float(r0) if r0 is not None else core_radius
    sample = np.geomspace(max(radii[0], r0 * 1e-9), r0 * (1.0 - 1e-12), 400)
    C0 = float(np.max(sample * core(sample)))
    sym = DissipationSymbol(
        family="tabulated", a=None, alpha=tail_alpha, r0=r0, C0=C0,
        sqg_admissible=bool(sqg_admissible),
        core_radius=core_radius, tail_coeff=tail_coeff,
        label=label, _core=core,
        _table=(radii.tolist(), values.tolist()),
    )
    if sqg_admissible is None:
        # the symbol itself is the integrand: its breakpoints pin the
        # table radii, where the interpolant has kinks
        sym = replace(sym, sqg_admissible=_trend_divergent(
            sym, min(1.0, core_radius), 12))
    return sym


def symbol_from_json(doc: str | dict) -> DissipationSymbol:
    """Rebuild a built-in or tabulated symbol from its JSON document."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    family = doc["family"]
    if family in ("power", "log"):
        # a power symbol's alpha is its a, which make_symbol accepts
        return make_symbol(family, a=doc["a"], r0=doc["r0"],
                           alpha=doc.get("alpha"),
                           scale=doc.get("scale", 1.0))
    if family == "tabulated":
        return symbol_from_table(
            doc["radii"], doc["values"], alpha=doc.get("alpha"),
            r0=doc.get("r0"), sqg_admissible=doc.get("sqg_admissible"),
            label=doc.get("label", "tabulated"))
    raise ValueError(f"cannot rebuild symbol family {family!r} from JSON")


def symbol_from_callable(fn: Callable, core_radius: float, alpha: float,
                         r0: float, C0: float,
                         sqg_admissible: bool) -> DissipationSymbol:
    """Wrap a user-supplied monotone core m(r) on (0, core_radius].

    The caller vouches for monotonicity of the core; the power tail with the
    given alpha is attached at core_radius.
    """
    tail = float(np.atleast_1d(fn(np.array([core_radius])))[0])
    return DissipationSymbol(
        family="callable", a=None, alpha=alpha, r0=r0, C0=C0,
        sqg_admissible=sqg_admissible,
        core_radius=core_radius,
        tail_coeff=tail * core_radius ** alpha,
        label="callable", _core=fn,
    )


def symbol_from_multiplier(P: "Multiplier") -> DissipationSymbol:
    """Physical-side stand-in m(r) = P(1/r) for a sub-linear multiplier,
    valid on (0, 1).

    P non-decreasing makes the core automatically non-increasing; the tail
    exponent is the multiplier's sampled growth exponent.
    """
    alpha = P.alpha
    if not 0.0 < alpha <= 1.0:
        raise ValueError("multiplier growth exponent outside (0, 1]")

    def core(r):
        return P(1.0 / np.asarray(r, dtype=float))

    zz = np.logspace(0.0, 9.0, 400)
    C0 = float(np.max(P(zz) / zz))
    m1 = float(P(np.array([1.0]))[0])
    # does the integral of m = P(1/r) over (0, 1) diverge?
    admissible = _trend_divergent(core, 1.0, 16)
    return DissipationSymbol(
        family="multiplier-derived", a=None, alpha=alpha, r0=1.0,
        C0=C0, sqg_admissible=admissible,
        core_radius=1.0, tail_coeff=m1,
        label=f"from[{P.label}]", _core=core,
    )


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    C0_measured: float
    rm_bounded: bool
    m_monotone_violations: int
    m_violation_window: tuple | None
    alpha_monotone_violations: int
    alpha_violation_window: tuple | None
    integral_divergent_analytic: bool
    integral_divergent_trend: bool | None   # None when the trend is ambiguous
    trend_consistent: bool
    partial_integrals: np.ndarray
    warnings: list

    @property
    def ok(self) -> bool:
        return self.rm_bounded and self.trend_consistent


def _trend_divergent(fn, hi: float, decades: int) -> bool:
    """Heuristic: does the integral of fn toward 0 (or toward infinity when
    read through 1/r) diverge? Geometric extrapolation of decade increments;
    fn takes an array of radii."""
    inc, _ = decade_increments(fn, hi, decades)
    label, _ = classify_decades(inc, _TREND_WINDOW, _TREND_DIV_RATIO,
                                _TREND_DIV_RATIO)
    return label == "divergent"


def check_conditions(sym: DissipationSymbol) -> ConditionReport:
    """Verify the structure conditions on a sample grid (48 radii per
    decade over [1e-9, 1e2]) and classify the integral of m near zero.

    The divergence trend is a heuristic (geometric extrapolation of
    per-decade partial integrals down to 1e-16); families within a few
    percent of criticality may trip a spurious inconsistency warning, which
    is reported, never silently dropped. The analytic flag stays
    authoritative.
    """
    grid = np.logspace(-9.0, 2.0, 48 * 11)
    warnings: list[str] = []

    mvals = sym.m(grid)
    in_r0 = grid < sym.r0
    rm = grid[in_r0] * mvals[in_r0]
    C0_measured = float(np.max(rm)) if in_r0.any() else 0.0
    rm_bounded = C0_measured <= sym.C0 * (1.0 + 1e-9)
    if not rm_bounded:
        warnings.append(
            f"r*m exceeds declared C0: measured {C0_measured:.6g} > {sym.C0:.6g}")

    def count_increases(vals):
        d = np.diff(vals)
        tol = 1e-12 * np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
        bad = np.nonzero(d > tol)[0]
        if bad.size == 0:
            return 0, None
        return int(bad.size), (float(grid[bad[0]]), float(grid[bad[-1] + 1]))

    n_mono, win_mono = count_increases(mvals)
    n_alpha, win_alpha = count_increases(grid ** sym.alpha * mvals)
    if n_mono:
        warnings.append(f"m increases on ~({win_mono[0]:.3g}, {win_mono[1]:.3g})")
    if n_alpha:
        warnings.append(
            f"r^alpha*m increases on ~({win_alpha[0]:.3g}, {win_alpha[1]:.3g})")

    partial, _ = decade_increments(sym, 1.0, _CHECK_DECADES)
    label, _ = classify_decades(partial, _TREND_WINDOW, _CHECK_CONV_RATIO,
                                _CHECK_DIV_RATIO)
    # None when the trend is ambiguous
    trend = {"divergent": True, "convergent": False}.get(label)
    consistent = trend is None or trend == sym.sqg_admissible
    if not consistent:
        warnings.append(
            "numeric divergence trend disagrees with the analytic flag "
            f"(trend divergent={trend}, analytic divergent={sym.sqg_admissible})")

    return ConditionReport(
        C0_measured=C0_measured,
        rm_bounded=rm_bounded,
        m_monotone_violations=n_mono,
        m_violation_window=win_mono,
        alpha_monotone_violations=n_alpha,
        alpha_violation_window=win_alpha,
        integral_divergent_analytic=sym.sqg_admissible,
        integral_divergent_trend=trend,
        trend_consistent=consistent,
        partial_integrals=partial,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# crossover scale
# ---------------------------------------------------------------------------

# the bisection for ln(delta): scipy.optimize.bisect's tolerances, and a
# cap on its steps (and on the bracket's); the residual every root meets
_CROSS_XTOL = 1e-15
_CROSS_RTOL = 8.9e-16
_CROSS_MAXITER = 400
_CROSS_RESIDUAL = 1e-12


def _bisect(f, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """scipy.optimize.bisect run elementwise over the brackets [xa, xb].

    ``f(x, i)`` evaluates the function of element ``i[j]`` at ``x[j]``, and
    f(xa), f(xb) must not share a sign. The iteration is scipy's: halve the
    step, move the left end while f keeps the sign it had there, stop at an
    exact zero or once the step is below xtol + rtol |x|. An element's
    iterates depend on its own bracket alone. NaN where maxiter runs out.
    """
    every = np.arange(xa.size)
    fa, fb = f(xa, every), f(xb, every)
    out = np.where(fa == 0.0, xa, np.where(fb == 0.0, xb, np.nan))
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    xa, fa, dm = xa[live], fa[live], (xb - xa)[live]
    for _ in range(_CROSS_MAXITER):
        if not live.size:
            break
        dm *= 0.5
        xm = xa + dm
        fm = f(xm, live)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < _CROSS_XTOL
                              + _CROSS_RTOL * np.abs(xm))
        if np.count_nonzero(done):
            out[live[done]] = xm[done]
            keep = ~done
            live, xa, fa, dm = live[keep], xa[keep], fa[keep], dm[keep]
    return out


def _crossover_roots(sym: DissipationSymbol, kappa: float,
                     B: np.ndarray) -> np.ndarray:
    """delta with m(delta) = B / kappa for every entry of the 1-D array B;
    NaN where no bracket exists above the float floor or the root misses
    the residual. Refuses the preconditions by name."""
    if not kappa > 0.0 or kappa >= sym.r0 / (4.0 * sym.C0):
        raise ValueError("kappa must lie in (0, r0 / (4 C0))")
    if np.any(B < 1.0):
        raise ValueError("crossover scale defined for B >= 1")
    target = B / kappa
    hi = sym.r0 / 4.0
    if np.any(sym.m(hi) >= target):
        raise ValueError("m(r0/4) >= B/kappa; preconditions violated")
    # the bracket steps down from r0/4 by 1e-3 until m exceeds the target.
    # m is read at every positive step at once; past the first step above
    # the target nothing is used, so its overflows there are not signalled
    steps = np.cumprod(np.concatenate(([hi], np.full(_CROSS_MAXITER, 1e-3))))
    steps = steps[1:][steps[1:] > 0.0]
    with np.errstate(all="ignore"):
        above = sym.m(steps)[None, :] > target[:, None]
    bracketed = above.any(axis=1)
    lo = np.where(bracketed, steps[np.argmax(above, axis=1)], np.nan)
    delta = np.full_like(target, np.nan)
    ok = np.flatnonzero(bracketed)
    if ok.size:
        ltarget = np.log(target[ok])

        def f(t, i):
            return np.log(sym.m(np.exp(t))) - ltarget[i]

        delta[ok] = np.exp(_bisect(f, np.log(lo[ok]),
                                   np.full(ok.size, math.log(hi))))
    with np.errstate(over="ignore"):  # an overflowed m misses the residual
        resid = np.abs(sym.m(np.where(np.isnan(delta), hi, delta)) - target)
    return np.where(resid <= _CROSS_RESIDUAL * target, delta, np.nan)


def crossover_scale(sym: DissipationSymbol, kappa: float, B):
    """Solve m(delta) = B / kappa by bisection in log radius, for a scalar B
    (a float comes back) or elementwise over an array of B.

    Needs kappa < r0 / (4 C0) and B >= 1, which place the root strictly
    below r0/4, inside the region where every built-in m is monotone. The
    bisection is scipy.optimize.bisect's, run on all B at once; each entry
    equals the scalar call on that B bitwise. The residual
    |m(delta) - B/kappa| is verified to 1e-12 relative.
    """
    arr = np.asarray(B, dtype=float)
    delta = _crossover_roots(sym, kappa, arr.ravel())
    if np.isnan(delta).any():
        raise RuntimeError(
            "crossover scale not resolved in float64: no bracket above the "
            "float floor, or a residual above 1e-12 relative")
    return _shaped(delta, None if arr.ndim == 0 else arr.shape)


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Multiplier:
    """Radial Fourier multiplier P(|k|) with its sampled growth exponent."""

    kind: str
    params: dict
    alpha: float            # inf of the sampled log-log slope, clipped to [0, 1]
    label: str = ""

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.abs(np.atleast_1d(z))
        out = _MULTIPLIER_FORMS[self.kind](z, self.params)
        return float(out[0]) if scalar else out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "params": self.params, "alpha": self.alpha,
            "label": self.label,
        }


def _form_power(z, p):
    s = p["s"]
    out = np.zeros_like(z)
    nz = z > 0.0
    out[nz] = z[nz] ** s
    return out


def _form_log_damped(z, p):
    a = p.get("a", 1.0)
    return z / np.log(2.0 + z) ** a


def _form_constant(z, p):
    return np.full_like(z, float(p["c"]))


def _form_loglog(z, p):
    g = p.get("g", 1.0)
    return np.log1p(np.log1p(z ** 2)) ** g


def _form_zero(z, p):
    return np.zeros_like(z)


_MULTIPLIER_FORMS = {
    "power": _form_power,
    "log-damped": _form_log_damped,
    "constant": _form_constant,
    "loglog": _form_loglog,
    "zero": _form_zero,
}


def make_multiplier(kind: str, **params) -> Multiplier:
    """Build a multiplier and sample its growth exponent.

    ``alpha`` is the smallest log-log slope of P, clipped to [0, 1],
    measured on a log grid of 600 points over [1e-3, 1e8], not assumed.
    """
    if kind not in _MULTIPLIER_FORMS:
        raise ValueError(f"unknown multiplier kind: {kind!r}")
    z = np.logspace(-3.0, 8.0, 600)
    P = _MULTIPLIER_FORMS[kind](z, params)

    # smallest log-log slope
    pos = P > 0.0
    lp = np.full_like(P, -np.inf)
    lp[pos] = np.log(P[pos])
    with np.errstate(invalid="ignore"):
        slopes = np.diff(lp) / np.diff(np.log(z))
    slopes = slopes[np.isfinite(slopes)]
    slope_inf = float(np.min(slopes)) if slopes.size else 0.0
    alpha = min(max(slope_inf, 0.0), 1.0)

    return Multiplier(
        kind=kind, params=dict(params), alpha=alpha,
        label=_default_label(kind, params),
    )


def _default_label(kind: str, params: dict) -> str:
    if not params:
        return kind
    inner = ",".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    return f"{kind}({inner})"
