"""Moduli of continuity built on top of a dissipation symbol.

Each family member joins two pieces at the crossover scale delta(B) solving
m(delta) = B / kappa: below it the slope decays from B under an explicit
curvature integral, above it the slope is gamma * m(2 xi), with m taken
through its non-increasing envelope. Construction verifies on the spot that
the slope survives to the joint at B/2 and that the joint is concave;
violated smallness conditions on kappa and gamma are rejected by name.

check_obeys measures breakthrough margins, min over tested pairs of
omega(|x - y|) - |theta(x) - theta(y)|. 1-D tests every grid pair; 2-D
stratifies pairs by separation and direction over lattice offsets and then
refines the worst pair off-lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import TWO_PI, ScalarField1D, ScalarField2D, _refuse_bad_input
from .quadrature import (gauss_legendre, log_edges, log_panel_rows,
                         panel_nodes)
from .symbols import DissipationSymbol, _crossover_roots, _shaped

DEFAULT_KAPPA = 0.1
DEFAULT_GAMMA = 0.01

_LN10 = math.log(10.0)


def quad(*args, **kwargs):
    """Lazy scipy.integrate.quad. Nothing here calls it; it stays because
    bench/layertrace.py and bench/selftest.py patch it by this name."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


class ModulusConstructionError(ValueError):
    """A construction precondition or built-in invariant failed."""


class ModulusSearchError(RuntimeError):
    """No certified modulus parameter could be produced for the data."""


# ---------------------------------------------------------------------------
# cached quadrature tables
# ---------------------------------------------------------------------------

def _partial_panels(left, right, order, integrand):
    """Gauss-Legendre integrals over [left[i], right[i]] of each array that
    ``integrand`` returns, one panel per query. Each row is reduced by
    itself (einsum, not a BLAS gemv whose blocking follows the batch), so a
    query's value is that of a batch of one."""
    x, w = gauss_legendre(order)
    half = 0.5 * (right - left)
    vals = integrand(left[:, None] + half[:, None] * (x + 1.0))
    return [half * np.einsum("ij,j->i", f, w) for f in vals]


class _CumulativeMoments:
    """Running moments of the low-part integrand on a log grid over (0, delta].

    g(eta) = (3 + ln(delta/eta)) / (eta * m(eta)); the table stores cumulative
    integrals of g and of eta * g, so both the slope (B - pref * M0) and the
    value (B*xi - pref*(xi*M0 - M1), by Fubini) come out of one structure.
    Queries land on a node plus one partial Gauss-Legendre panel, batched
    over an array of separations. A query below the table floor first
    deepens the table: the depth doubles (as often as needed) and each new
    stretch is seeded by the integral below its floor and prepended, so
    entries above the old floor never move and a query's value does not
    depend on which queries came before it. Seeds use the table's own panel
    rule on a truncated window. A subnormal separation, below the deepest
    floor, is answered by the seed at its own radius, its window clipped at
    the smallest subnormal radius.

    ``scale`` multiplies the stored integrals. Members carry scale = B so the
    slope formula reads B - [B/(2 C_alpha kappa)] * scaled_M0: certified B
    values can be so large that B^2 overflows and the raw moments underflow,
    while both rescaled factors stay comfortably representable.
    """

    _ORDER = 20
    # panels per decade of ln(eta), and the decades below delta of the
    # first table, before any deepening
    _PER_DECADE = 32
    _FLOOR_DECADES = 12
    # deepest floor: below it the panel nodes would be subnormal radii
    _S_MIN = math.log(np.finfo(float).tiny)
    # t = ln(1/eta) of the smallest subnormal radius; past it eta reads 0
    _T_MAX = -math.log(5e-324)

    def __init__(self, sym: DissipationSymbol, delta: float,
                 scale: float = 1.0):
        self._sym = sym
        self._delta = delta
        self._scale = scale
        self._log_delta = math.log(delta)
        self._decades = self._FLOOR_DECADES
        self._s, self._m0, self._m1 = self._stretch(
            self._log_delta - self._FLOOR_DECADES * _LN10, self._log_delta,
            self._FLOOR_DECADES * self._PER_DECADE)

    def _stretch(self, s_lo: float, s_hi: float, panels: int):
        # node grid on [s_lo, s_hi] and its cumulative moments, seeded by
        # the integral below s_lo
        n = panels + 1
        s = np.linspace(s_lo, s_hi, n)
        seed0, seed1 = self._seed(s_lo)
        nodes, weights = panel_nodes(s, self._ORDER)
        f0, f1 = self._integrands(nodes)
        p0 = (weights * f0).reshape(n - 1, self._ORDER).sum(axis=1)
        p1 = (weights * f1).reshape(n - 1, self._ORDER).sum(axis=1)
        return (s, np.concatenate(([seed0], seed0 + np.cumsum(p0))),
                np.concatenate(([seed1], seed1 + np.cumsum(p1))))

    def _deepen(self, s_query: float) -> None:
        # double the depth until the floor is at or below s_query
        while self._s[0] > max(s_query, self._S_MIN):
            self._decades *= 2
            s_hi = float(self._s[0])
            s_lo = max(self._log_delta - self._decades * _LN10, self._S_MIN)
            panels = max(1, math.ceil(
                self._PER_DECADE * (s_hi - s_lo) / _LN10 - 1e-6))
            s, m0, m1 = self._stretch(s_lo, s_hi, panels)
            self._s = np.concatenate((s[:-1], self._s))
            self._m0 = np.concatenate((m0[:-1], self._m0))
            self._m1 = np.concatenate((m1[:-1], self._m1))

    def _integrands(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # in the log variable: g deta -> (3 + ln delta - s) / m(e^s) ds.
        # m overflowing to +inf near the float floor is its limit (the
        # integrand vanishes there); a zero or NaN m is the floor of the
        # float range, where the table cannot be built
        eta = np.exp(s)
        with np.errstate(over="ignore", divide="ignore"):
            env = self._sym.envelope(eta)
        bad = ~(env > 0.0)
        if bad.any():
            i = int(np.argmax(np.where(bad, eta, -np.inf)))
            raise ModulusConstructionError(
                f"moment table floor underflowed float64: m({eta[i]:.6g}) "
                f"evaluates to {env[i]:.6g} below delta = {self._delta:.6g}; "
                "no representable member this high on the ladder")
        base = self._scale * (3.0 + self._log_delta - s) / env
        return base, eta * base

    def _window(self, t0: float) -> float:
        # integrands decay like e^{-alpha t} in t = ln(1/eta), so the integral
        # over t in [t0, inf) truncated here is exact to machine precision
        # (an infinite upper limit would sample radii that underflow to 0)
        hi = min(t0 + 48.0 / max(self._sym.alpha, 0.05), 700.0)
        return min(max(hi, t0 + 1.0), self._T_MAX)

    def _seed(self, s_lo: float) -> tuple[float, float]:
        # integral over (0, e^s_lo] on the table's own panels, one envelope
        # evaluation for both moments
        s_min = -self._window(-s_lo)
        panels = max(1, math.ceil(
            self._PER_DECADE * (s_lo - s_min) / _LN10 - 1e-6))
        nodes, weights = panel_nodes(np.linspace(s_min, s_lo, panels + 1),
                                     self._ORDER)
        f0, f1 = self._integrands(nodes)
        return float(weights @ f0), float(weights @ f1)

    def moments(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """(M0, M1) at every separation of the 1-D array ``xi``."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if not np.all((xi > 0.0) & (xi <= self._delta * (1.0 + 1e-12))):
            raise ValueError("low-part moment queried outside (0, delta]")
        sq = np.minimum(np.log(xi), self._log_delta)
        if xi.size and sq.min() < self._s[0]:
            self._deepen(float(sq.min()))
        s = self._s
        # subnormal separations sit below the deepest floor: each is the
        # seed at its own radius
        deep = sq < s[0]
        sq = np.maximum(sq, s[0])
        i = np.minimum(np.searchsorted(s, sq, side="right") - 1, len(s) - 2)
        m0, m1 = _partial_panels(s[i], sq, self._ORDER, self._integrands)
        m0 += self._m0[i]
        m1 += self._m1[i]
        for k in np.flatnonzero(deep):
            m0[k], m1[k] = self._seed(float(np.log(xi[k])))
        return m0, m1


class _EnvelopeIntegral:
    """Running integral of the envelope of m from a fixed left endpoint.

    Log-spaced Gauss-Legendre panels with the envelope's kink radii pinned
    as panel edges; the grid extends itself geometrically on demand.
    """

    _ORDER = 20
    _PER_DECADE = 16

    def __init__(self, sym: DissipationSymbol, lo: float, hi: float):
        self._sym = sym
        self._edges = np.array([lo])
        self._cum = np.array([0.0])
        self._grow(hi)

    def _grow(self, hi: float) -> None:
        lo = float(self._edges[-1])
        if hi <= lo:
            return
        edges = log_edges(lo, hi, self._PER_DECADE, self._sym.breakpoints)
        s_edges = np.log(edges)
        nodes, weights = panel_nodes(s_edges, self._ORDER)
        eta = np.exp(nodes)
        vals = (weights * eta * self._sym.envelope(eta)).reshape(
            len(edges) - 1, self._ORDER).sum(axis=1)
        self._edges = np.concatenate((self._edges, edges[1:]))
        self._cum = np.concatenate(
            (self._cum, self._cum[-1] + np.cumsum(vals)))

    def value(self, v) -> np.ndarray:
        """Integral from the origin to every point of the 1-D array ``v``."""
        v = np.asarray(v, dtype=float)
        if np.any(v < self._edges[0] * (1.0 - 1e-12)):
            raise ValueError("envelope integral queried left of its origin")
        v = np.maximum(v, self._edges[0])
        # double the top edge until it covers the query, so the table's
        # edges depend on the member alone, never on the queries so far
        while v.size and v.max() > self._edges[-1]:
            self._grow(2.0 * float(self._edges[-1]))
        edges = self._edges
        i = np.minimum(np.searchsorted(edges, v, side="right") - 1,
                       len(edges) - 2)

        def integrand(s):
            eta = np.exp(s)
            return (eta * self._sym.envelope(eta),)

        (part,) = _partial_panels(np.log(edges[i]), np.log(v), self._ORDER,
                                  integrand)
        return self._cum[i] + part


# ---------------------------------------------------------------------------
# the modulus family
# ---------------------------------------------------------------------------

def _separations(xi) -> tuple[np.ndarray, tuple | None]:
    # flat float array of separations, and the shape to restore (None for
    # a scalar argument)
    arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("modulus evaluated at a non-finite separation")
    return arr.ravel(), (None if arr.ndim == 0 else arr.shape)


# separations per chunk when a member evaluates a batch: each chunk's
# (chunk, 20) table-panel arrays stay at 80 kB however large the batch
_CHUNK_POINTS = 2 ** 9


def _in_chunks(fn, x: np.ndarray) -> np.ndarray:
    """fn over the flat array x, _CHUNK_POINTS separations at a time; fn is
    pointwise, so the chunking never changes a value."""
    out = np.empty_like(x)
    for a in range(0, x.size, _CHUNK_POINTS):
        out[a:a + _CHUNK_POINTS] = fn(x[a:a + _CHUNK_POINTS])
    return out


_CONTRACT = ("a modulus is a ModulusMember, an object with an omega method "
             "or an array-native callable, whose omega takes an array of "
             "separations and returns an array of its shape")


def _omega_fn(modulus) -> Callable:
    """The omega of a modulus: its ``omega`` method, or the modulus itself
    when it is an array-native callable."""
    omega = getattr(modulus, "omega", modulus)
    if not callable(omega):
        raise TypeError(f"cannot evaluate {type(modulus).__name__}: "
                        f"{_CONTRACT}")
    return omega


def _omega_array(omega: Callable, xi) -> np.ndarray:
    """omega on an array of separations, in one call. A callable that
    raises TypeError on the array, or returns another shape, is refused."""
    arr = np.asarray(xi, dtype=float)
    name = getattr(omega, "__qualname__", type(omega).__name__)
    try:
        out = np.asarray(omega(arr), dtype=float)
    except TypeError as err:
        raise TypeError(f"{name} is not array-native ({err}); "
                        f"{_CONTRACT}") from err
    if out.shape != arr.shape:
        raise TypeError(f"{name} is not array-native: it returned shape "
                        f"{out.shape} for separations of shape {arr.shape}; "
                        f"{_CONTRACT}")
    return out


@dataclass(eq=False)
class ModulusMember:
    """One modulus of the two-piece family; immutable after construction."""

    sym: DissipationSymbol
    B: float
    kappa: float
    gamma: float
    delta: float             # crossover scale, m(delta) = B / kappa
    C_alpha: float           # (1 + 3 alpha) / alpha^2, low-part normalizer
    doubling_bound: float    # 1 + (3/2)^-alpha, claimed for xi >= delta
    slope_at_delta_left: float
    omega_at_delta: float
    # B / (2 C_alpha kappa); pairs with B-rescaled moments so that B^2 is
    # never formed explicitly
    _slope_factor: float = field(repr=False, default=0.0)
    _low: _CumulativeMoments = field(repr=False, default=None)
    _high: _EnvelopeIntegral = field(repr=False, default=None)
    # the criteria's evaluation of the most recent separation grid, kept by
    # certificates._grid_evaluation for the next criterion on that grid
    _grid_memo: tuple = field(init=False, repr=False, default=None)

    def omega(self, xi):
        x, shape = _separations(xi)
        if np.any(x < 0.0):
            raise ValueError("modulus evaluated at negative separation")
        return _shaped(_in_chunks(self._omega_chunk, x), shape)

    def _omega_chunk(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        low = (x > 0.0) & (x <= self.delta)
        if low.any():
            xl = x[low]
            m0, m1 = self._low.moments(xl)
            out[low] = self.B * xl - self._slope_factor * (xl * m0 - m1)
        high = x > self.delta
        if high.any():
            out[high] = (self.omega_at_delta
                         + 0.5 * self.gamma * self._high.value(2.0 * x[high]))
        return out

    def omega_prime(self, xi):
        x, shape = _separations(xi)
        if not np.all(x > 0.0):
            raise ValueError("slope evaluated at non-positive separation")
        return _shaped(_in_chunks(self._slope_chunk, x), shape)

    def _slope_chunk(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        low = x < self.delta
        if low.any():
            m0, _ = self._low.moments(x[low])
            out[low] = self.B - self._slope_factor * m0
        if not low.all():
            out[~low] = self.gamma * self.sym.envelope(2.0 * x[~low])
        return out

    def omega_second(self, xi):
        x, shape = _separations(xi)
        if not np.all(x > 0.0):
            raise ValueError("curvature evaluated at non-positive separation")
        out = np.empty_like(x)
        low = x <= self.delta
        if low.any():
            xl = x[low]
            m = self.sym.envelope(xl)
            with np.errstate(over="ignore"):  # curvature beyond float range
                out[low] = -self._slope_factor * (
                    self.B * (3.0 + np.log(self.delta / xl)) / (xl * m))
        if not low.all():
            # differentiate gamma * env(2 xi); the envelope may only have
            # one-sided slopes at its kinks, so central differences
            xh = x[~low]
            h = 1e-6 * xh
            env = self.sym.envelope(2.0 * np.concatenate((xh - h, xh + h)))
            lo, hi = env[:xh.size], env[xh.size:]
            out[~low] = self.gamma * (hi - lo) / (2.0 * h)
        return _shaped(out, shape)

    def evaluate(self, xi: float) -> tuple[float, float, float]:
        return self.omega(xi), self.omega_prime(xi), self.omega_second(xi)

    def to_dict(self) -> dict:
        return {"B": self.B, "kappa": self.kappa, "gamma": self.gamma,
                "deltaB": self.delta, "symbol": self.sym.to_dict()}


# a member is built only where its crossover scale lies above this
_DELTA_FLOOR = 1e-300


def build_modulus(sym: DissipationSymbol, kappa: float, gamma: float,
                  B: float) -> ModulusMember:
    """Construct a family member and verify its built-in invariants.

    Fails loudly, naming the violated inequality, if the smallness
    conditions do not hold or if the constructed slope dips below B/2
    before the crossover scale.
    """
    if not B >= 1.0:
        raise ModulusConstructionError(f"requires B >= 1, got B = {B}")
    if not gamma > 0.0:
        raise ModulusConstructionError(f"requires gamma > 0, got {gamma}")
    if not 2.0 * gamma <= kappa:
        raise ModulusConstructionError(
            f"requires 2*gamma <= kappa, got gamma = {gamma}, kappa = {kappa}")
    bound = sym.r0 / (4.0 * sym.C0)
    if not 0.0 < kappa < bound:
        raise ModulusConstructionError(
            f"requires kappa < r0/(4*C0) = {bound:.6g}, got kappa = {kappa}")

    # NaN where the root is not resolved, which the refusal below names
    delta = float(_crossover_roots(sym, kappa, np.array([float(B)]))[0])
    if not delta > _DELTA_FLOOR:
        what = "not resolved in" if math.isnan(delta) else "underflowed"
        raise ModulusConstructionError(
            f"crossover scale m(delta) = B/kappa {what} float64 at "
            f"B = {B:.6g}; no representable member this high on the ladder")
    return _member_at(sym, kappa, gamma, B, delta)


def _member_at(sym: DissipationSymbol, kappa: float, gamma: float, B: float,
               delta: float) -> ModulusMember:
    """The member of ``build_modulus`` from its solved crossover scale
    delta > _DELTA_FLOOR, with the parameters already validated; checks
    the slope and the joint."""
    alpha = sym.alpha
    C_alpha = (1.0 + 3.0 * alpha) / alpha ** 2
    slope_factor = B / (2.0 * C_alpha * kappa)
    low = _CumulativeMoments(sym, delta, scale=B)

    m0, m1 = low.moments(delta)
    m0_d, m1_d = float(m0[0]), float(m1[0])
    slope_left = B - slope_factor * m0_d
    if slope_left < 0.5 * B * (1.0 - 1e-8):
        raise ModulusConstructionError(
            f"slope at the crossover came out {slope_left:.6g} < B/2 = "
            f"{0.5 * B:.6g}; the curvature integral ate more than half the "
            "initial slope")
    omega_delta = B * delta - slope_factor * (delta * m0_d - m1_d)

    slope_right = gamma * float(sym.envelope(2.0 * delta))
    if slope_right > slope_left * (1.0 + 1e-10):
        raise ModulusConstructionError(
            f"joint not concave: slope jumps {slope_left:.6g} -> "
            f"{slope_right:.6g} at delta(B)")

    high = _EnvelopeIntegral(sym, 2.0 * delta, max(16.0, 32.0 * delta))
    return ModulusMember(
        sym=sym, B=float(B), kappa=kappa, gamma=gamma, delta=delta,
        C_alpha=C_alpha, doubling_bound=1.0 + 1.5 ** (-alpha),
        slope_at_delta_left=slope_left, omega_at_delta=omega_delta,
        _slope_factor=slope_factor, _low=low, _high=high)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float            # raw worst margin; >= 0 means satisfied
    scale: float             # size against which the tolerance was applied
    at: float | None = None  # xi where the worst margin occurred
    note: str = ""


@dataclass
class ValidationReport:
    label: str
    checks: list[CheckResult]
    grid: np.ndarray = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _sampled_second(omega: Callable[[float], float], xi: float,
                    h_rel: float = 3e-2) -> float:
    # wide relative step: the curvature varies logarithmically, and a narrow
    # one runs into cancellation noise for members with tiny crossover scales
    h = h_rel * xi
    return (omega(xi + h) - 2.0 * omega(xi) + omega(xi - h)) / h ** 2


def validate_modulus(mem) -> ValidationReport:
    """Check every property the preservation argument asks of a modulus.

    ``mem`` is a constructed member, or any other modulus in the sense of
    ``_omega_fn`` (adversarial inputs); for those the construction-specific
    checks are skipped and derivatives come from sampled differences.
    The checks read 24 separations per decade from 1e-6 delta to 1e3 and
    allow a relative tolerance of 1e-8. Failures are report entries, never
    exceptions.
    """
    is_member = isinstance(mem, ModulusMember)
    omega = _omega_fn(mem)
    if is_member:
        delta = mem.delta
        B = mem.B
        label = (f"B={mem.B:g} kappa={mem.kappa:g} gamma={mem.gamma:g} "
                 f"on {mem.sym.label}")
    else:
        delta = 1e-3
        B = None
        label = getattr(mem, "__name__", "callable")
    tol = 1e-8
    lo = 1e-6 * delta
    xi = np.geomspace(lo, 1e3, int(math.ceil(24 * math.log10(1e3 / lo))) + 1)

    w = _omega_array(omega, xi)
    checks: list[CheckResult] = []

    if B is None:
        B = omega(xi[0] * 1e-2) / (xi[0] * 1e-2)  # sampled initial slope

    # vanishing at 0 and monotonicity
    checks.append(CheckResult(
        "vanishes_at_zero", w[0] <= max(2.0 * B * xi[0], tol), float(w[0]),
        B * xi[0], at=float(xi[0])))
    slopes = np.diff(w) / np.diff(xi)
    i = int(np.argmin(slopes))
    checks.append(CheckResult(
        "non_decreasing", bool(slopes[i] >= -tol * B),
        float(slopes[i]), B, at=float(xi[i])))

    # concavity via chord slopes (robust on an uneven grid)
    dec = slopes[:-1] - slopes[1:]
    j = int(np.argmin(dec))
    checks.append(CheckResult(
        "concave", bool(dec[j] >= -tol * B), float(dec[j]), B,
        at=float(xi[j + 1])))

    # initial slope and curvature blow-up from sampled differences
    xi_a = xi[0]
    slope0 = (omega(xi_a * (1.0 + 1e-4)) - omega(xi_a)) / (xi_a * 1e-4)
    checks.append(CheckResult(
        "initial_slope", abs(slope0 - B) <= 1e-3 * B, float(B - abs(slope0 - B)),
        B, at=float(xi_a), note=f"omega'(0+) ~ {slope0:.6g} vs B = {B:.6g}"))
    d2_small = _sampled_second(omega, min(1e-6 * delta, xi[0] * 10.0))
    d2_mid = _sampled_second(omega, 1e-2 * delta)
    diverges = d2_small < 0.0 and d2_mid < 0.0 and d2_small <= 2.0 * d2_mid
    checks.append(CheckResult(
        "curvature_blows_up", bool(diverges), float(d2_mid - d2_small),
        max(abs(d2_mid), tol),
        note=f"omega'' sampled {d2_small:.4g} (small xi) vs {d2_mid:.4g}"))

    # linear-cap, crossover and doubling checks need the construction
    if is_member:
        below = xi[xi <= delta]
        if below.size:
            gap = B * below - omega(below)
            k = int(np.argmin(gap))
            checks.append(CheckResult(
                "below_B_xi", bool(gap[k] >= -tol * B * delta), float(gap[k]),
                B * delta, at=float(below[k])))
        checks.append(CheckResult(
            "slope_at_crossover", mem.slope_at_delta_left >= 0.5 * B * (1.0 - tol),
            float(mem.slope_at_delta_left - 0.5 * B), B, at=float(delta)))
        checks.append(CheckResult(
            "value_at_crossover", mem.omega_at_delta >= 0.5 * delta * B * (1.0 - tol),
            float(mem.omega_at_delta - 0.5 * delta * B), delta * B,
            at=float(delta)))
        above = xi[xi >= delta]
        wa = omega(above)
        w2 = omega(2.0 * above)
        dmarg = mem.doubling_bound * wa - w2
        k = int(np.argmin(dmarg / wa))
        checks.append(CheckResult(
            "doubling", bool(dmarg[k] >= -tol * wa[k]), float(dmarg[k]),
            float(wa[k]), at=float(above[k]),
            note=f"bound {mem.doubling_bound:.6g}"))

    return ValidationReport(label=label, checks=checks, grid=xi)


# ---------------------------------------------------------------------------
# obedience
# ---------------------------------------------------------------------------

@dataclass
class ObedienceReport:
    """Breakthrough margins of a grid field against a modulus.

    One stratum is one lattice offset v (a lag in 1-D): ``separations``
    holds |v|, ``omegas`` omega(|v|), ``increments`` the largest
    |theta(x + v) - theta(x)| over the grid and ``margins`` omega minus
    that increment, four arrays of one length in stratum order. ``margin``
    is the first smallest of them below +inf (+inf when there is none),
    reached at ``worst_pair`` = (x, x + v), ``worst_separation`` and
    ``worst_increment``. A ``refined`` report moved these four off the
    lattice; the columns stay the lattice's. ``records.to_dict`` gives
    each column as a list.
    """

    margin: float
    worst_pair: tuple          # ((x...), (x + v...)) of the arg-min
    worst_separation: float
    worst_increment: float
    separations: np.ndarray
    omegas: np.ndarray
    increments: np.ndarray
    margins: np.ndarray
    refined: bool = False

    @property
    def obeys(self) -> bool:
        return self.margin > 0.0


def check_obeys(fld, mem) -> ObedienceReport:
    """Breakthrough margin of a field against a modulus.

    ``mem`` is a modulus in the sense of ``_omega_fn``: a ModulusMember,
    an object with an ``omega`` method, or an array-native callable. A 1-D
    field tests every grid pair, one stratum per lag 1..N/2; a 2-D one
    runs a refined ``StratifiedPairSearch`` with its default strata. Both
    scan through ``_scan_report``. A field with a non-finite value is
    refused: its increments bound nothing.
    """
    if isinstance(fld, ScalarField1D):
        lags = np.arange(1, fld.N // 2 + 1)
        seps = lags * (TWO_PI / fld.N)
        return _scan_report(fld.values, lags[:, None], seps,
                            _omega_array(_omega_fn(mem), seps))
    if isinstance(fld, ScalarField2D):
        return StratifiedPairSearch(fld.N, _omega_fn(mem)).run(fld)
    raise TypeError(f"unsupported field type: {type(fld).__name__}")


def _scan_report(v: np.ndarray, offsets: np.ndarray, separations: np.ndarray,
                 omegas: np.ndarray) -> ObedienceReport:
    """Lattice ObedienceReport of the periodic grid field ``v`` (1-D or
    2-D, spacing 2 pi / N) over the strata ``offsets``, one lattice offset
    per row and one column per axis, with their separations and omega
    values. The worst stratum is the first smallest margin below +inf, the
    one a running strict '<' from +inf keeps; with none, the first stratum
    stands in at margin +inf.
    """
    _refuse_bad_input("field", v, nonnegative=False)
    h = TWO_PI / v.shape[0]
    js, increments = _increment_scan(v, offsets)
    margins = omegas - increments
    below = margins < math.inf
    k = int(np.argmin(np.where(below, margins, math.inf)))
    margin = margins[k] if below[k] else math.inf
    x = h * np.array(np.unravel_index(js[k], v.shape))
    return ObedienceReport(
        margin=float(margin),
        worst_pair=(tuple(x), tuple(x + offsets[k] * h)),
        worst_separation=float(separations[k]),
        worst_increment=float(omegas[k] - margin),
        separations=separations, omegas=omegas, increments=increments,
        margins=margins)


def _increment_scan(v: np.ndarray, shifts: np.ndarray):
    """Largest increment of a periodic 1-D or 2-D grid field at each
    shift: for every row of ``shifts`` (one column per axis of ``v``), the
    flat index j and the value of max |v - roll(v, -shift)|, bitwise as
    ``np.argmax(np.abs(...))`` gives them.

    A 1-D field is scanned as a single row, its lag l as the shift (0, l).
    The field is tiled once, two periods per axis, and each shift is read
    as a view of the tiling, so no shifted copy is made. The argmax and
    argmin of the signed difference stand in for its abs: where the two
    magnitudes tie, the smaller flat index is the first maximum of abs.
    """
    shifts = np.pad(shifts, ((0, 0), (2 - v.ndim, 0)))
    v = np.atleast_2d(v)
    n0, n1 = v.shape
    tiled = np.tile(v, (2, 2))
    diff = np.empty((n0, n1))
    flat = diff.reshape(-1)
    js = np.empty(len(shifts), dtype=np.intp)
    picked = np.empty(len(shifts))
    for k, (a, b) in enumerate(np.mod(shifts, (n0, n1)).tolist()):
        np.subtract(v, tiled[a:a + n0, b:b + n1], out=diff)
        hi, lo = int(flat.argmax()), int(flat.argmin())
        top, bottom = flat.item(hi), -flat.item(lo)
        j = hi if top > bottom or (top == bottom and hi < lo) else lo
        js[k], picked[k] = j, flat.item(j)
    return js, np.abs(picked)


class StratifiedPairSearch:
    """Reusable 2-D pair search over lattice offsets.

    Offsets are the distinct lattice roundings of ``directions`` angles times
    log-spaced radii (torus metric, |v| up to pi*sqrt(2)); omega is evaluated
    once per distinct separation and cached, so repeated runs over an
    evolving field only pay for the increment scans. A run tiles the field
    once and scans each stratum on a view of the tiling: one subtraction
    into a reused buffer and the argmax and argmin of the signed increment,
    no shifted copy and no abs (``_increment_scan``). It reports through
    ``_scan_report``, as the 1-D ``check_obeys`` does: one column entry per
    stratum swept, in the order of ``subset`` (all strata, by separation,
    when it is None). ``run`` can sweep a subset of strata (for cheap
    in-loop monitoring with a warm start) and refines the worst pair
    continuously off-lattice.
    """

    def __init__(self, N: int, omega: Callable[[float], float],
                 directions: int = 64, separations_per_decade: int = 12):
        self.N = N
        self.omega = omega
        h = TWO_PI / N
        smax = math.pi * math.sqrt(2.0)
        n_sep = max(2, int(math.ceil(
            separations_per_decade * math.log10(smax / h))) + 1)
        radii = np.geomspace(h, smax, n_sep)
        angles = np.pi * np.arange(directions) / directions
        seen = {}
        for s in radii:
            for phi in angles:
                dx = int(round(s * math.cos(phi) / h))
                dy = int(round(s * math.sin(phi) / h))
                if dx == 0 and dy == 0:
                    continue
                dx = (dx + N // 2) % N - N // 2
                dy = (dy + N // 2) % N - N // 2
                seen[(dx, dy)] = True
        offs = np.array(sorted(seen))
        sep = h * np.hypot(np.minimum(np.abs(offs[:, 0]), N - np.abs(offs[:, 0])),
                           np.minimum(np.abs(offs[:, 1]), N - np.abs(offs[:, 1])))
        order = np.argsort(sep)
        self.offsets = offs[order]
        self.separations = sep[order]
        self.omegas = _omega_array(omega, self.separations)

    def run(self, fld: ScalarField2D, subset: np.ndarray | None = None,
            refine: bool = True) -> ObedienceReport:
        if fld.N != self.N:
            raise ValueError("field resolution does not match the search grid")
        idx = np.arange(len(self.offsets)) if subset is None else subset
        rep = _scan_report(fld.values, self.offsets[idx],
                           self.separations[idx], self.omegas[idx])
        if refine:
            self._refine(fld, rep)
        return rep

    def _refine(self, fld, rep):
        # continuous descent of omega(|v|) - |theta(x+v) - theta(x)| around
        # the worst lattice pair of rep, moving its worst fields in place:
        # a 5x5 grid of base points x times a 5x5 grid of offsets v,
        # shrinking by 4 per round. Per axis, x + v takes the 25 sums of a
        # base and an offset coordinate, so theta is read on a 5x5 base
        # lattice and a 25x25 sum lattice, and omega once per offset;
        # margins[iy, ix, jy, jx] pairs x = (bx[ix], by[iy]) with
        # v = (vx[jx], vy[jy]).
        h = TWO_PI / self.N
        margin = rep.margin
        x = np.asarray(rep.worst_pair[0], dtype=float)
        vvec = np.asarray(rep.worst_pair[1], dtype=float) - x
        span = h
        steps = np.linspace(-1.0, 1.0, 5)
        n = steps.size
        for _ in range(3):
            dxs = span * steps
            bx, by = x[0] + dxs, x[1] + dxs
            vx, vy = vvec[0] + dxs, vvec[1] + dxs
            norms = np.hypot(vx[None, :], vy[:, None])
            keep = norms > h / 8.0  # below grid scale the slope check owns it
            if not keep.any():
                break
            th_x = fld.evaluate_on_grid(bx, by).T
            th_y = fld.evaluate_on_grid(
                (bx[:, None] + vx[None, :]).ravel(),
                (by[:, None] + vy[None, :]).ravel(),
            ).reshape(n, n, n, n).transpose(2, 0, 3, 1)
            incs = np.abs(th_y - th_x[:, :, None, None])
            oms = np.full(norms.shape, np.inf)
            oms[keep] = _omega_array(self.omega, norms[keep])
            margins = oms - incs
            best = int(np.argmin(margins))
            if margins.flat[best] < margin:
                iy, ix, jy, jx = np.unravel_index(best, margins.shape)
                margin = float(margins.flat[best])
                x = np.array([bx[ix], by[iy]])
                vvec = np.array([vx[jx], vy[jy]])
                rep.worst_separation = float(norms[jy, jx])
                rep.worst_increment = float(incs.flat[best])
            span /= 4.0
        rep.margin = margin
        rep.worst_pair = (tuple(x), tuple(x + vvec))
        rep.refined = True


# ---------------------------------------------------------------------------
# fitting a modulus to data
# ---------------------------------------------------------------------------

# doubling-ladder ceiling: keeps delta(B) = O(kappa / B) clear of the
# subnormal range, where the moment quadrature grid would underflow
_LADDER_CAP = 1000
# rungs whose crossover scales and coverage bounds are found together
_SCREEN_BLOCK = 64
# relative slack on the coverage bound: a rung is built unless the bound,
# raised by this much, misses the data; it absorbs the rounding of the two
# quadratures of the same envelope integral
_SCREEN_SLACK = 1e-9


def _coverage_bounds(sym: DissipationSymbol, kappa: float, gamma: float,
                     a: float, rungs: int):
    """(delta_B, U_B) for B = 2, 4, ..., 2^(rungs - 1), in order, with
    U_B = B delta_B + (gamma/2) * integral of env over [2 min(delta_B, a), 2a].

    The rung intervals are nested, so the integral is a running sum of the
    increments over [2 delta_k, 2 delta_(k-1)]. Each block of rungs gets its
    deltas from one crossover solve and its increments from one batch of
    log panels, on the rule of the member's envelope table. delta is NaN
    where the solve fails, and U is NaN wherever delta is not above
    _DELTA_FLOOR: the build of such a rung refuses.
    """
    top = a       # 2 * top is where the next increment ends
    total = 0.0   # integral of env over [2 min(delta, a), 2a] so far
    for first in range(1, rungs, _SCREEN_BLOCK):
        Bs = np.ldexp(1.0, np.arange(first, min(first + _SCREEN_BLOCK, rungs)))
        delta = _crossover_roots(sym, kappa, Bs)
        ok = np.flatnonzero(delta > _DELTA_FLOOR)
        lo = np.minimum(delta[ok], a)
        hi = np.concatenate(([top], lo[:-1]))
        step = np.zeros(lo.size)
        live = lo < hi
        if live.any():
            rows = log_panel_rows(2.0 * lo[live], 2.0 * hi[live],
                                  _EnvelopeIntegral._PER_DECADE,
                                  _EnvelopeIntegral._ORDER, sym.breakpoints)
            step[live] = rows.integrate(sym.envelope(rows.nodes))
        run = total + np.cumsum(step)
        bound = np.full(Bs.size, np.nan)
        bound[ok] = Bs[ok] * delta[ok] + 0.5 * gamma * run
        if ok.size:
            top, total = lo[-1], run[-1]
        yield from zip(delta.tolist(), bound.tolist())


def find_B_for_data(fld, sym: DissipationSymbol,
                    kappa: float = DEFAULT_KAPPA,
                    gamma: float = DEFAULT_GAMMA,
                    max_doublings: int = _LADDER_CAP) -> float:
    """Smallest B in a doubling ladder whose modulus the field obeys.

    The candidate must cover the data (omega_B(a) >= 2*sup|theta| at
    a = 2*sup|theta| / sup|grad theta|, with a past the crossover) and is
    then certified by check_obeys before being returned.

    Rungs are screened before they are built. Past the crossover,
    omega_B(a) = omega_B(delta_B) + (gamma/2) * integral of env over
    [2 delta_B, 2a], and omega_B(delta_B) <= B delta_B because the low
    part's moments are nonnegative. So U_B = B delta_B + (gamma/2) * that
    integral bounds the coverage from above, and needs only the crossover
    scale (``_coverage_bounds``). A rung is built only where a > delta_B
    and U_B (1 + _SCREEN_SLACK) >= 2 sup|theta|. Every rung the screen
    skips would fail coverage, so the ladder returns the B it returned
    when it built every rung, with about ten builds per call instead of
    one per rung. A built rung takes the crossover scale the screen
    solved, which equals ``crossover_scale`` on that B bitwise. The first
    rung goes through ``build_modulus``, and so does any rung whose
    crossover scale leaves the float range: their refusals read as the
    build's. The refusals report the best coverage margin met, or its
    bound on a skipped rung.

    Coverage of the tail grows like (gamma/2) times the envelope integral,
    which for the critical symbol means logarithmically in B: certified
    values are astronomically large yet exactly representable. Data whose
    sup norm exceeds roughly gamma/4 times the float64 exponent range has
    no representable certificate at all; raising gamma (admissible up to
    kappa/2) is the only way to certify more data per rung.
    """
    if max_doublings < 1:
        raise ValueError("the ladder needs max_doublings >= 1 (B = 1)")
    unorm = fld.linf()
    gnorm = fld.grad_linf()
    if unorm == 0.0 or gnorm == 0.0:
        # constant fields have no increments; the base member certifies
        return 1.0
    a = 2.0 * unorm / gnorm
    need = 2.0 * unorm
    B = 1.0
    best_cover = -math.inf
    rungs = min(max_doublings, _LADDER_CAP)
    bounds = _coverage_bounds(sym, kappa, gamma, a, rungs)
    for rung in range(rungs):
        if rung:
            delta, bound = next(bounds)
            if delta > _DELTA_FLOOR and (
                    a <= delta or bound * (1.0 + _SCREEN_SLACK) < need):
                best_cover = max(best_cover, bound - need)
                B *= 2.0
                continue
        try:
            mem = (_member_at(sym, kappa, gamma, B, delta)
                   if rung and delta > _DELTA_FLOOR
                   else build_modulus(sym, kappa, gamma, B))
        except ModulusConstructionError as err:
            raise ModulusSearchError(
                f"ladder stopped at B = {B:.6g} without a certificate "
                f"(best coverage margin at most {best_cover:.6g}): "
                f"{err}") from err
        cover = mem.omega(max(a, mem.delta * (1.0 + 1e-12))) - need
        best_cover = max(best_cover, cover)
        if a > mem.delta and cover >= 0.0:
            if check_obeys(fld, mem).margin > 0.0:
                return B
        B *= 2.0
    if sym.sqg_admissible:
        hint = (" (coverage grows slowly for admissible symbols; gamma up "
                "to kappa/2 certifies more data per rung)")
    else:
        hint = (" (symbol is not sqg_admissible: omega_B(a) saturates at a "
                "finite supremum, so large data can be uncoverable)")
    raise ModulusSearchError(
        f"no certified B up to 2^{rungs - 1}; best coverage margin at most "
        f"{best_cover:.6g}{hint}")
