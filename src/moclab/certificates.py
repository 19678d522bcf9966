"""Advective and dissipative certificates for moduli of continuity.

The breakthrough argument compares, at a candidate separation xi, an
advective bound on velocity increments against a dissipative lower bound.
This module evaluates the two advective functionals (the Riesz-increment
bound and its flow-aligned variant), the dissipative functional, and
combines them into signed per-separation criterion margins for the scalar
(Burgers) and Riesz-velocity (SQG) cases. A modulus is a family member,
any object with an ``omega`` method, or an array-native callable
(``moduli._omega_fn``).

Normalization: the universal increment constant A enters every functional
only as an outer factor, so all values are stored A-free. Advective values
are returned divided by A, dissipative values multiplied by A (the raw
two-piece integral); criteria reinsert the caller's A.

Quadrature strategy: in the log of the integration variable every integrand
here is piecewise smooth, with kinks only at the crossover scale of the
modulus and the breakpoint radii of the symbol, so composite Gauss-Legendre
panels with those points pinned as edges converge spectrally. Improper
tails are never truncated blindly: for family members the tail reduces to
the symbol's envelope integral, which is an exact power law beyond its core,
and for generic callables the tail is extrapolated from the measured chord
exponent, with divergence reported when the exponent does not settle below
one.

Every functional works on an array of separations. It builds the panels of
all of them in one pass (``log_panel_rows``), evaluates each set of modulus
arguments with one ``omega`` call and sums each separation's row on its
own, so a value is bitwise that of a one-point call; the public scalar
functionals are that one-point case. Only the callables' dyadic tail
windows, whose stopping rule is per separation, run one separation at a
time.

The two criteria weigh different advective terms against the same
dissipation, so they share one evaluation of a grid: omega, omega', the
kinks and the dissipation with its error, computed once per family member,
grid and quadrature rule. A member keeps the evaluation of its most recent
grid, and a second criterion on that grid reads it instead of recomputing;
members are immutable and every value is a function of the point alone, so
the reuse is exact. Other moduli recompute on every call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .moduli import ModulusMember, _omega_array, _omega_fn, _separations
from .moduli import build_modulus  # bench/selftest.py asserts this alias
from .quadrature import log_panel_nodes, log_panel_rows
from .symbols import DissipationSymbol, _shaped

DEFAULT_A = 2.0
XI_GRID_LO = 1e-6
XI_GRID_HI = 1e3
XI_POINTS_PER_DECADE = 64
# separations per block of a member's closed-form far rule (320 nodes each)
_FAR_BLOCK_ROWS = 32
# panels per decade and Gauss-Legendre order of the dissipation quadrature
_DISS_PER_DECADE = 2.0
_DISS_ORDER = 12


class TailDivergenceError(ValueError):
    """Advective tail integral diverges (omega grows linearly or worse)."""


def default_xi_grid(lo: float = XI_GRID_LO, hi: float = XI_GRID_HI,
                    per_decade: int = XI_POINTS_PER_DECADE) -> np.ndarray:
    n = int(round(per_decade * math.log10(hi / lo)))
    return np.geomspace(lo, hi, n + 1)


# ---------------------------------------------------------------------------
# shared quadrature plumbing
# ---------------------------------------------------------------------------

def _omega_kinks(omega) -> list[float]:
    """Argument values where a modulus may lose smoothness."""
    if isinstance(omega, ModulusMember):
        return [omega.delta] + [0.5 * p for p in omega.sym.breakpoints]
    delta = getattr(omega, "delta", math.inf)
    kinks = [] if math.isinf(delta) else [delta]
    return kinks + list(getattr(omega, "kinks", ()))


def _positive(xi, what: str) -> tuple[np.ndarray, tuple | None]:
    # flat positive separations and the shape to restore (None for a scalar)
    x, shape = _separations(xi)
    if not np.all(x > 0.0):
        raise ValueError(f"{what} evaluated at non-positive separation")
    return x, shape


def _symbol_of(omega, sym: DissipationSymbol | None) -> DissipationSymbol:
    if sym is not None:
        return sym
    if isinstance(omega, ModulusMember):
        return omega.sym
    raise ValueError("dissipation needs a symbol for a callable omega")


def _kink_candidates(kinks: Sequence[float], xi: np.ndarray,
                     signs: Sequence[tuple[float, float]],
                     core: float) -> np.ndarray:
    # per-separation panel edges in eta: (s0 * k + s1 * xi) / 2 for every
    # modulus kink k and each sign pair, plus half the symbol's core radius
    k = np.asarray(kinks, dtype=float)[None, :]
    x = xi[:, None]
    return np.concatenate([(s0 * k + s1 * x) / 2.0 for s0, s1 in signs]
                          + [np.full((xi.size, 1), 0.5 * core)], axis=1)


# ---------------------------------------------------------------------------
# advective certificates
# ---------------------------------------------------------------------------

def _callable_tail_over_eta2(omega, xi: float, kinks: Sequence[float],
                             order: int) -> tuple[float, float]:
    """(integral of omega/eta^2 over (xi, inf), error) for a generic callable.

    Dyadic windows are summed until they stop contributing; the remainder is
    extrapolated from the chord growth exponent of omega over the last
    window. An exponent that stays at or above one marks a divergent tail.
    The stopping rule is per separation, so this runs one xi at a time.
    """
    total = 0.0
    lo = xi
    q = 1.0
    tiny = 1e-300
    for j in range(200):
        hi = 2.0 * lo
        eta, w = log_panel_nodes(lo, hi, 4.0, order, kinks)
        v = float(np.dot(w, _omega_array(omega, eta) / eta ** 2))
        total += v
        q = math.log2(max(float(omega(hi)), tiny) / max(float(omega(lo)), tiny))
        if j >= 60 and q >= 0.995:
            raise TailDivergenceError(
                "tail integral of omega/eta^2 diverges: growth exponent "
                f"{q:.4f} after {j + 1} doublings from {xi:.3g}")
        if v <= 1e-13 * max(total, tiny) and q < 0.995:
            lo = hi
            break
        lo = hi
    else:
        if q >= 0.995:
            raise TailDivergenceError(
                "tail integral of omega/eta^2 diverges: growth exponent "
                f"{q:.4f} did not settle below one")
    # chord-exponent remainder: omega(eta) ~ omega(lo) * (eta/lo)^q
    rem = float(omega(lo)) / (lo * max(1.0 - q, 5e-3))
    return total + rem, abs(rem)


def _riesz_tail(omega, xi: np.ndarray, w_xi: np.ndarray,
                kinks: Sequence[float], order: int):
    """(xi * integral of omega/eta^2 over (xi, inf), error) per separation."""
    if not isinstance(omega, ModulusMember):
        fn = _omega_fn(omega)
        tail, err = np.array([_callable_tail_over_eta2(fn, x, kinks, order)
                              for x in xi.tolist()]).reshape(-1, 2).T
        return xi * tail, xi * err
    sym, delta, gamma = omega.sym, omega.delta, omega.gamma
    val = np.empty_like(xi)
    err = np.zeros_like(xi)
    above = xi >= delta
    # by parts: the slope past the crossover is gamma * env(2 eta)
    xa = xi[above]
    val[above] = w_xi[above] + gamma * xa * sym.envelope_tail_integral_over_r(
        2.0 * xa)
    below = ~above
    if below.any():
        xb = xi[below]
        rows = log_panel_rows(xb, delta, 3.0, order, _omega_kinks(omega))
        mid = rows.integrate(omega.omega(rows.nodes) / rows.nodes ** 2)
        at_delta = (omega.omega_at_delta / delta
                    + gamma * sym.envelope_tail_integral_over_r(2.0 * delta))
        val[below] = xb * (mid + at_delta)
        err[below] = 1e-14 * val[below]
    return val, err


def _low_riesz(omega_fn, xi: np.ndarray, kinks: Sequence[float], order: int):
    """(integral of omega/eta over (0, xi), error) per separation.

    In the log variable the integrand omega(e^s) decays exponentially to the
    left, so twelve decades of panels below xi capture the integral to
    machine precision; the stub below the floor contributes omega(floor)
    since omega/eta is flat there.
    """
    floor = 1e-12 * xi
    rows = log_panel_rows(floor, xi, 2.0, order, kinks)
    val = rows.integrate(_omega_array(omega_fn, rows.nodes) / rows.nodes)
    stub = _omega_array(omega_fn, floor)
    return val + stub, 1e-2 * stub + 1e-14 * val


def _advective_pair(omega, xi: np.ndarray, w_xi: np.ndarray,
                    kinks: Sequence[float], order: int):
    """(Omega/A, OmegaTilde/A, shared error) at positive separations xi,
    given w_xi = omega(xi), reusing one tail integral."""
    kinks = list(kinks) or _omega_kinks(omega)
    low, err_low = _low_riesz(_omega_fn(omega), xi, kinks, order)
    tail, err_tail = _riesz_tail(omega, xi, w_xi, kinks, order)
    return low + tail, w_xi + tail, err_low + err_tail


def _advective(omega, xi, kinks: Sequence[float], order: int, which: int):
    x, shape = _separations(xi)
    if np.any(x < 0.0):
        raise ValueError("certificates need a positive separation")
    out = np.zeros_like(x)
    pos = x > 0.0
    if pos.any():
        xp = x[pos]
        w = _omega_array(_omega_fn(omega), xp)
        out[pos] = _advective_pair(omega, xp, w, kinks, order)[which]
    return _shaped(out, shape)


def omega_riesz(omega, xi, *, kinks: Sequence[float] = (),
                order: int = 12):
    """Riesz-increment certificate at separation xi, returned as a /A value.

    Evaluates the two-sided weighted average of the modulus,

        integral of omega(eta)/eta over (0, xi)
        + xi * integral of omega(eta)/eta^2 over (xi, inf),

    which bounds velocity increments of a field obeying ``omega`` up to the
    universal constant A (applied by the caller). ``xi`` is a scalar (a
    float comes back) or an array of separations, all evaluated together.
    Family members use their crossover structure for an exact tail; generic
    callables fall back to chord-exponent extrapolation and may raise
    TailDivergenceError, e.g. for linear omega whose tail integral is the
    divergent integral of 1/eta.

    ``kinks`` marks non-smooth points of a callable omega so the quadrature
    can pin them as panel edges.
    """
    return _advective(omega, xi, kinks, order, 0)


def omega_tilde(omega, xi, *, kinks: Sequence[float] = (),
                order: int = 12):
    """Flow-aligned advective certificate omega(xi) + tail, as a /A value.

    Smaller than the Riesz-increment certificate for concave moduli, since
    omega(eta)/eta >= omega(xi)/xi on (0, xi); used past the crossover scale
    where the full two-sided average is too generous. Scalar or array xi.
    """
    return _advective(omega, xi, kinks, order, 1)


# ---------------------------------------------------------------------------
# dissipative certificate
# ---------------------------------------------------------------------------

def _near_integral(omega_fn, sym, xi, w_xi, kinks, per_decade, order):
    """Integral over (0, xi/2) of (2w(xi) - w(xi+2e) - w(xi-2e)) m(2e)/e."""
    half = 0.5 * xi
    floor = 1e-10 * xi
    rows = log_panel_rows(floor, half, per_decade, order, _kink_candidates(
        kinks, xi, ((1.0, -1.0), (-1.0, 1.0)), sym.core_radius))
    eta = rows.nodes
    g = 2.0 * rows.spread(w_xi)
    g -= _omega_array(omega_fn, rows.spread(xi) + 2.0 * eta)
    g -= _omega_array(omega_fn, rows.spread(xi) - 2.0 * eta)
    kern = sym.m(2.0 * eta) / eta
    val = rows.integrate(g * kern)
    # stub below the floor: g ~ |omega''(xi)| (2 eta)^2 and eta*m(2 eta) is
    # bounded by C0/2, so the remainder is linear in the floor radius
    ends = _omega_array(omega_fn, np.concatenate((xi + 2.0 * floor,
                                                  xi - 2.0 * floor)))
    g_f = 2.0 * w_xi - ends[:xi.size] - ends[xi.size:]
    rem = np.where(floor < sym.r0, np.abs(g_f) * sym.C0 / (2.0 * floor), 0.0)
    noise = 4e-16 * w_xi * rows.integrate(kern)
    return val, rem + noise


def _far_direct(omega_fn, sym, xi, w_xi, R1, kinks, per_decade, order):
    """Integral over (xi/2, R1) of (2w(xi) - w(2e+xi) + w(2e-xi)) m(2e)/e."""
    rows = log_panel_rows(0.5 * xi, R1, per_decade, order, _kink_candidates(
        kinks, xi, ((1.0, -1.0), (1.0, 1.0)), sym.core_radius))
    eta = rows.nodes
    up = _omega_array(omega_fn, 2.0 * eta + rows.spread(xi))
    dn = _omega_array(omega_fn, 2.0 * eta - rows.spread(xi))
    w_n = rows.spread(w_xi)
    kern = sym.m(2.0 * eta) / eta
    val = rows.integrate((2.0 * w_n - up + dn) * kern)
    noise = 4e-16 * rows.integrate((2.0 * w_n + up + dn) * kern)
    return val, noise


def _member_far_closed(mem: ModulusMember, xi, w_xi, R1):
    """Far contribution beyond R1 using the member's power-law tail.

    Past R1 both the symbol and the envelope are exact power laws and both
    modulus arguments sit past the crossover, so the increment
    w(2e+xi) - w(2e-xi) is a closed-form power integral and no modulus
    evaluations are needed. Returns the integral over (R1, inf) of
    (2 w(xi) - increment) m(2e)/e, with its (tiny) truncation error.
    """
    sym = mem.sym
    c = sym.tail_coeff
    alpha = sym.alpha
    base = 2.0 * w_xi * sym.tail_integral_over_r(2.0 * R1)
    # integrand decays like eta^(-1-2 alpha); truncate where the pure-power
    # bound drops sixteen orders, then close with the exact power remainder
    R_inf = R1 * 10.0 ** (8.0 / alpha)
    correction = np.empty_like(xi)
    # these rows are a criterion's longest and call no omega, so blocks of
    # them bound its memory at no cost in calls
    for a in range(0, xi.size, _FAR_BLOCK_ROWS):
        at = slice(a, a + _FAR_BLOCK_ROWS)
        rows = log_panel_rows(R1[at], R_inf[at], 4.0, 10)
        eta = rows.nodes
        lo = 4.0 * eta - 2.0 * rows.spread(xi[at])
        hi = 4.0 * eta + 2.0 * rows.spread(xi[at])
        if alpha == 1.0:
            increment = 0.5 * mem.gamma * c * np.log(hi / lo)
        else:
            p = 1.0 - alpha
            increment = 0.5 * mem.gamma * c * (hi ** p - lo ** p) / p
        kern = c * (2.0 * eta) ** (-alpha) / eta
        correction[at] = rows.integrate(increment * kern)
    # beyond R_inf: increment ~ 2 gamma xi c (4 eta)^-alpha, exact integral
    rem = (2.0 * mem.gamma * xi * c ** 2 * 8.0 ** (-alpha)
           * R_inf ** (-2.0 * alpha) / (2.0 * alpha))
    return base - correction - rem, rem + 1e-15 * base


def _callable_far_windows(omega_fn, sym, xi, w_xi, R0, kinks, order):
    """Far contribution beyond R0 for a generic callable omega, at one xi:
    windows double until they stop contributing, a per-separation rule."""
    scale_ref = 2.0 * w_xi * sym.tail_integral_over_r(xi)
    total = 0.0
    prev = None
    lo = R0
    for _ in range(250):
        hi = 2.0 * lo
        eta_kinks = {(k - xi) / 2.0 for k in kinks} \
            | {(k + xi) / 2.0 for k in kinks} | {0.5 * sym.core_radius}
        eta, w = log_panel_nodes(lo, hi, 4.0, order,
                                 {c for c in eta_kinks if lo < c < hi})
        g = 2.0 * w_xi - _omega_array(omega_fn, 2.0 * eta + xi) \
            + _omega_array(omega_fn, 2.0 * eta - xi)
        v = float(np.dot(w, g * sym.m(2.0 * eta) / eta))
        total += v
        if prev is not None and v <= 1e-13 * max(scale_ref, total):
            ratio = v / prev if prev > 0.0 else 0.0
            rem = v * ratio / (1.0 - ratio) if ratio < 0.95 else \
                2.0 * w_xi * sym.tail_integral_over_r(2.0 * hi)
            return total + rem, rem + 1e-15 * scale_ref
        prev = v
        lo = hi
    rem = 2.0 * w_xi * sym.tail_integral_over_r(2.0 * lo)
    return total + rem, rem


def _dissipation_err(omega, sym: DissipationSymbol, xi: np.ndarray,
                     w_xi: np.ndarray, kinks: Sequence[float],
                     per_decade: float, order: int):
    """(raw dissipation, error) at positive separations xi, given
    w_xi = omega(xi)."""
    omega_fn = _omega_fn(omega)
    ks = list(kinks) or _omega_kinks(omega)
    near, err_n = _near_integral(omega_fn, sym, xi, w_xi, ks, per_decade,
                                 order)
    if isinstance(omega, ModulusMember):
        R1 = np.maximum(np.maximum(2.0 * xi, 2.0 * omega.delta),
                        sym.tail_start)
        direct, err_d = _far_direct(omega_fn, sym, xi, w_xi, R1, ks,
                                    per_decade, order)
        closed, err_c = _member_far_closed(omega, xi, w_xi, R1)
        return near + direct + closed, err_n + err_d + err_c
    R0 = np.maximum(np.maximum(xi, sym.core_radius), 1.0)
    direct, err_d = _far_direct(omega_fn, sym, xi, w_xi, R0, ks, per_decade,
                                order)
    far, err_f = np.array([
        _callable_far_windows(omega_fn, sym, x, w, r, ks, order)
        for x, w, r in zip(xi.tolist(), w_xi.tolist(), R0.tolist())
    ]).reshape(-1, 2).T
    return near + direct + far, err_n + err_d + err_f


def dissipation_lower(omega, sym: DissipationSymbol | None, xi, *,
                      kinks: Sequence[float] = (),
                      per_decade: float = _DISS_PER_DECADE,
                      order: int = _DISS_ORDER):
    """Dissipative lower-bound functional at separation xi, as a *A value.

    Two-piece quadrature of the second-difference integrals

        integral over (0, xi/2)   of (2w(xi) - w(xi+2e) - w(xi-2e)) m(2e)/e
        integral over (xi/2, inf) of (2w(xi) - w(2e+xi) + w(2e-xi)) m(2e)/e,

    both nonnegative for concave omega. The caller divides by A. ``xi`` is
    a scalar (a float comes back) or an array of separations. The far
    tail is handled through the symbol's exact power law for family members
    and by decaying dyadic windows for callables. Values inside quadrature
    noise of zero are clamped to zero; a warning fires if the raw value is
    negative beyond its own error bar, which indicates a non-concave omega.
    """
    x, shape = _positive(xi, "dissipation")
    sym = _symbol_of(omega, sym)
    val, err = _dissipation_err(omega, sym, x,
                                _omega_array(_omega_fn(omega), x),
                                kinks, per_decade, order)
    below = val < -(err + 1e-13 * np.abs(val))
    if below.any():
        i = int(np.argmax(below))
        warnings.warn(
            f"dissipation quadrature returned {val[i]:.3g} at xi = "
            f"{x[i]:.3g}, below its error bar; is omega concave?",
            RuntimeWarning, stacklevel=2)
    return _shaped(np.where(val < 0.0, 0.0, val), shape)


def _curvature_constants(mem: ModulusMember, xi: np.ndarray,
                         D: np.ndarray) -> np.ndarray:
    # D / (|omega''(xi)| xi^2 m(xi)), D the raw dissipation at xi
    curv = np.abs(mem.omega_second(xi))
    return D / (curv * xi ** 2 * mem.sym.m(xi))


def measured_curvature_constant(mem: ModulusMember, xi):
    """Ratio of the dissipation integral to |omega''(xi)| xi^2 m(xi).

    Below the crossover the dissipation admits a curvature-route lower bound
    with a generic constant; this reports the constant the quadrature
    actually achieves at xi (a scalar, or an array below the crossover).
    """
    x, shape = _separations(xi)
    if not np.all((0.0 < x) & (x < mem.delta)):
        raise ValueError("curvature route applies below the crossover scale")
    D, _ = _dissipation_err(mem, mem.sym, x, mem.omega(x), (),
                            _DISS_PER_DECADE, _DISS_ORDER)
    return _shaped(_curvature_constants(mem, x, D), shape)


# ---------------------------------------------------------------------------
# criterion reports
# ---------------------------------------------------------------------------

@dataclass
class PlainModulus:
    """Duck-typed stand-in for criterion checks on non-family moduli.

    Carries array-native callables (an array of separations in, an array of
    the same shape out) plus the metadata the reports record. Used for
    adversarial inputs (e.g. a linear modulus, which every criterion must
    reject with a positive margin).
    """

    omega_fn: Callable[[np.ndarray], np.ndarray]
    omega_prime_fn: Callable[[np.ndarray], np.ndarray]
    sym: DissipationSymbol
    delta: float = math.inf
    B: float = math.nan
    kappa: float = math.nan
    gamma: float = math.nan
    kinks: tuple = ()

    def omega(self, xi):
        return _omega_array(self.omega_fn, xi)

    def omega_prime(self, xi):
        return _omega_array(self.omega_prime_fn, xi)


@dataclass
class CertificateReport:
    """Per-separation criterion margins plus the side conditions checked.

    ``D`` holds the raw dissipation integral (the *A value); ``Omega`` and
    ``OmegaTilde`` hold /A values, NaN where a criterion does not use them.
    ``margin`` is the signed criterion value: negative means the modulus is
    preserved at that separation. PASS requires every margin to be strictly
    negative by more than its quadrature error, plus the report's gating
    side conditions.
    """

    kind: str
    A_used: float
    kappa: float
    gamma: float
    B: float
    delta: float
    xi_grid: np.ndarray
    regime: list[str]
    Omega: np.ndarray
    OmegaTilde: np.ndarray
    D: np.ndarray
    margin: np.ndarray
    margin_err: np.ndarray
    side_conditions: dict = field(default_factory=dict)
    side_values: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        strict = bool(np.all(self.margin < -self.margin_err))
        return strict and all(self.side_conditions.get(k, True)
                              for k in self.side_conditions
                              if k.startswith("gate:"))

    @property
    def worst_index(self) -> int:
        return int(np.argmax(self.margin))

    @property
    def worst_xi(self) -> float:
        return float(self.xi_grid[self.worst_index])

    @property
    def worst_margin(self) -> float:
        return float(self.margin[self.worst_index])


def _grid_evaluation(mem, xi_grid, per_decade, order):
    """(xi, omega, omega', kinks, D, err) of a criterion's grid, with D the
    raw dissipation and err its error.

    A family member keeps the evaluation of its most recent grid, and a
    call with the same separations and quadrature rule returns it. Its
    arrays are read-only; a report copies what it keeps. Other moduli
    evaluate on every call.
    """
    xi, _ = _positive(default_xi_grid() if xi_grid is None else xi_grid,
                      "criterion")
    rule = (per_decade, order)
    member = isinstance(mem, ModulusMember)
    memo = mem._grid_memo if member else None
    if memo is not None and memo[0] == rule and np.array_equal(memo[1], xi):
        return memo[1:]
    xi = xi.copy()
    w = _omega_array(mem.omega, xi)
    wp = _omega_array(mem.omega_prime, xi)
    kinks = tuple(_omega_kinks(mem))
    D, err = _dissipation_err(mem, mem.sym, xi, w, kinks, per_decade, order)
    if member:
        for a in (xi, w, wp, D, err):
            a.setflags(write=False)
        mem._grid_memo = (rule, xi, w, wp, kinks, D, err)
    return xi, w, wp, kinks, D, err


def _regimes(xi: np.ndarray, delta: float) -> list[str]:
    return ["below-delta" if x < delta else "above-delta" for x in xi]


def _curvature_side_value(mem, xi: np.ndarray, D: np.ndarray):
    # smallest measured curvature constant over at most ~8 separations
    # below the crossover, read off the D column already computed
    below = np.flatnonzero(xi < mem.delta)
    if not isinstance(mem, ModulusMember) or below.size == 0:
        return None
    pick = below[:: max(1, below.size // 8)]
    return float(np.min(_curvature_constants(mem, xi[pick], D[pick])))


def burgers_criterion(mem, xi_grid: np.ndarray | None = None, *,
                      A: float = DEFAULT_A,
                      per_decade: float = _DISS_PER_DECADE,
                      order: int = _DISS_ORDER) -> CertificateReport:
    """Scalar-advection preservation margins omega * omega' - D over a grid.

    The advecting velocity is the solution itself, so increments are bounded
    by omega directly and only the dissipation carries the universal
    constant; ``A`` defaults to the suite's conservative estimate. PASS
    means every margin is negative beyond quadrature error. The whole grid
    is evaluated in one batch, which ``sqg_criterion`` on the same member
    and grid reuses.
    """
    xi, w, wp, _, D, err = _grid_evaluation(mem, xi_grid, per_decade, order)
    side_vals = {}
    C = _curvature_side_value(mem, xi, D)
    if C is not None:
        side_vals["measured_curvature_constant"] = C
    nan = np.full(xi.size, math.nan)
    return CertificateReport(
        kind="burgers", A_used=A, kappa=getattr(mem, "kappa", math.nan),
        gamma=getattr(mem, "gamma", math.nan), B=getattr(mem, "B", math.nan),
        delta=mem.delta, xi_grid=xi.copy(), regime=_regimes(xi, mem.delta),
        Omega=nan, OmegaTilde=nan.copy(), D=D.copy(), margin=w * wp - D / A,
        margin_err=err / A, side_values=side_vals)


def sqg_criterion(mem, A: float = DEFAULT_A,
                  xi_grid: np.ndarray | None = None, *,
                  per_decade: float = _DISS_PER_DECADE,
                  order: int = _DISS_ORDER) -> CertificateReport:
    """Riesz-velocity preservation margins with the crossover regime split.

    Below the crossover the margin is A * (Omega/A) * omega' - D/A; at and
    above it the flow-aligned certificate replaces the Riesz one, and the
    perpendicular contribution is absorbed into its dissipative counterpart
    provided gamma * A^2 <= 1 (reported as a gating side condition). Two
    non-gating diagnostics are recorded: the low-regime envelope bound
    Omega/A <= B xi (3 + log(delta/xi)), which the construction guarantees
    when gamma <= alpha * kappa, and the sign of the curvature-route factor
    1 - C / (2 A^2 C_alpha kappa) with C the measured quadrature constant.
    The whole grid is evaluated in one batch, which ``burgers_criterion``
    on the same member and grid reuses.
    """
    xi, w, wp, kinks, D, err_d = _grid_evaluation(mem, xi_grid, per_decade,
                                                  order)
    Om, Omt, err_adv = _advective_pair(mem, xi, w, kinks, order)
    below = xi < mem.delta
    margin = np.where(below, A * Om * wp, A * Omt * wp) - D / A
    low_bound_ok = True
    B = getattr(mem, "B", math.nan)
    if math.isfinite(B) and below.any():
        xb = xi[below]
        envelope = B * xb * (3.0 + np.log(mem.delta / xb))
        low_bound_ok = bool(np.all(Om[below] <= envelope * (1.0 + 1e-9)))
    gamma = getattr(mem, "gamma", math.nan)
    side_cond = {
        "gate:perp_absorption": bool(gamma * A ** 2 <= 1.0),
        "low_regime_envelope_bound": low_bound_ok,
    }
    side_vals = {}
    if isinstance(mem, ModulusMember):
        side_cond["gamma_le_alpha_kappa"] = \
            bool(mem.gamma <= mem.sym.alpha * mem.kappa)
        C = _curvature_side_value(mem, xi, D)
        if C is not None:
            side_vals["measured_curvature_constant"] = C
            side_vals["curvature_sign_factor"] = \
                1.0 - C / (2.0 * A ** 2 * mem.C_alpha * mem.kappa)
    return CertificateReport(
        kind="sqg", A_used=A, kappa=getattr(mem, "kappa", math.nan),
        gamma=gamma, B=B, delta=mem.delta, xi_grid=xi.copy(),
        regime=_regimes(xi, mem.delta), Omega=Om, OmegaTilde=Omt, D=D.copy(),
        margin=margin, margin_err=A * np.abs(wp) * err_adv + err_d / A,
        side_conditions=side_cond, side_values=side_vals)
