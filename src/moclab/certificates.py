"""Advective and dissipative certificates for moduli of continuity.

The breakthrough argument compares, at a candidate separation xi, an
advective bound on velocity increments against a dissipative lower bound.
This module evaluates the three advective functionals (the Riesz-increment
bound, its flow-aligned variant, and the perpendicular-pair bound), the
dissipative functionals, and combines them into signed per-separation
criterion margins for the scalar (Burgers) and Riesz-velocity (SQG) cases.

Normalization: the universal increment constant A enters every functional
only as an outer factor, so all values are stored A-free. Advective values
are returned divided by A, dissipative values multiplied by A (the raw
two-piece integral); criteria reinsert the caller's A. The perpendicular
comparison m(xi) * (omega_perp/A) <= (d_perp*A) is A-free outright.

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
functionals are that one-point case. A criterion computes omega and omega'
on its grid once and calls each functional once per grid. Only the
callables' dyadic tail windows, whose stopping rule is per separation, run
one separation at a time.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.fft import irfft2

from .fields import TWO_PI, ScalarField2D, velocity_multipliers
from .moduli import (DEFAULT_GAMMA, DEFAULT_KAPPA, ModulusConstructionError,
                     ModulusMember, _omega_array, _separations, build_modulus)
from .quadrature import (graded_edges, log_panel_nodes, log_panel_rows,
                         panel_nodes)
from .symbols import DissipationSymbol, _shaped

DEFAULT_A = 2.0
XI_GRID_LO = 1e-6
XI_GRID_HI = 1e3
XI_POINTS_PER_DECADE = 64
# separations per block of a member's closed-form far rule (320 nodes each)
_FAR_BLOCK_ROWS = 32


class TailDivergenceError(ValueError):
    """Advective tail integral diverges (omega grows linearly or worse)."""


class DegeneratePairError(ValueError):
    """Perpendicular pair separation below the field's grid resolution."""


def default_xi_grid(lo: float = XI_GRID_LO, hi: float = XI_GRID_HI,
                    per_decade: int = XI_POINTS_PER_DECADE) -> np.ndarray:
    n = int(round(per_decade * math.log10(hi / lo)))
    return np.geomspace(lo, hi, n + 1)


# ---------------------------------------------------------------------------
# shared quadrature plumbing
# ---------------------------------------------------------------------------

def _omega_callable(omega) -> Callable:
    """Scalar/array evaluator for a member, duck-typed modulus, or callable."""
    if isinstance(omega, ModulusMember):
        return omega.omega
    if callable(omega):
        return omega
    if hasattr(omega, "omega"):
        return omega.omega
    raise TypeError(f"cannot evaluate {type(omega).__name__} as a modulus")


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
        fn = _omega_callable(omega)
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
    low, err_low = _low_riesz(_omega_callable(omega), xi, kinks, order)
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
        w = _omega_array(_omega_callable(omega), xp)
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
    omega_fn = _omega_callable(omega)
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
                      kinks: Sequence[float] = (), per_decade: float = 2.0,
                      order: int = 12):
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
                                _omega_array(_omega_callable(omega), x),
                                kinks, per_decade, order)
    below = val < -(err + 1e-13 * np.abs(val))
    if below.any():
        i = int(np.argmax(below))
        warnings.warn(
            f"dissipation quadrature returned {val[i]:.3g} at xi = "
            f"{x[i]:.3g}, below its error bar; is omega concave?",
            RuntimeWarning, stacklevel=2)
    return _shaped(np.where(val < 0.0, 0.0, val), shape)


def dissipation_far_window(omega, sym: DissipationSymbol | None, xi, *,
                           order: int = 12):
    """Far-piece contribution from the single octave eta in (xi/2, xi).

    For family members past the crossover this one window already dominates
    (2 - c_alpha) * omega(xi) * m(2 xi), where c_alpha is the doubling bound
    of the family; useful as a quadrature-free floor in tests.
    """
    x, shape = _positive(xi, "dissipation")
    sym = _symbol_of(omega, sym)
    fn = _omega_callable(omega)
    val, _ = _far_direct(fn, sym, x, _omega_array(fn, x), x,
                         _omega_kinks(omega), 4.0, order)
    return _shaped(val, shape)


def dissipation_doubling_floor(mem: ModulusMember, xi: float) -> float:
    """(2 - c_alpha) * omega(xi) * m(2 xi), the analytic far-window floor."""
    return ((2.0 - mem.doubling_bound) * float(mem.omega(xi))
            * float(mem.sym.m(2.0 * xi)))


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
    D, _ = _dissipation_err(mem, mem.sym, x, mem.omega(x), (), 2.0, 12)
    return _shaped(_curvature_constants(mem, x, D), shape)


# ---------------------------------------------------------------------------
# criterion reports
# ---------------------------------------------------------------------------

@dataclass
class PlainModulus:
    """Duck-typed stand-in for criterion checks on non-family moduli.

    Carries scalar callables plus the metadata the reports record. Used for
    adversarial inputs (e.g. a linear modulus, which every criterion must
    reject with a positive margin).
    """

    omega_fn: Callable[[float], float]
    omega_prime_fn: Callable[[float], float]
    sym: DissipationSymbol
    delta: float = math.inf
    B: float = math.nan
    kappa: float = math.nan
    gamma: float = math.nan
    kinks: tuple = ()

    def omega(self, xi):
        return _omega_array(self.omega_fn, xi) \
            if np.ndim(xi) else float(self.omega_fn(float(xi)))

    def omega_prime(self, xi):
        return _omega_array(self.omega_prime_fn, xi) \
            if np.ndim(xi) else float(self.omega_prime_fn(float(xi)))


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


def _grid_columns(mem, xi_grid):
    # the separations, omega and omega' on them, and the member's kinks
    xi, _ = _positive(default_xi_grid() if xi_grid is None else xi_grid,
                      "criterion")
    return (xi, _omega_array(mem.omega, xi), _omega_array(mem.omega_prime, xi),
            _omega_kinks(mem))


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
                      A: float = DEFAULT_A, per_decade: float = 2.0,
                      order: int = 12) -> CertificateReport:
    """Scalar-advection preservation margins omega * omega' - D over a grid.

    The advecting velocity is the solution itself, so increments are bounded
    by omega directly and only the dissipation carries the universal
    constant; ``A`` defaults to the suite's conservative estimate. PASS
    means every margin is negative beyond quadrature error. The whole grid
    is evaluated in one batch.
    """
    xi, w, wp, kinks = _grid_columns(mem, xi_grid)
    D, err = _dissipation_err(mem, mem.sym, xi, w, kinks, per_decade, order)
    side_vals = {}
    C = _curvature_side_value(mem, xi, D)
    if C is not None:
        side_vals["measured_curvature_constant"] = C
    nan = np.full(xi.size, math.nan)
    return CertificateReport(
        kind="burgers", A_used=A, kappa=getattr(mem, "kappa", math.nan),
        gamma=getattr(mem, "gamma", math.nan), B=getattr(mem, "B", math.nan),
        delta=mem.delta, xi_grid=xi, regime=_regimes(xi, mem.delta),
        Omega=nan, OmegaTilde=nan.copy(), D=D, margin=w * wp - D / A,
        margin_err=err / A, side_values=side_vals)


def sqg_criterion(mem, A: float = DEFAULT_A,
                  xi_grid: np.ndarray | None = None, *,
                  per_decade: float = 2.0, order: int = 12) -> CertificateReport:
    """Riesz-velocity preservation margins with the crossover regime split.

    Below the crossover the margin is A * (Omega/A) * omega' - D/A; at and
    above it the flow-aligned certificate replaces the Riesz one, and the
    perpendicular contribution is absorbed into its dissipative counterpart
    provided gamma * A^2 <= 1 (reported as a gating side condition). Two
    non-gating diagnostics are recorded: the low-regime envelope bound
    Omega/A <= B xi (3 + log(delta/xi)), which the construction guarantees
    when gamma <= alpha * kappa, and the sign of the curvature-route factor
    1 - C / (2 A^2 C_alpha kappa) with C the measured quadrature constant.
    The whole grid is evaluated in one batch.
    """
    xi, w, wp, kinks = _grid_columns(mem, xi_grid)
    Om, Omt, err_adv = _advective_pair(mem, xi, w, kinks, order)
    D, err_d = _dissipation_err(mem, mem.sym, xi, w, kinks, per_decade, order)
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
        gamma=gamma, B=B, delta=mem.delta, xi_grid=xi,
        regime=_regimes(xi, mem.delta), Omega=Om, OmegaTilde=Omt, D=D,
        margin=margin, margin_err=A * np.abs(wp) * err_adv + err_d / A,
        side_conditions=side_cond, side_values=side_vals)


# ---------------------------------------------------------------------------
# perpendicular pair certificate
# ---------------------------------------------------------------------------

@dataclass
class PerpReport:
    """Perpendicular-pair quadratures for one (x, y) pair.

    ``omega_perp`` is the /A value, ``d_perp`` the *A value, so the
    comparison m(xi) * omega_perp <= d_perp is free of A. ``d_perp`` is a
    truncated lower bound: the kernel is singular at the pair's endpoint and
    the graded panels stop at ``rho_floor``, which only strengthens the
    inequality check. ``kernel_worst_ratio`` is the largest observed ratio
    of the perpendicular kernel to its dissipative majorant; at most one for
    symbols with a non-increasing power-weighted profile.
    """

    xi: float
    omega_perp: float
    d_perp: float
    lemma_margin: float
    lemma_ok: bool
    kernel_worst_ratio: float
    kernel_ok: bool
    rho_floor: float
    A_used: float


def perp_pair(fld: ScalarField2D, x, y, sym: DissipationSymbol,
              A: float = DEFAULT_A, *, omega=None, levels: int = 12,
              order: int = 6) -> PerpReport:
    """Perpendicular advective/dissipative pair certificates at (x, y).

    Rotates coordinates so the pair sits at (+xi/2, 0) and (-xi/2, 0), then
    integrates over the window (xi/4, 3 xi/4) x (0, xi/4) in the rotated
    (eta, nu) plane:

      omega_perp: antisymmetrized field increments against nu / rho^3;
      d_perp:     modulus slack 2 omega(2 eta) minus the same increments,
                  against m(rho) / rho^2,

    where rho is the distance to the pair endpoint. ``omega`` (a family
    member or callable modulus the field is measured against) is required
    for d_perp. Also grid-checks the pointwise kernel domination
    nu * m(xi) / rho^3 <= m(rho) / rho^2 on the quadrature nodes.

    Pairs closer than four grid cells are rejected: the quadrature would
    sample the interpolant below its resolution.
    """
    if omega is None:
        raise ValueError("perp_pair needs the modulus the field obeys")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = float(np.hypot(*(x - y)))
    cell = TWO_PI / fld.N
    if xi < 4.0 * cell:
        raise DegeneratePairError(
            f"pair separation {xi:.3g} is below four grid cells "
            f"({4.0 * cell:.3g}); the quadrature window is unresolved")
    e = (x - y) / xi
    e_perp = np.array([-e[1], e[0]])
    center = 0.5 * (x + y)

    eta_edges = np.concatenate([
        graded_edges(0.25 * xi, 0.5 * xi, levels, toward="right")[:-1],
        graded_edges(0.5 * xi, 0.75 * xi, levels, toward="left")])
    nu_edges = graded_edges(0.0, 0.25 * xi, levels, toward="left")
    eta_n, eta_w = panel_nodes(eta_edges, order)
    nu_n, nu_w = panel_nodes(nu_edges, order)

    Eta, Nu = np.meshgrid(eta_n, nu_n, indexing="ij")
    W = eta_w[:, None] * nu_w[None, :]
    rho2 = (0.5 * xi - Eta) ** 2 + Nu ** 2
    rho = np.sqrt(rho2)

    def points(se, sv):
        p = (center[None, :] + se * Eta.ravel()[:, None] * e[None, :]
             + sv * Nu.ravel()[:, None] * e_perp[None, :])
        return p

    pts = np.concatenate([points(1, 1), points(-1, 1),
                          points(1, -1), points(-1, -1)])
    vals = fld.evaluate_at(pts).reshape(4, *Eta.shape)
    g_pp, g_mp, g_pm, g_mm = vals

    omega_fn = omega.omega if isinstance(omega, ModulusMember) else omega
    w2eta = _omega_array(omega_fn, 2.0 * eta_n)[:, None]

    adv = (g_pp - g_mp - g_pm + g_mm) * Nu / (rho2 * rho)
    slack = 2.0 * w2eta - (g_pp - g_mp) - (g_pm - g_mm)
    dis = slack * sym.m(rho) / rho2

    omega_perp = float(np.sum(W * adv))
    d_perp = float(np.sum(W * dis))
    m_xi = float(sym.m(xi))
    lemma_margin = d_perp - m_xi * omega_perp

    ratio = Nu * m_xi / (rho * sym.m(rho))
    worst = float(np.max(ratio))

    return PerpReport(
        xi=xi, omega_perp=omega_perp, d_perp=d_perp,
        lemma_margin=lemma_margin,
        lemma_ok=bool(lemma_margin >= -1e-12 * max(abs(d_perp), 1e-300)),
        kernel_worst_ratio=worst, kernel_ok=bool(worst <= 1.0 + 1e-12),
        rho_floor=float(np.min(rho)), A_used=A)


# ---------------------------------------------------------------------------
# constant calibration and parameter tuning
# ---------------------------------------------------------------------------

@dataclass
class CalibrationReport:
    A_hat: float
    pairs: int
    worst_separation: float


def calibrate_A(fld: ScalarField2D, omega, *, pairs: int = 128,
                seed: int = 0) -> CalibrationReport:
    """Empirical estimate of the universal increment constant.

    Samples grid-point pairs, measures Riesz-velocity increments, and
    divides by the A-free advective certificate at the pair separation; the
    maximum ratio is the smallest A for which the increment bound held on
    the sample. Meaningful only when the field obeys ``omega``.
    """
    rng = np.random.default_rng(seed)
    N = fld.N
    mx, my = velocity_multipliers(N, "sqg")
    u1 = irfft2(mx * fld.spec, s=(N, N))
    u2 = irfft2(my * fld.spec, s=(N, N))
    h = TWO_PI / N
    du, seps = [], []
    for i1, j1, i2, j2 in rng.integers(0, N, size=(pairs, 4)):
        dx = h * (((i1 - i2) + N // 2) % N - N // 2)
        dy = h * (((j1 - j2) + N // 2) % N - N // 2)
        sep = math.hypot(dx, dy)
        if sep >= 2.0 * h:
            du.append(math.hypot(u1[i1, j1] - u1[i2, j2],
                                 u2[i1, j1] - u2[i2, j2]))
            seps.append(sep)
    if seps:
        # every certificate in one batch; the first largest ratio wins
        ratio = np.array(du) / omega_riesz(omega, np.array(seps))
        k = int(np.argmax(ratio))
        if ratio[k] > 0.0:
            return CalibrationReport(A_hat=float(ratio[k]), pairs=pairs,
                                     worst_separation=seps[k])
    return CalibrationReport(A_hat=0.0, pairs=pairs,
                             worst_separation=math.nan)


@dataclass
class TuningStep:
    kappa: float
    gamma: float
    built: bool
    burgers_pass: bool
    sqg_pass: bool
    worst_margin: float
    note: str = ""


@dataclass
class TuningResult:
    kappa: float
    gamma: float
    A: float
    passed: bool
    steps: list


def tune_parameters(sym: DissipationSymbol, A: float = DEFAULT_A, *,
                    B_values: Sequence[float] = (1.0,),
                    start: tuple[float, float] = (DEFAULT_KAPPA, DEFAULT_GAMMA),
                    xi_grid: np.ndarray | None = None,
                    max_halvings: int = 10,
                    require: Sequence[str] = ("burgers", "sqg")) -> TuningResult:
    """Halve (kappa, gamma) from ``start`` until both criteria pass.

    The starting kappa is clamped inside the symbol's admissible range.
    Shrinking both parameters together preserves 2*gamma <= kappa and moves
    every margin in the passing direction, so the first passing rung is
    returned; the trajectory is recorded for the stability property that a
    further halving never flips the verdict.
    """
    if xi_grid is None:
        xi_grid = default_xi_grid(1e-5, 1e2, 16)
    bound = sym.r0 / (4.0 * sym.C0)
    kappa = min(start[0], 0.49 * bound)
    gamma = min(start[1], 0.5 * kappa)
    steps: list[TuningStep] = []
    for _ in range(max_halvings + 1):
        ok_burgers = ok_sqg = True
        worst = -math.inf
        built = True
        note = ""
        try:
            for B in B_values:
                mem = build_modulus(sym, kappa, gamma, B)
                if "burgers" in require:
                    rep = burgers_criterion(mem, xi_grid, A=A)
                    ok_burgers &= rep.passed
                    worst = max(worst, rep.worst_margin)
                if "sqg" in require:
                    rep = sqg_criterion(mem, A, xi_grid)
                    ok_sqg &= rep.passed
                    worst = max(worst, rep.worst_margin)
        except ModulusConstructionError as exc:
            built = False
            ok_burgers = ok_sqg = False
            note = str(exc)
        steps.append(TuningStep(kappa, gamma, built, ok_burgers, ok_sqg,
                                worst, note))
        if built and ok_burgers and ok_sqg:
            return TuningResult(kappa, gamma, A, True, steps)
        kappa *= 0.5
        gamma *= 0.5
    return TuningResult(kappa, gamma, A, False, steps)
