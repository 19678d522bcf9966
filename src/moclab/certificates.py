"""Advective and dissipative certificates for moduli of continuity.

The breakthrough argument compares, at a candidate separation xi, an
advective bound on velocity increments against a dissipative lower bound.
This module evaluates the two advective functionals (the Riesz-increment
bound and its flow-aligned variant), the dissipative functional, and
combines them into signed per-separation criterion margins for the scalar
(Burgers) and Riesz-velocity (SQG) cases. Every public function takes a
family member (``moduli.ModulusMember``) and refuses any other modulus
with a TypeError: the tails below are the member's closed forms.

Normalization: the universal increment constant A enters every functional
only as an outer factor, so all values are stored A-free. Advective values
are returned divided by A, dissipative values multiplied by A (the raw
two-piece integral); criteria reinsert the caller's A.

Quadrature strategy: in the log of the integration variable every integrand
here is piecewise smooth, with kinks only at the crossover scale of the
modulus and the breakpoint radii of the symbol, so composite Gauss-Legendre
panels with those points pinned as edges converge spectrally. No improper
tail is truncated: past a radius where the symbol and the envelope are one
power tail, the advective tails and the dissipation's far field are closed
forms, the latter an odd series in xi/(2 eta) with each term integrated
exactly.

Every functional works on an array of separations, through one
``log_panel_integrals`` call per integral. It evaluates each set of
modulus arguments with one ``omega`` call per block of panels and sums
each separation's row on its own, so a value is bitwise that of a
one-point call; the public scalar functionals are that one-point case.

The two criteria weigh different advective terms against the same
dissipation, so they share one evaluation of a grid: omega, omega', the
kinks and the dissipation with its error, computed once per family member,
grid and quadrature rule. A member keeps the evaluation of its most recent
grid, and a second criterion on that grid reads it instead of recomputing;
members are immutable and every value is a function of the point alone, so
the reuse is exact.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import _EPS
from .moduli import ModulusMember, _separations
from .moduli import build_modulus  # bench/selftest.py asserts this alias
from .quadrature import log_panel_integrals
from .symbols import _shaped

DEFAULT_A = 2.0
XI_GRID_LO = 1e-6
XI_GRID_HI = 1e3
XI_POINTS_PER_DECADE = 64
# panels per decade and Gauss-Legendre order of the dissipation quadrature;
# the advective functionals take the order
_DISS_PER_DECADE = 2.0
_DISS_ORDER = 12
# the near piece integrates down to this fraction of the separation
_NEAR_FLOOR = 1e-10


def default_xi_grid(lo: float = XI_GRID_LO, hi: float = XI_GRID_HI,
                    per_decade: int = XI_POINTS_PER_DECADE) -> np.ndarray:
    """Geometric separations from lo to hi, ``per_decade`` per decade."""
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError("a separation grid needs finite bounds with "
                         f"0 < lo <= hi, got lo={lo!r}, hi={hi!r}")
    n = int(round(per_decade * math.log10(hi / lo)))
    return np.geomspace(lo, hi, n + 1)


# ---------------------------------------------------------------------------
# shared quadrature plumbing
# ---------------------------------------------------------------------------

def _member(mem, what: str) -> None:
    # the tails here are a family member's closed forms
    if not isinstance(mem, ModulusMember):
        raise TypeError(f"{what} takes a ModulusMember, got "
                        f"{type(mem).__name__}")


def _omega_kinks(mem: ModulusMember) -> list[float]:
    """Argument values where a member may lose smoothness: its crossover
    scale and half of each symbol breakpoint."""
    return [mem.delta] + [0.5 * p for p in mem.sym.breakpoints]


def _positive(xi, what: str) -> tuple[np.ndarray, tuple | None]:
    # flat positive separations and the shape to restore (None for a scalar)
    x, shape = _separations(xi)
    if not np.all(x > 0.0):
        raise ValueError(f"{what} evaluated at non-positive separation")
    return x, shape


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

def _riesz_tail(mem: ModulusMember, xi: np.ndarray, w_xi: np.ndarray,
                kinks: Sequence[float], order: int):
    """(xi * integral of omega/eta^2 over (xi, inf), error) per separation."""
    sym, delta, gamma = mem.sym, mem.delta, mem.gamma
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
        mid = log_panel_integrals(lambda eta: mem.omega(eta) / eta ** 2,
                                  xb, delta, 3.0, order, kinks)
        at_delta = (mem.omega_at_delta / delta
                    + gamma * sym.envelope_tail_integral_over_r(2.0 * delta))
        val[below] = xb * (mid + at_delta)
        err[below] = 1e-14 * val[below]
    return val, err


def _low_riesz(mem: ModulusMember, xi: np.ndarray, kinks: Sequence[float],
               order: int):
    """(integral of omega/eta over (0, xi), error) per separation.

    Below delta, omega/eta tends to B and omega(e^s) decays exponentially
    to the left in the log variable. So the panels run down to the floor
    1e-12 min(xi, delta), twelve decades below the smaller of the
    separation and the crossover, and the stub below the floor contributes
    omega(floor), since omega/eta is flat there. A floor of 1e-12 xi far
    above delta sits where omega/eta is not flat.
    """
    floor = 1e-12 * np.minimum(xi, mem.delta)
    val = log_panel_integrals(lambda eta: mem.omega(eta) / eta, floor, xi,
                              2.0, order, kinks)
    stub = mem.omega(floor)
    return val + stub, 1e-2 * stub + 1e-14 * val


def _advective(mem, xi, riesz: bool, what: str):
    # Omega/A (riesz) or OmegaTilde/A, sharing the tail: omega(xi) + tail
    # is the flow-aligned form, the low integral + tail the Riesz one
    _member(mem, what)
    x, shape = _separations(xi)
    if np.any(x < 0.0):
        raise ValueError("certificates need a positive separation")
    out = np.zeros_like(x)
    pos = x > 0.0
    if pos.any():
        xp = x[pos]
        w, kinks = mem.omega(xp), _omega_kinks(mem)
        tail, _ = _riesz_tail(mem, xp, w, kinks, _DISS_ORDER)
        head = _low_riesz(mem, xp, kinks, _DISS_ORDER)[0] if riesz else w
        out[pos] = head + tail
    return _shaped(out, shape)


def omega_riesz(mem, xi):
    """Riesz-increment certificate at separation xi, returned as a /A value.

    Evaluates the two-sided weighted average of the modulus,

        integral of omega(eta)/eta over (0, xi)
        + xi * integral of omega(eta)/eta^2 over (xi, inf),

    which bounds velocity increments of a field obeying the member's omega
    up to the universal constant A (applied by the caller). ``xi`` is a
    scalar (a float comes back) or an array of separations, all evaluated
    together. The tail takes the member's crossover structure in closed
    form; anything but a ``ModulusMember`` is refused with a TypeError.
    """
    return _advective(mem, xi, True, "omega_riesz")


def omega_tilde(mem, xi):
    """Flow-aligned advective certificate omega(xi) + tail, as a /A value.

    Smaller than the Riesz-increment certificate for concave moduli, since
    omega(eta)/eta >= omega(xi)/xi on (0, xi); used past the crossover scale
    where the full two-sided average is too generous. Scalar or array xi;
    a ``ModulusMember`` only.
    """
    return _advective(mem, xi, False, "omega_tilde")


# ---------------------------------------------------------------------------
# dissipative certificate
# ---------------------------------------------------------------------------

def _near_integral(omega, sym, xi, w_xi, kinks, per_decade, order):
    """Integral over (0, xi/2) of (2w(xi) - w(xi+2e) - w(xi-2e)) m(2e)/e."""
    floor = _NEAR_FLOOR * xi

    def near(eta, x, w):
        up, dn = np.split(omega(np.concatenate((x + 2.0 * eta,
                                                 x - 2.0 * eta))), 2)
        kern = sym.m(2.0 * eta) / eta
        return (2.0 * w - up - dn) * kern, kern

    val, kern_int = log_panel_integrals(
        near, floor, 0.5 * xi, per_decade, order, _kink_candidates(
            kinks, xi, ((1.0, -1.0), (-1.0, 1.0)), sym.core_radius), xi, w_xi)
    # stub below the floor: g ~ |omega''(xi)| (2 eta)^2 and eta*m(2 eta) is
    # bounded by C0/2, so the remainder is linear in the floor radius
    ends = omega(np.concatenate((xi + 2.0 * floor, xi - 2.0 * floor)))
    g_f = 2.0 * w_xi - ends[:xi.size] - ends[xi.size:]
    rem = np.where(floor < sym.r0, np.abs(g_f) * sym.C0 / (2.0 * floor), 0.0)
    noise = 4e-16 * w_xi * kern_int
    return val, rem + noise


def _far_direct(omega, sym, xi, w_xi, R1, kinks, per_decade, order):
    """Integral over (xi/2, R1) of (2w(xi) - w(2e+xi) + w(2e-xi)) m(2e)/e."""

    def far(eta, x, w):
        up, dn = np.split(omega(np.concatenate((2.0 * eta + x,
                                                 2.0 * eta - x))), 2)
        kern = sym.m(2.0 * eta) / eta
        return (2.0 * w - up + dn) * kern, (2.0 * w + up + dn) * kern

    val, size = log_panel_integrals(
        far, 0.5 * xi, R1, per_decade, order, _kink_candidates(
            kinks, xi, ((1.0, -1.0), (1.0, 1.0)), sym.core_radius), xi, w_xi)
    return val, 4e-16 * size


def _odd_series(alpha: float, t: np.ndarray):
    """(sum over odd k of b_k t^k / (2 alpha + k - 1), the last k summed)
    for 0 < t <= 1/4: b_1 = 1 and b_(k+2) = b_k (k - p)(k + 1 - p) /
    ((k + 1)(k + 2)), p = 1 - alpha, so every term is positive and at most
    t^2 <= 1/16 of the one before. The sum stops once every separation's
    last term is below 1e-17 of its sum, which leaves less than 1e-18 of it
    behind; a NaN term stops it too."""
    p, b, k = 1.0 - alpha, 1.0, 1
    term = total = t / (2.0 * alpha)
    while np.any(term > 1e-17 * total):
        b *= (k - p) * (k + 1 - p) / ((k + 1) * (k + 2))
        k += 2
        term = b * t ** k / (2.0 * alpha + k - 1)
        total = total + term
    return total, k


def _member_far_closed(mem: ModulusMember, xi, w_xi, R1):
    """Far contribution beyond R1 = max(2 xi, 2 delta, tail_start), exact.

    Past R1 the symbol and the envelope are one power tail c r^-alpha and
    both modulus arguments sit past the crossover, so with p = 1 - alpha
    and t = xi / (2 eta) <= 1/4 the increment is

        w(2e+xi) - w(2e-xi) = (gamma/2) c (4e)^p ((1+t)^p - (1-t)^p) / p
                            = gamma c (4e)^p sum over odd k of b_k t^k,

    the odd series of ``_odd_series`` (b_k = 1/k at alpha = 1). Each term
    integrates against m(2e)/e = c 2^-alpha e^(-1-alpha) in closed form,
    so the integral over (R1, inf) of (2 w(xi) - increment) m(2e)/e is
    2 w(xi) times the symbol's tail integral from 2 R1, less
    gamma c^2 2^-alpha 4^p R1^(1 - 2 alpha) sum b_k t1^k / (2 alpha + k - 1)
    with t1 = xi / (2 R1). The bar is the rounding of both, 8 eps of their
    sum; the series' remainder is below 1e-18 of it.
    """
    sym = mem.sym
    c, alpha = sym.tail_coeff, sym.alpha
    base = 2.0 * w_xi * sym.tail_integral_over_r(2.0 * R1)
    series, _ = _odd_series(alpha, 0.5 * xi / R1)
    correction = (mem.gamma * c * c * 2.0 ** -alpha * 4.0 ** (1.0 - alpha)
                  * R1 ** (1.0 - 2.0 * alpha) * series)
    return base - correction, 8.0 * _EPS * (base + correction)


def _dissipation_err(mem: ModulusMember, xi: np.ndarray, w_xi: np.ndarray,
                     ks: Sequence[float], per_decade: float, order: int):
    """(raw dissipation, error) at positive separations xi, given
    w_xi = omega(xi) and ks = _omega_kinks(mem).

    A D that is not finite is refused by name, with no numpy warning on
    the way: near a tiny xi at large B the kernel m(2 eta)/eta overflows
    float64, and every overflow or invalid operation on the way leaves D
    infinite or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        D, err = _dissipation_parts(mem, xi, w_xi, ks, per_decade, order)
    bad = ~np.isfinite(D)
    if bad.any():
        x = xi[np.argmax(bad)]
        eta = _NEAR_FLOOR * x
        with np.errstate(over="ignore"):
            kern = mem.sym.m(2.0 * eta) / eta
        raise ValueError(
            f"dissipation is not finite at xi = {x:.6g} for the modulus at "
            f"B = {mem.B:.6g}: its kernel m(2 eta)/eta reads {kern:.6g} "
            f"at the near piece's floor eta = {eta:.6g}, and float64 "
            f"overflows past {np.finfo(float).max:.6g}")
    return D, err


def _dissipation_parts(mem, xi, w_xi, ks, per_decade, order):
    # near piece, window (xi/2, R1) and exact far field, each with its
    # error, summed
    sym = mem.sym
    near, err_n = _near_integral(mem.omega, sym, xi, w_xi, ks, per_decade,
                                 order)
    R1 = np.maximum(np.maximum(2.0 * xi, 2.0 * mem.delta), sym.tail_start)
    direct, err_d = _far_direct(mem.omega, sym, xi, w_xi, R1, ks, per_decade,
                                order)
    closed, err_c = _member_far_closed(mem, xi, w_xi, R1)
    return near + direct + closed, err_n + err_d + err_c


def dissipation_lower(mem, xi):
    """Dissipative lower-bound functional at separation xi, as a *A value.

    Two-piece quadrature of the second-difference integrals

        integral over (0, xi/2)   of (2w(xi) - w(xi+2e) - w(xi-2e)) m(2e)/e
        integral over (xi/2, inf) of (2w(xi) - w(2e+xi) + w(2e-xi)) m(2e)/e,

    both nonnegative for concave omega, with w the member's omega and m its
    symbol. The caller divides by A. ``xi`` is a scalar (a float comes
    back) or an array of separations. Past R1 = max(2 xi, 2 delta,
    tail_start) the far piece is the member's exact power-tail series;
    anything but a ``ModulusMember`` is refused with a TypeError. Values
    inside quadrature noise of zero are clamped to zero; a warning fires if
    the raw value is negative beyond its own error bar, which indicates a
    non-concave omega.

    The kernel m(2e)/e is the proof's 2-D form. On a power symbol
    m = c r^-a it is 2^-a times the kernel m(e)/e of the 1-D operator that
    ``kernels.multiplier_of_symbol_1d`` applies, so against that operator
    at a touching pair this D is low by 2^a: the extremal profile at
    N = 2^17 reads 1.9998 for a = 1 and 1.4143 for a = 0.5.
    """
    _member(mem, "dissipation_lower")
    x, shape = _positive(xi, "dissipation")
    val, err = _dissipation_err(mem, x, mem.omega(x), _omega_kinks(mem),
                                _DISS_PER_DECADE, _DISS_ORDER)
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
    _member(mem, "measured_curvature_constant")
    x, shape = _separations(xi)
    if not np.all((0.0 < x) & (x < mem.delta)):
        raise ValueError("curvature route applies below the crossover scale")
    D, _ = _dissipation_err(mem, x, mem.omega(x), _omega_kinks(mem),
                            _DISS_PER_DECADE, _DISS_ORDER)
    return _shaped(_curvature_constants(mem, x, D), shape)


# ---------------------------------------------------------------------------
# criterion reports
# ---------------------------------------------------------------------------

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


def _grid_evaluation(mem, xi_grid, per_decade, order, what):
    """(xi, omega, omega', kinks, D, err) of a criterion's grid, with D the
    raw dissipation and err its error.

    A member keeps the evaluation of its most recent grid, and a call with
    the same separations and quadrature rule returns it. Its arrays are
    read-only; a report copies what it keeps. A non-member is refused, and
    so is an empty grid, which would pass.
    """
    _member(mem, what)
    xi, _ = _positive(default_xi_grid() if xi_grid is None else xi_grid,
                      "criterion")
    if xi.size == 0:
        raise ValueError("a criterion needs at least one separation")
    rule = (per_decade, order)
    memo = mem._grid_memo
    if memo is not None and memo[0] == rule and np.array_equal(memo[1], xi):
        return memo[1:]
    xi = xi.copy()
    w = mem.omega(xi)
    wp = mem.omega_prime(xi)
    kinks = tuple(_omega_kinks(mem))
    D, err = _dissipation_err(mem, xi, w, kinks, per_decade, order)
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
    if below.size == 0:
        return None
    pick = below[:: max(1, below.size // 8)]
    return float(np.min(_curvature_constants(mem, xi[pick], D[pick])))


def burgers_criterion(mem, xi_grid: np.ndarray | None = None, *,
                      per_decade: float = _DISS_PER_DECADE,
                      order: int = _DISS_ORDER) -> CertificateReport:
    """Scalar-advection preservation margins omega * omega' - D/A over a grid.

    The advecting velocity is the solution itself, so increments are bounded
    by omega directly and only the dissipation carries the universal
    constant, the suite's conservative estimate ``DEFAULT_A``. D is the
    2-D dissipation of ``dissipation_lower``, which on power symbols is
    2^-a times that of the 1-D Burgers operator, so against the Burgers
    solver the criterion is conservative by 2^a * A: 4 on critical
    Burgers. PASS means every margin is negative beyond quadrature error.
    The grid is evaluated per block of quadrature nodes, and
    ``sqg_criterion`` on the same member and grid reuses the evaluation.
    """
    xi, w, wp, _, D, err = _grid_evaluation(mem, xi_grid, per_decade, order,
                                            "burgers_criterion")
    side_vals = {}
    C = _curvature_side_value(mem, xi, D)
    if C is not None:
        side_vals["measured_curvature_constant"] = C
    nan = np.full(xi.size, math.nan)
    return CertificateReport(
        kind="burgers", A_used=DEFAULT_A, kappa=mem.kappa, gamma=mem.gamma,
        B=mem.B, delta=mem.delta, xi_grid=xi.copy(), regime=_regimes(xi, mem.delta),
        Omega=nan, OmegaTilde=nan.copy(), D=D.copy(),
        margin=w * wp - D / DEFAULT_A, margin_err=err / DEFAULT_A,
        side_values=side_vals)


def sqg_criterion(mem, A: float = DEFAULT_A,
                  xi_grid: np.ndarray | None = None, *,
                  per_decade: float = _DISS_PER_DECADE,
                  order: int = _DISS_ORDER) -> CertificateReport:
    """Riesz-velocity preservation margins with the crossover regime split.

    Below the crossover the margin is A * (Omega/A) * omega' - D/A; at and
    above it the flow-aligned certificate replaces the Riesz one (so Omega
    is NaN there, and no bar carries its low integral's error), and the
    perpendicular contribution is absorbed into its dissipative counterpart
    provided gamma * A^2 <= 1 (a gating side condition). Two
    non-gating diagnostics are recorded: the low-regime envelope bound
    Omega/A <= B xi (3 + log(delta/xi)), which the construction guarantees
    when gamma <= alpha * kappa, and the sign of the curvature-route factor
    1 - C / (2 A^2 C_alpha kappa) with C the measured quadrature constant.
    The grid is evaluated per block of quadrature nodes, and
    ``burgers_criterion`` on the same member and grid reuses the evaluation.
    """
    xi, w, wp, kinks, D, err_d = _grid_evaluation(mem, xi_grid, per_decade,
                                                  order, "sqg_criterion")
    # below delta Omega adds the low integral and its error to the tail
    tail, err_adv = _riesz_tail(mem, xi, w, kinks, order)
    Omt = w + tail
    Om = np.full(xi.size, math.nan)
    below = xi < mem.delta
    low_bound_ok = True
    if below.any():
        xb = xi[below]
        low, err_low = _low_riesz(mem, xb, kinks, order)
        Om[below] = low + tail[below]
        err_adv[below] += err_low
        envelope = mem.B * xb * (3.0 + np.log(mem.delta / xb))
        low_bound_ok = bool(np.all(Om[below] <= envelope * (1.0 + 1e-9)))
    margin = np.where(below, A * Om * wp, A * Omt * wp) - D / A
    side_cond = {
        "gate:perp_absorption": bool(mem.gamma * A ** 2 <= 1.0),
        "low_regime_envelope_bound": low_bound_ok,
        "gamma_le_alpha_kappa": bool(mem.gamma <= mem.sym.alpha * mem.kappa),
    }
    side_vals = {}
    C = _curvature_side_value(mem, xi, D)
    if C is not None:
        side_vals["measured_curvature_constant"] = C
        side_vals["curvature_sign_factor"] = \
            1.0 - C / (2.0 * A ** 2 * mem.C_alpha * mem.kappa)
    return CertificateReport(
        kind="sqg", A_used=A, kappa=mem.kappa, gamma=mem.gamma, B=mem.B,
        delta=mem.delta, xi_grid=xi.copy(),
        regime=_regimes(xi, mem.delta), Omega=Om, OmegaTilde=Omt, D=D.copy(),
        margin=margin, margin_err=A * np.abs(wp) * err_adv + err_d / A,
        side_conditions=side_cond, side_values=side_vals)
