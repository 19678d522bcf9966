"""Advective and dissipative certificates for moduli of continuity.

The breakthrough argument compares, at a candidate separation xi, an
advective bound on velocity increments against a dissipative lower bound.
The two criteria, the public entry points, evaluate the advective
functionals (the Riesz-increment bound and its flow-aligned variant) and
the dissipative one as columns over a grid of separations, and combine
them into signed margins for the scalar (Burgers) and Riesz-velocity (SQG)
cases. Both take a family member (``moduli.ModulusMember``) and refuse any
other modulus with a TypeError: the tails below are the member's closed
forms.

Normalization: the universal increment constant A enters every functional
only as an outer factor, so all values are stored A-free. Advective columns
are divided by A, the dissipation multiplied by A (the raw two-piece
integral); criteria reinsert the caller's A.

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
one-point grid.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import _EPS
from .moduli import ModulusMember, _separations
from .moduli import build_modulus  # bench/selftest.py asserts this alias
from .quadrature import log_panel_integrals

DEFAULT_A = 2.0
XI_GRID_LO = 1e-6
XI_GRID_HI = 1e3
XI_POINTS_PER_DECADE = 64
# panels per decade and Gauss-Legendre order of the dissipation quadrature;
# the advective integrals take the order
_DISS_PER_DECADE = 2.0
_DISS_ORDER = 12
# the near piece integrates down to this fraction of the separation
_NEAR_FLOOR = 1e-10


def default_xi_grid(lo: float = XI_GRID_LO, hi: float = XI_GRID_HI,
                    per_decade: int = XI_POINTS_PER_DECADE) -> np.ndarray:
    """Geometric separations from lo to hi, ``per_decade`` per decade."""
    if not (0.0 < lo <= hi < math.inf and per_decade > 0):
        raise ValueError("a separation grid needs finite bounds with 0 < lo "
                         f"<= hi and per_decade > 0, got lo={lo!r}, "
                         f"hi={hi!r}, per_decade={per_decade!r}")
    n = int(round(per_decade * math.log10(hi / lo)))
    # at least one interval, so that the grid ends at hi
    return np.geomspace(lo, hi, max(n, 1) + 1) if lo < hi else np.array([lo])


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


def _curvature_constants(mem: ModulusMember, xi: np.ndarray,
                         D: np.ndarray) -> np.ndarray:
    # D / (|omega''(xi)| xi^2 m(xi)), D the raw dissipation at xi
    curv = np.abs(mem.omega_second(xi))
    return D / (curv * xi ** 2 * mem.sym.m(xi))


# ---------------------------------------------------------------------------
# criterion reports
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """Per-separation criterion margins plus the side conditions checked.

    Every column is one array over ``xi_grid``. ``D`` holds the raw
    dissipation (the *A value of ``burgers_criterion``); ``Omega`` and
    ``OmegaTilde`` hold /A values, NaN where a criterion does not use
    them: the Riesz-increment bound, the integral of omega(eta)/eta over
    (0, xi) plus the tail xi * integral of omega(eta)/eta^2 over (xi, inf),
    and the flow-aligned omega(xi) + tail, smaller for a concave omega.
    ``margin`` is the signed criterion value: negative means the modulus is
    preserved at that separation. PASS requires every margin to be strictly
    negative by more than its quadrature error, plus the report's gating
    side conditions. ``side_values["measured_curvature_constant"]`` is the
    least D / (|omega''(xi)| xi^2 m(xi)) over at most ~8 separations below
    the crossover: the measured constant of the curvature-route bound on D.
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
    sum of two integrals, each nonnegative for a concave omega = w,

        over (0, xi/2)   of (2w(xi) - w(xi+2e) - w(xi-2e)) m(2e)/e
        over (xi/2, inf) of (2w(xi) - w(2e+xi) + w(2e-xi)) m(2e)/e,

    its far field past max(2 xi, 2 delta, tail_start) an exact series. On
    a power symbol m = c r^-a the kernel m(2e)/e is 2^-a times the kernel
    m(e)/e of ``kernels.multiplier_of_symbol_1d``, whose operator reads
    2^a D at the extremal profile (ratios 1.9998 at a = 1 and 1.4143 at
    a = 0.5, N = 2^17). So against the Burgers solver the criterion is
    conservative by 2^a * A: 4 on critical Burgers. PASS means every margin
    is negative beyond quadrature error. The grid is evaluated per block of
    quadrature nodes, and ``sqg_criterion`` on the same member and grid
    reuses it.
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
    if not 0.0 < A < math.inf:
        raise ValueError(f"sqg_criterion needs a finite A > 0, got A={A!r}")
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
