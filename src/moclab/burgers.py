"""1-D dissipative Burgers solver and the hat-profile blow-up apparatus.

The evolution is theta_t = theta theta_x - L theta on the 2*pi circle, with
L a nonlocal dissipation given either as a Fourier multiplier P(k) or as a
radial kernel density m (converted through the kernels module).  Time
stepping is the integrating-factor RK4 loop that the 2-D solvers of
``sqg_euler`` share (``fields._IntegratingFactorRK4``): the stiff diagonal
part is applied exactly through exp(-P dt), the quadratic term explicitly
with 2/3-rule dealiasing, so a run with the nonlinearity disabled
reproduces the exact linear solution to roundoff.  This module supplies the
quadratic term, the per-step observation (sup |theta|, the gradient sup and
its running maximum) and the gradient stop rule; its transforms are the
only FFTs of a step.

The data's N is a ceiling, not the grid of every step.  A run goes in
stages N0 < 2 N0 < ... <= N, all through the one loop: it starts on the
coarsest N / 2^i (at least 64 points) that drops only modes at rounding
level, and a stage below N whose top-eighth enstrophy share (the measure
of ``ScalarField1D.spectral_tail_fraction``) passes ``_REFINE_TAIL`` after
a step is zero-padded to twice its points, exactly, and resumes at the
same t.  The dissipation multiplier is evaluated once, at N; each stage
uses its prefix.  Data that needs its full N runs as one stage.

The blow-up side instruments the Lyapunov functional

    L(t) = integral_0^1 theta(x, t) (1 - x) dx,

evaluated spectrally (exactly for band-limited states), together with the
dissipation of the hat profile w(x) = sign(x) max(0, 1 - |x|).  Writing the
operator through increments of w kills the linear region exactly and leaves
finite windows:

    0 < x < 1:  Lw(x) = 2 I[m/z; x, 1-x] + I[(3-x-z) m/z; max(x,1-x), 1+x]
                        + 2 (1-x) T(1+x),          (signed first window)
    x >= 1:     Lw(x) = I[(1+x-y) m/y; x, 1+x] - I[(1-x+y) m/y; x-1, x],

with T(R) = integral_R^inf m/u du.  All windows are proper integrals of m
against piecewise-smooth weights; the one log-panel rule of ``quadrature``
(in ln z, the core radius pinned, windows batched in node-bounded blocks)
handles the kernel singularity.  On (0, 1/2) every window is nonnegative,
so the singular part of integral |Lw| collapses by Fubini to integrals of m
itself; the finite value of integral_0^1 m dr is certified first by a
per-decade ratio test that refuses kernels whose decade masses shrink too
slowly to trust a geometric remainder.

Verdicts are deliberately conservative: BLOWUP needs the gradient threshold
plus an accelerating trend plus domination of the comparison Riccati
solution; REGULAR needs a completed horizon with a bounded gradient, and is
flagged as certified only when a representable modulus certificate backs
the bound.  Everything else stays UNRESOLVED.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, rfft

from .fields import (_CFL, _DT_FLOOR, ScalarField1D, _IntegratingFactorRK4,
                     _refuse_bad_input, dealias_cutoff, spectral_tail_1d)
from .kernels import multiplier_of_symbol_1d
from .quadrature import (classify_decades, decade_increments, graded_edges,
                         log_edges, log_panel_blocks, log_panel_rows,
                         panel_nodes)
from .records import BLOWUP, REGULAR, UNRESOLVED, RunRecord
from .symbols import DissipationSymbol

# Per-decade kernel-mass classifier: decade masses must have settled ratios
# at or below _CONV_RATIO with drift below _CONV_DRIFT before a geometric
# remainder is trusted; ratios pinned at or above _DIV_RATIO certify
# divergence.  Anything between is refused.
_MASS_DECADES = 40
_MASS_WINDOW = 6
_CONV_RATIO = 0.95
_CONV_DRIFT = 0.005
_DIV_RATIO = 0.999

# the log-panel rule of L w: panels per decade and Gauss-Legendre order;
# compute_Lw refines it once to check the integral of |L w|
_LW_PER_DECADE = 4
_LW_ORDER = 10

# ulps design_blowup_data may add to the bisected amplitude
_DESIGN_ULP_STEPS = 64
# the blow-up condition asks L(0)^2 to beat this multiple of
# (integral |Lw|) * sup |theta0|, so that it holds strictly
_BLOWUP_MARGIN = 1.1

# detect_blowup: the late gradient slope must reach _ACCEL_FACTOR times the
# early one, the Lyapunov series stay within _ODE_RTOL of the comparison
# solution, and a certified REGULAR run keep its gradient sup within
# _REGULAR_TOL of the certified bound
_ACCEL_FACTOR = 2.0
_ODE_RTOL = 0.05
_REGULAR_TOL = 1e-2


class KernelIntegrabilityError(ValueError):
    """The kernel mass near 0 could not be certified finite."""


class KernelDivergenceError(KernelIntegrabilityError):
    """integral_0^1 m is certified divergent; the blow-up route needs it finite."""


class KernelUndecidedError(KernelIntegrabilityError):
    """Decade masses shrink too slowly for a trustworthy remainder bound."""


# ----------------------------------------------------------------------
# Lyapunov functional
# ----------------------------------------------------------------------

def _lyapunov_weights(N):
    # u_k = w_k * integral_0^1 (1-x) e^{ikx} dx with the rfft coefficient
    # convention (w = 2 except DC and Nyquist).
    k = np.arange(N // 2 + 1, dtype=float)
    out = np.empty(N // 2 + 1, dtype=complex)
    out[0] = 0.5
    ik = 1j * k[1:]
    out[1:] = -1.0 / ik + (np.exp(ik) - 1.0) / ik**2
    w = np.full(N // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w * out


def lyapunov(fld):
    """integral_0^1 theta(x) (1 - x) dx, exact for the trig interpolant.

    The hat weight is integrated against every active mode in closed form,
    so band-limited fields are handled without quadrature error and the
    value is deterministic.
    """
    return float(np.real(np.dot(fld.coeffs(), _lyapunov_weights(fld.N))))


# ----------------------------------------------------------------------
# kernel-mass certification
# ----------------------------------------------------------------------

def kernel_mass(m):
    """Certified value of integral_0^1 m(r) dr, or a refusal.

    Decade masses v_j, the integrals of m over [10^-(j+1), 10^-j] for
    j < _MASS_DECADES (``decade_increments``), are classified by their
    trailing ratios: settled geometric decay certifies convergence (the
    remainder is summed as a geometric tail and charged to the error), a
    plateau at 1 certifies divergence, and the slow-decay middle ground
    raises KernelUndecidedError instead of guessing.

    Returns (mass, err).
    """
    v, quad_err = decade_increments(m, 1.0, _MASS_DECADES)
    if np.any(v < 0.0):
        raise ValueError("kernel density must be nonnegative")
    if v[-1] <= 1e-280:
        return float(np.sum(v)), quad_err
    label, window = classify_decades(v, _MASS_WINDOW, _CONV_RATIO,
                                     _DIV_RATIO, _CONV_DRIFT)
    if label == "divergent":
        raise KernelDivergenceError(
            "per-decade kernel mass does not decay (last ratio %.6f); "
            "integral_0^1 m is divergent" % window[-1])
    if label == "convergent":
        # no ratio left (every denominator zero) leaves no remainder
        r = float(np.max(window, initial=0.0))
        rem = float(v[-1]) * r / (1.0 - r)
        return float(np.sum(v)) + rem, quad_err + rem
    raise KernelUndecidedError(
        "per-decade kernel mass shrinks too slowly to certify a finite "
        "integral (trailing ratios %.4f..%.4f); refusing to run the "
        "blow-up apparatus on this kernel" % (window[0], window[-1]))


# ----------------------------------------------------------------------
# dissipation of the hat profile
# ----------------------------------------------------------------------

def _panel_quad(f, lo, hi, x, *, per_decade, order, kinks=()):
    """Integrals of f(z, x) over the windows [lo[i], hi[i]], f called once
    per block of the log-panel rule on its nodes; empty windows give 0."""
    lo, hi, x = np.broadcast_arrays(*map(np.atleast_1d, (lo, hi, x)))
    out = np.zeros(lo.shape)
    live = np.flatnonzero(hi > lo)
    for at, rows in log_panel_blocks(lo[live], hi[live], per_decade, order,
                                     kinks):
        i = live[at]
        out[i] = rows.integrate(f(rows.nodes, rows.spread(x[i])))
    return out


def _m_over_r2_tail(sym, R):
    """integral_R^inf m(u)/u^2 du for R at or beyond the power tail."""
    R = max(R, sym.core_radius)
    return sym.tail_coeff * R ** (-1.0 - sym.alpha) / (1.0 + sym.alpha)


def _wedge_diss_inside(sym, x, per_decade, order):
    # Windows of the increment form for an array of 0 < x < 1; the linear
    # region of w cancels exactly and never enters.
    windows = functools.partial(_panel_quad, per_decade=per_decade,
                                order=order, kinks=(sym.core_radius,))
    t_tail = 2.0 * (1.0 - x) * sym.tail_integral_over_r(1.0 + x)
    t_far = windows(lambda z, xc: (3.0 - xc - z) * sym(z) / z,
                    np.maximum(x, 1.0 - x), 1.0 + x, x)
    t_near = np.empty_like(x)
    low = x <= 0.5
    xl, xh = x[low], x[~low]
    t_near[low] = 2.0 * windows(lambda z, xc: sym(z) / z, xl, 1.0 - xl, xl)
    t_near[~low] = windows(lambda z, xc: ((1.0 - xc) - z) * sym(z) / z,
                           1.0 - xh, xh, xh)
    return t_near + t_far + t_tail


def _wedge_diss_outside(sym, x, per_decade, order):
    windows = functools.partial(_panel_quad, per_decade=per_decade,
                                order=order, kinks=(sym.core_radius,))
    t_near = windows(lambda y, xc: (1.0 - xc + y) * sym(y) / y,
                     np.maximum(x - 1.0, 1e-18 * x), x, x)
    t_far = windows(lambda y, xc: (1.0 + xc - y) * sym(y) / y, x, x + 1.0, x)
    return t_far - t_near


def wedge_dissipation(sym, x, *, per_decade=_LW_PER_DECADE, order=_LW_ORDER):
    """Pointwise L w at x (scalar or array), odd in x by construction."""
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("wedge_dissipation needs finite x")
    x1 = np.atleast_1d(xs)
    a = np.abs(x1)
    out = np.zeros_like(a)
    inside = (a > 0.0) & (a < 1.0)
    out[inside] = _wedge_diss_inside(sym, a[inside], per_decade, order)
    outside = a >= 1.0
    out[outside] = _wedge_diss_outside(sym, a[outside], per_decade, order)
    out = np.where(x1 < 0.0, -out, out)
    return out if xs.ndim else float(out[0])


def _log_slope_sup(m, lo=1e-10, hi=1e2, samples=1200):
    # sup of r |m'| / m measured as the log-log slope magnitude.
    r = np.geomspace(lo, hi, samples)
    h = 1e-4
    up = np.log(m(r * math.exp(h)))
    dn = np.log(m(r * math.exp(-h)))
    return float(np.max(np.abs(up - dn)) / (2.0 * h))


def _abs_integral(f, a, b, edges, order):
    # integral of |f| over panels; any sign change is located and pinned so
    # the absolute value stays smooth inside every panel. f takes arrays
    # for the scan and the nodes, and scalars for brentq.
    from scipy.optimize import brentq

    scan = np.linspace(a, b, 65)[1:-1]
    vals = f(np.concatenate(([a + 1e-12 * (b - a)], scan)))
    pts = [a, b]
    for lo, hi, v_lo, v_hi in zip(np.concatenate(([a], scan[:-1])), scan,
                                  vals[:-1], vals[1:]):
        if v_lo * v_hi < 0.0:
            pts.append(brentq(f, lo, hi, xtol=1e-13))
    full = np.unique(np.concatenate([edges, np.asarray(pts)]))
    full = full[(full >= a) & (full <= b)]
    nodes, weights = panel_nodes(full, order)
    return float(np.dot(weights, np.abs(f(nodes))))


@dataclass
class BlowupInstrumentation:
    """Measured ingredients of the hat-profile blow-up argument.

    ``kernel_functional`` is the half-line integral of |L w|; the closed
    form bounds 2 A + C C0 (outer region) and 6 A + 3 C0 + C0/alpha (inner
    region) are checked as inequalities against the measured pieces, never
    used as values.
    """

    x_table: np.ndarray
    Lw_table: np.ndarray
    kernel_functional: float
    i_inside: float
    i_outside: float
    integral_error: float
    far_remainder: float
    kernel_mass: float
    kernel_mass_err: float
    C0: float
    C_ratio: float
    alpha: float
    c1_bound: float
    c2_bound: float
    bounds_hold: bool
    warnings: list = field(default_factory=list)


def _abs_lw_integrals(sym, per_decade, order, mass, C):
    """(i_inside, i_outside, far_remainder) at one quadrature refinement;
    ``C`` is the symbol's ``_log_slope_sup``."""
    kinks = (sym.core_radius,)

    def window(f, lo, hi, kinks=kinks):
        rows = log_panel_rows(lo, hi, per_decade, order, kinks)
        return float(rows.integrate(f(rows.nodes))[0])

    # (0, 1/2]: every window of Lw is nonnegative, so Fubini collapses the
    # x-integral onto proper integrals of m against explicit weights.
    p_near = (mass - window(sym, 0.5, 1.0)) \
        + window(lambda z: (1.0 - z) * sym(z) / z, 0.5, 1.0)
    p_near *= 2.0

    def mid_weight(z):
        az = np.maximum(1.0 - z, z - 1.0)
        return sym(z) / z * ((3.0 - z) * (0.5 - az) - (0.25 - az * az) / 2.0)

    p_mid = window(mid_weight, 0.5, 1.5, kinks=(1.0,) + kinks)

    gl_nodes, gl_weights = panel_nodes(np.linspace(0.0, 0.5, 9), order)
    p_tail = 2.0 * float(np.dot(gl_weights, (1.0 - gl_nodes)
                                * sym.tail_integral_over_r(1.0 + gl_nodes)))

    # [1/2, 1): pointwise evaluation; the x-derivative degenerates at 1, so
    # panels grade toward that edge and sign changes are pinned.
    def inside(xx):
        return wedge_dissipation(sym, xx, per_decade=per_decade, order=order)

    in_edges = np.concatenate([np.linspace(0.5, 0.75, 5)[:-1],
                               1.0 - graded_edges(0.25, 26)[::-1]])
    i_upper = _abs_integral(inside, 0.5, 1.0 - 1e-13,
                            np.unique(np.clip(in_edges, 0.5, 1.0 - 1e-13)),
                            order)
    i_inside = p_near + p_mid + p_tail + i_upper

    # [1, X]: Lw is negative (the closer window sees the larger kernel), and
    # beyond X the second-order window asymptote |Lw| ~ ((C+1)/3) m(x)/x^2
    # integrates exactly against the power tail.
    target = 1e-9 * max(i_inside, 1.0)
    X = 8.0
    while ((C + 1.0) / 3.0) * _m_over_r2_tail(sym, X - 1.0) > target and X < 1e6:
        X *= 4.0
    out_edges = np.unique(np.concatenate([
        1.0 + graded_edges(1.0, 30),
        log_edges(2.0, X, per_decade)]))
    nodes, weights = panel_nodes(out_edges, order)
    vals = -_wedge_diss_outside(sym, nodes, per_decade, order)
    far_rem = ((C + 1.0) / 3.0) * _m_over_r2_tail(sym, X - 1.0)
    i_outside = float(np.dot(weights, vals)) + far_rem
    return i_inside, i_outside, far_rem


# the x of compute_Lw's L w table: inside the support, then past it
_LW_TABLE_X = np.concatenate([np.geomspace(1e-4, 0.96, 40),
                              np.linspace(1.04, 6.0, 25)])


def compute_Lw(sym):
    """L w on a fixed table of x, and the certified integral of |L w|.

    Refuses kernels whose mass near 0 cannot be certified finite (the
    hypothesis of the blow-up lemma).  The integral is computed on the rule
    of ``_LW_PER_DECADE`` panels per decade at order ``_LW_ORDER``, then at
    doubled panel density, order + 4, and reported refined, with the
    relative difference as ``integral_error``.
    """
    if not isinstance(sym, DissipationSymbol):
        raise TypeError("compute_Lw expects a DissipationSymbol")
    mass, mass_err = kernel_mass(sym)
    warnings = []
    if sym.sqg_admissible:
        warnings.append("symbol flags a divergent kernel mass, yet the "
                        "decade classifier certified it finite")

    C = _log_slope_sup(sym)
    i_in, i_out, _ = _abs_lw_integrals(sym, _LW_PER_DECADE, _LW_ORDER, mass,
                                       C)
    coarse = i_in + i_out
    i_in, i_out, far_rem = _abs_lw_integrals(sym, 2 * _LW_PER_DECADE,
                                             _LW_ORDER + 4, mass, C)
    total = i_in + i_out
    integral_error = abs(total - coarse) / abs(total)

    C0 = float(sym(1.0))
    c1 = 2.0 * mass + C * C0
    c2 = 6.0 * mass + 3.0 * C0 + C0 / sym.alpha
    bounds_hold = (i_out <= c1 * (1.0 + 1e-9)) and (i_in <= c2 * (1.0 + 1e-9))
    if not bounds_hold:
        warnings.append("measured |Lw| integrals exceed the closed-form "
                        "bounds; quadrature or symbol conditions suspect")

    table = wedge_dissipation(sym, _LW_TABLE_X)

    return BlowupInstrumentation(
        x_table=_LW_TABLE_X.copy(),
        Lw_table=table,
        kernel_functional=total,
        i_inside=i_in,
        i_outside=i_out,
        integral_error=integral_error,
        far_remainder=far_rem,
        kernel_mass=mass,
        kernel_mass_err=mass_err,
        C0=C0,
        C_ratio=C,
        alpha=float(sym.alpha),
        c1_bound=c1,
        c2_bound=c2,
        bounds_hold=bounds_hold,
        warnings=warnings,
    )


# ----------------------------------------------------------------------
# blow-up data design
# ----------------------------------------------------------------------

@dataclass
class DesignReport:
    """Initial data scaled to the Lyapunov blow-up condition.

    ``condition_value`` is L(0)^2 - margin * kernel_functional * sup, with
    margin ``_BLOWUP_MARGIN``, measured on the returned grid data; positive
    means the certificate holds strictly.
    """

    field: ScalarField1D
    lam: float
    lyapunov0: float
    sup0: float
    kernel_functional: float
    margin: float
    condition_value: float

    @property
    def passes(self):
        return self.condition_value > 0.0


def blowup_condition(fld, kernel_functional):
    """L(0)^2 - margin * (integral |Lw|) * sup |theta0| for given data, with
    margin ``_BLOWUP_MARGIN``."""
    return (lyapunov(fld) ** 2
            - _BLOWUP_MARGIN * kernel_functional * fld.linf())


def design_blowup_data(sym, *, N=4096, instrumentation=None):
    """Scale the odd profile sin x until the Lyapunov condition holds
    strictly.

    The amplitude enters the condition quadratically through L(0)^2 and
    linearly through the sup norm, so a doubling search always exits; a
    bisection then pins the smallest passing amplitude.
    """
    instr = instrumentation if instrumentation is not None else compute_Lw(sym)
    I = instr.kernel_functional
    base = ScalarField1D.from_function(N, np.sin)
    L_phi = lyapunov(base)
    sup_phi = base.linf()

    def condition(lam):
        return (lam * L_phi) ** 2 - _BLOWUP_MARGIN * I * lam * sup_phi

    hi = 1.0
    while condition(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise RuntimeError("amplitude search failed to close")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if condition(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    # the closed form and the condition measured on the scaled grid data
    # differ by rounding: step up by ulps until the measured one holds
    lam = hi
    for _ in range(_DESIGN_ULP_STEPS):
        fld = ScalarField1D(lam * base.values)
        value = blowup_condition(fld, I)
        if value > 0.0:
            break
        lam = math.nextafter(lam, math.inf)
    else:
        raise RuntimeError("designed data misses the blow-up condition "
                           f"by {value:.3g} after {_DESIGN_ULP_STEPS} ulps")
    return DesignReport(
        field=fld,
        lam=lam,
        lyapunov0=lyapunov(fld),
        sup0=fld.linf(),
        kernel_functional=I,
        margin=_BLOWUP_MARGIN,
        condition_value=value,
    )


# ----------------------------------------------------------------------
# time stepping
# ----------------------------------------------------------------------

# Stages of simulate_burgers: a stage below the data's N doubles once the
# enstrophy share of the top eighth of its active band passes _REFINE_TAIL;
# the first is the coarsest N / 2^i of at least _MIN_STAGE_N points whose
# modes above the dealias cutoff carry at most _DROP_RTOL of the l2 norm.
_REFINE_TAIL = 1e-8
_MIN_STAGE_N = 64
_DROP_RTOL = 1e-13


def _resolve_multiplier(k, sym, P):
    if P is not None and sym is not None:
        raise ValueError("supply either a symbol or a multiplier, not both")
    if P is not None:
        Pk = np.asarray(P(k), dtype=float)
        label = getattr(P, "label", "multiplier")
    elif sym is not None:
        Pk = np.asarray(multiplier_of_symbol_1d(sym, k), dtype=float)
        label = getattr(sym, "label", "symbol")
    else:
        return np.zeros_like(k), "none"
    if Pk.shape != k.shape:
        raise ValueError("multiplier must evaluate elementwise on wavenumbers")
    Pk = Pk.copy()
    Pk[0] = 0.0  # mean mode never damped: exact mean conservation
    return Pk, label


def _regrid(spec, n, m):
    """The rfft spectrum of an n-point grid carried to m points (m / n a
    power of two): modes above min(n, m) / 2 dropped or zero-padded, the
    scale m / n exact. The coarser grid's Nyquist mode is a cosine there
    and half of a complex mode on the finer grid, so padding halves it and
    restricting doubles its real part; padding then restricting returns a
    spectrum with a real Nyquist mode bit for bit."""
    if m == n:
        return spec
    j = min(n, m) // 2
    out = np.zeros(m // 2 + 1, dtype=complex)
    out[:j + 1] = spec[:j + 1] * (m / n)
    out[j] = out[j].real * (0.5 if m > n else 2.0)
    return out


def _start_grid(spec, N):
    """Coarsest stage N / 2^i (even, at least _MIN_STAGE_N) of data with
    rfft spectrum ``spec``: every mode above its dealias cutoff carries at
    most _DROP_RTOL of the data's l2 norm, and its restriction passes the
    refine rule."""
    power = np.abs(spec) ** 2
    above = np.cumsum(power[::-1])[::-1]  # power in the modes >= k
    n = N
    while n % 4 == 0 and n // 2 >= _MIN_STAGE_N:
        m = n // 2
        if above[dealias_cutoff(m) + 1] > _DROP_RTOL ** 2 * above[0] or \
                spectral_tail_1d(_regrid(spec, N, m), m) > _REFINE_TAIL:
            break
        n = m
    return n


def _sup_abs(a):
    return float(max(a.max(), -a.min()))


class _Grid:
    """One stage's grid of n points: its prefix of the run's multiplier,
    the dealiased quadratic term, the per-step observation and the
    Lyapunov weights."""

    def __init__(self, n, Pk):
        self.n = n
        self.Pk = Pk[:n // 2 + 1]
        k = np.arange(n // 2 + 1, dtype=float)
        # real factors of complex spectra are stored complex: numpy would
        # cast them on every product, to the same values
        self.mask = (k <= dealias_cutoff(n)).astype(complex)
        self.ik = 1j * k
        self.half_ik = 0.5 * self.ik
        self.ly_u = _lyapunov_weights(n)

    def nl(self, spec_hat, v=None):
        if v is None:
            v = irfft(spec_hat, n=self.n)
        q = rfft(v * v)
        q *= self.mask
        return self.half_ik * q

    def observe(self, spec):
        """v, sup |v| and the gradient sup: the step size and the stop rule
        read them every step."""
        v = irfft(spec, n=self.n)
        return v, _sup_abs(v), _sup_abs(irfft(self.ik * spec, n=self.n))


def simulate_burgers(theta0, T, *, sym=None, P=None, nonlinear=True,
                     dt_max=None, dt_floor=_DT_FLOOR, grad_stop=None,
                     record_every=1):
    """Integrate theta_t = theta theta_x - L theta up to time T.

    The data's N is the ceiling of the run, which goes in stages
    N0 < 2 N0 < ... <= N through one loop. N0 is the coarsest N / 2^i (even,
    at least 64) whose restriction drops only modes at rounding level and
    passes the refine rule: after each step, a stage below N whose
    enstrophy share in the top eighth of its active band (the measure of
    ``ScalarField1D.spectral_tail_fraction``) passes ``_REFINE_TAIL`` is
    zero-padded to twice its N, exactly, and the run resumes from the same
    t. A stage at N runs on; data that needs its full N is one stage.

    Parameters
    ----------
    theta0 : ScalarField1D
        Initial data; its N caps the stages.
    T : float
        Time horizon.
    sym, P : DissipationSymbol or multiplier callable, mutually exclusive
        Dissipation specification, evaluated once at N; both None runs the
        inviscid equation.
    nonlinear : bool
        Disable to recover the exact linear flow (integrating factor only).
    dt_max : float or None
        Cap on the step (default T/64), the same for every stage. The
        advective restriction dt <= 0.4 dx / sup |theta| (``fields._CFL``)
        takes the dx of the current stage.
    dt_floor : float
        Hard floor; crossing it terminates with code "dt-floor".
    grad_stop : float or None
        Terminate with code "gradient-threshold" once sup |theta_x|
        reaches this value (blow-up bracketing).
    record_every : int
        Sampling cadence of the diagnostic series, in steps of the run.

    Returns a RunRecord with series (t, linf, grad_linf, l2, lyapunov, dt),
    each row observed on the grid of its stage (a refinement step on the
    new grid). sup |theta| and the gradient sup are evaluated every step,
    since the step size and the stop rule read them, and the running
    gradient maximum lands in the metadata; l2 and lyapunov are evaluated
    on recorded rows only. ``meta["stages"]`` lists each stage's start t, N
    and step count; ``meta["cap_unresolved_t"]`` is the first t at which
    the stage at N failed the refine rule (None if never) and
    ``meta["final_tail"]`` the final state's tail share. Neither decides a
    verdict. ``final_state`` is padded back to N. Non-finite data and a
    non-finite or negative multiplier are refused with a ValueError.
    """
    N = theta0.N
    Pk, label = _resolve_multiplier(theta0.wavenumbers(), sym, P)
    # refused at N: a stage's prefix could miss what is bad
    _refuse_bad_input("theta0", theta0.spec, nonnegative=False)
    _refuse_bad_input("dissipation multiplier", Pk)
    g = _Grid(_start_grid(theta0.spec, N), Pk)
    spec = _regrid(theta0.spec, N, g.n)

    # each state a stage steps from was observed when it was yielded (or
    # padded), so its grid values are those of the last observation; every
    # stage has the run's horizon, so the same default step cap
    def stage_run(spec, t0):
        return _IntegratingFactorRK4(
            spec, T, g.Pk, h=2.0 * np.pi / g.n, dt_max=dt_max,
            dt_floor=dt_floor, nonlinear=g.nl if nonlinear else None,
            grid=lambda s: (v, linf), t0=t0)

    rows = {c: [] for c in ("t", "linf", "grad_linf", "l2", "lyapunov", "dt")}

    # l2 and the Lyapunov value only feed recorded rows
    def record(t, dt, spec):
        l2 = math.sqrt(2.0 * np.pi * float(np.mean(v * v)))
        ly = float(np.real(np.dot(spec / g.n, g.ly_u)))
        for col, val in zip(rows, (t, linf, grad, l2, ly, dt)):
            rows[col].append(val)

    v, linf, grad = g.observe(spec)
    linf0, grad0 = linf, grad
    max_grad, max_grad_t = grad, 0.0
    run = stage_run(spec, 0.0)
    record(0.0, run.step_size(0.0, linf), spec)
    stages = [{"t": 0.0, "N": g.n, "steps": 0}]
    cap_t = (0.0 if g.n == N and spectral_tail_1d(spec, N) > _REFINE_TAIL
             else None)
    steps, hit_stop = 0, False

    started = time.perf_counter()
    while True:
        stage, refine = stages[-1], False
        for t, dt, spec in run:
            v, linf, grad = g.observe(spec)
            if g.n < N or cap_t is None:
                over = spectral_tail_1d(spec, g.n) > _REFINE_TAIL
                refine = over and g.n < N
                if over and not refine:
                    cap_t = t
            if refine:
                spec = _regrid(spec, g.n, 2 * g.n)
                g = _Grid(2 * g.n, Pk)
                v, linf, grad = g.observe(spec)
                stages.append({"t": t, "N": g.n, "steps": 0})
            if grad > max_grad:
                max_grad, max_grad_t = grad, t
            hit_stop = grad_stop is not None and grad >= grad_stop
            if (steps + run.steps) % record_every == 0 or run.reached(t) \
                    or hit_stop:
                record(t, dt, spec)
            if hit_stop:
                run.termination = "gradient-threshold"
            if hit_stop or refine:
                break
        stage["steps"] = run.steps
        steps += run.steps
        if hit_stop or not refine:
            break
        run = stage_run(spec, t)
    wall = time.perf_counter() - started

    return RunRecord(
        equation="burgers",
        columns=("t", "linf", "grad_linf", "l2", "lyapunov", "dt"),
        series=rows,
        termination=run.termination,
        meta={
            "N": N, "T": T, "cfl": _CFL, "dt_max": run.dt_max,
            "dt_floor": dt_floor, "nonlinear": bool(nonlinear),
            "multiplier": label, "linf0": linf0, "grad0": grad0,
            "steps": steps, "max_grad": max_grad, "max_grad_t": max_grad_t,
            "record_every": record_every, "grad_stop": grad_stop,
            "stages": stages, "cap_unresolved_t": cap_t,
            "final_tail": spectral_tail_1d(spec, g.n),
        },
        wall_time=wall,
        final_state=ScalarField1D.from_spectrum(_regrid(spec, g.n, N), N),
    )


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------

def comparison_lyapunov(t, y0, c):
    """Closed-form solution of y' = y^2 - c, y(0) = y0.

    Returns (y(t), t_star); t_star is the blow-up time when y0 exceeds
    sqrt(c), else None.  Values past t_star are +inf.
    """
    t = np.asarray(t, dtype=float)
    if c < 0.0:
        raise ValueError("comparison constant must be nonnegative")
    if c == 0.0:
        if y0 == 0.0:
            return np.zeros_like(t), None
        if y0 < 0.0:
            return y0 / (1.0 - y0 * t), None
        tstar = 1.0 / y0
        return np.where(t < tstar, y0 / (1.0 - y0 * t), np.inf), tstar
    rc = math.sqrt(c)
    if y0 > rc:
        tstar = 0.5 / rc * math.log((y0 + rc) / (y0 - rc))
        arg = rc * (tstar - t)
        y = np.where(t < tstar, rc / np.tanh(np.maximum(arg, 1e-300)), np.inf)
        return y, tstar
    if y0 == rc:
        return np.full_like(t, rc), None
    if y0 > -rc:
        return -rc * np.tanh(rc * t - math.atanh(y0 / rc)), None
    if y0 == -rc:
        return np.full_like(t, -rc), None
    z = -y0 / rc
    t0 = 0.5 / rc * math.log((z + 1.0) / (z - 1.0))
    return -rc / np.tanh(rc * (t + t0)), None


@dataclass
class VerdictReport:
    """Outcome of blow-up detection with the evidence that produced it."""

    verdict: str
    reason: str
    certified: bool = False
    certified_B: float = None
    blowup_bracket: tuple = None
    ode_time: float = None
    grad_ratio: float = float("nan")
    superlinear_ok: bool = None
    ode_ok: bool = None
    checks: dict = field(default_factory=dict)


def detect_blowup(record, instrumentation=None, *, certified_B=None,
                  grad_factor=1e3):
    """Classify a run as BLOWUP / REGULAR / UNRESOLVED.

    BLOWUP needs three independent signatures: the gradient sup crossing
    ``grad_factor`` times its initial value, an accelerating growth trend
    (late slope at least ``_ACCEL_FACTOR`` times the early one), and the
    Lyapunov series dominating the comparison Riccati solution within
    ``_ODE_RTOL`` up to the crossing.  REGULAR needs the horizon reached
    with the gradient bounded; it is *certified* only when a representable
    modulus certificate value is supplied and respected (to
    ``_REGULAR_TOL``).  Contradictions surface as UNRESOLVED with the
    failed checks attached.

    Sets ``record.verdict`` and returns a VerdictReport.
    """
    def verdict(v, reason, **evidence):
        record.verdict = v
        return VerdictReport(v, reason, **evidence)

    t = record["t"]
    grad = record["grad_linf"]
    lyap = record["lyapunov"]
    linf = record["linf"]
    checks = {}

    linf0 = float(record.meta.get("linf0", linf[0]))
    grad0 = float(record.meta.get("grad0", grad[0]))
    if grad0 == 0.0:
        # constant data, zero included, is an exact steady solution:
        # theta_x = 0, L c = 0 and the mean mode is never damped
        why = ("zero initial data" if linf0 == 0.0 else
               "constant initial data is an exact steady solution")
        return verdict(REGULAR, why, certified=True,
                       certified_B=certified_B, grad_ratio=0.0)

    max_grad = float(record.meta.get("max_grad", np.max(grad)))
    grad_ratio = max_grad / grad0
    checks["grad_ratio"] = grad_ratio
    threshold = grad_factor * grad0
    crossed = np.nonzero(grad >= threshold)[0]

    if crossed.size:
        idx = int(crossed[0])
        bracket = (float(t[idx - 1]) if idx > 0 else 0.0, float(t[idx]))
        slopes = np.diff(grad[:idx + 1]) / np.maximum(np.diff(t[:idx + 1]),
                                                      1e-300)
        if slopes.size >= 4:
            q = max(1, slopes.size // 4)
            early = float(np.mean(slopes[:q]))
            late = float(np.mean(slopes[-q:]))
            checks["early_slope"] = early
            checks["late_slope"] = late
            superlinear_ok = late >= _ACCEL_FACTOR * max(early, 0.0) > 0.0
        else:
            superlinear_ok = False
            checks["slope_samples"] = int(slopes.size)

        if instrumentation is None:
            return verdict(
                UNRESOLVED, "gradient threshold crossed but no kernel "
                "functional supplied for the comparison bound",
                blowup_bracket=bracket, grad_ratio=grad_ratio,
                superlinear_ok=superlinear_ok, checks=checks)

        c = instrumentation.kernel_functional * linf0
        y0 = float(lyap[0])
        checks["ode_constant"] = c
        ode_ok = False
        tstar = None
        if y0 > math.sqrt(c):
            sel = t <= bracket[1] + 1e-300
            y, tstar = comparison_lyapunov(t[sel], y0, c)
            finite = np.isfinite(y)
            if np.any(finite):
                ratio = lyap[sel][finite] / y[finite]
                checks["ode_worst_ratio"] = float(np.min(ratio))
                ode_ok = bool(np.all(ratio >= 1.0 - _ODE_RTOL))
        else:
            checks["ode_worst_ratio"] = float("nan")

        if superlinear_ok and ode_ok:
            return verdict(
                BLOWUP, "gradient threshold crossed with accelerating "
                "growth; Lyapunov series dominates the comparison solution",
                blowup_bracket=bracket, ode_time=tstar,
                grad_ratio=grad_ratio, superlinear_ok=True, ode_ok=True,
                checks=checks)
        why = []
        if not superlinear_ok:
            why.append("growth trend not accelerating")
        if not ode_ok:
            why.append("Lyapunov series fell below the comparison solution")
        return verdict(
            UNRESOLVED, "gradient threshold crossed but " + "; ".join(why),
            blowup_bracket=bracket, ode_time=tstar, grad_ratio=grad_ratio,
            superlinear_ok=superlinear_ok, ode_ok=ode_ok, checks=checks)

    if record.termination == "completed":
        if certified_B is not None:
            if max_grad <= certified_B * (1.0 + _REGULAR_TOL):
                return verdict(
                    REGULAR, "horizon reached; gradient within the "
                    "certified modulus bound", certified=True,
                    certified_B=certified_B, grad_ratio=grad_ratio,
                    checks=checks)
            return verdict(
                UNRESOLVED, "gradient exceeded the certified modulus bound "
                "without crossing the blow-up threshold", certified=False,
                certified_B=certified_B, grad_ratio=grad_ratio, checks=checks)
        return verdict(
            REGULAR, "horizon reached with bounded gradient; no pointwise "
            "certificate supplied", certified=False, grad_ratio=grad_ratio,
            checks=checks)

    if record.termination == "dt-floor":
        return verdict(
            UNRESOLVED, "time step collapsed before the horizon "
            "(unresolved, blow-up suspected)", grad_ratio=grad_ratio,
            checks=checks)
    return verdict(UNRESOLVED, "run ended early (%s)" % record.termination,
                   grad_ratio=grad_ratio, checks=checks)


def check_lyapunov_inequality(record, kernel_functional):
    """Worst residual of the discrete Lyapunov differential inequality.

    The inequality dL/dt >= (3/2) L^2 - integral |theta| |Lw| is checked
    with forward differences and the sup-norm weakening of the last term.
    It only holds while the solution is resolved, so steps are kept while
    the shock-width proxy sup|theta| / sup|theta_x| stays above one grid
    cell at both endpoints, each row's cell that of the stage it was
    observed on (``meta["stages"]``; a record without stages was observed
    on ``meta["N"]`` points throughout).

    Returns (worst_residual, index); a residual below the discretization
    error on a resolved step signals that the run contradicts the Riccati
    mechanism.
    """
    t = record["t"]
    L = record["lyapunov"]
    linf = record["linf"]
    grad = record["grad_linf"]
    if len(t) < 2:
        raise ValueError("record too short for a derivative check")
    stages = record.meta.get("stages") or [{"t": 0.0, "N": record.meta["N"]}]
    at = np.searchsorted([s["t"] for s in stages], t, side="right") - 1
    h = 2.0 * np.pi / np.array([s["N"] for s in stages])[at]
    ok = linf / np.maximum(grad, 1e-300) >= h
    keep = ok[:-1] & ok[1:] & (np.diff(t) > 0.0)
    if not np.any(keep):
        raise ValueError("no resolved steps to check")
    dt = np.diff(t)
    lhs = np.diff(L) / np.maximum(dt, 1e-300)
    rhs = 1.5 * L[:-1] ** 2 - linf[:-1] * kernel_functional
    res = np.where(keep, lhs - rhs, np.inf)
    i = int(np.argmin(res))
    return float(res[i]), i
