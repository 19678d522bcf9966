"""2D pseudo-spectral solvers for generalized SQG and the P-Euler equation.

Two velocity laws share one advection core.  The SQG law reconstructs
u from the perpendicular Riesz transform (multiplier i k^perp / |k|) and
dissipates through a radial Fourier multiplier P(|k|) applied with an
integrating factor inside RK4.  The P-Euler law uses i k^perp P(|k|) / |k|^2
and no dissipation, so the same stepper runs with a unit integrating
factor and conserves every transported integral up to dealiasing error.
The velocity multipliers and the wavenumber grids come from ``fields``,
and the run loop is the staged integrating-factor RK4 loop that 1-D
Burgers shares (``fields._StagedRun``), so a 2-D run goes in stages of
N / 2^i per axis too.  This module supplies the advection term, whose step
velocity feeds both the CFL rule and stage 1, the diagnostics recorded on
the state padded to N, and the spectral-tail stop rule at N.

Products are formed on the grid with a 2/3-rule mask; both laws produce
exactly divergence-free velocities, and a plane wave annihilates its own
advection term, which gives the semigroup oracles used by the tests.

The module also houses the slow-growth machinery for the inviscid law:
the Osgood partial integrals of 1/(r ln(2r) P(r)) with a decade-ratio
classification, the comparison ODE for the Lipschitz envelope B(t)
(integrated in log space so double-exponential solutions stay
representable), and the experiment that pits a measured gradient history
against the calibrated bound.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft2, rfft2

from .fields import (_DT_FLOOR, ScalarField2D, _regrid, _StagedRun,
                     dealias_cutoff, max_hypot, velocity_multipliers,
                     wavenumber_grids_2d)
from .moduli import StratifiedPairSearch, _omega_fn
from .quadrature import classify_decades, decade_increments
from .records import REGULAR, UNRESOLVED, RunRecord

COLUMNS_2D = ("t", "linf", "grad_linf", "l2", "obedience_margin",
              "spectral_tail")

# Osgood decade-ratio window, mirroring the kernel-mass classifier: the
# integrand of a convergent tail loses mass geometrically per decade of M,
# a divergent one does not.  Slow logs need depth before the ratios settle.
_OSG_DECADES = 60
_OSG_WINDOW = 6
_OSG_CONV_RATIO = 0.90
_OSG_DIV_RATIO = 0.96
# the report's partial integrals run to M = 10^1 ... 10^_OSG_PARTIALS
_OSG_PARTIALS = 12

# a 2-D run stops as "spectral-tail" once the top eighth of its active band
# carries more than this share of the enstrophy
_TAIL_LIMIT = 1e-6


# ----------------------------------------------------------------------
# advection
# ----------------------------------------------------------------------

class _AdvectionCore:
    """u . grad(theta) in spectral form for a fixed velocity law."""

    def __init__(self, N, mx, my):
        self.N = N
        kx, ky = wavenumber_grids_2d(N)
        # 1j * kx * spec evaluates left to right, so these factors give
        # the products of the unfactored expressions bitwise
        self.ikx, self.iky = 1j * kx, 1j * ky
        self.neg_mask = -(np.hypot(kx, ky) <= dealias_cutoff(N)).astype(float)
        self.mx, self.my = mx, my

    def velocity(self, spec):
        n = self.N
        return (irfft2(self.mx * spec, s=(n, n)),
                irfft2(self.my * spec, s=(n, n)))

    def grid(self, spec):
        """The grid velocity of ``spec`` and its sup: a step's speed, and
        the velocity its first RK4 stage reuses."""
        u = self.velocity(spec)
        return u, max_hypot(*u)

    def nonlinear(self, spec, velocity=None):
        """Pass ``velocity`` when the grid velocity of ``spec`` is at hand."""
        n = self.N
        ux, uy = self.velocity(spec) if velocity is None else velocity
        gx = irfft2(self.ikx * spec, s=(n, n))
        gy = irfft2(self.iky * spec, s=(n, n))
        return self.neg_mask * rfft2(ux * gx + uy * gy)


# ----------------------------------------------------------------------
# breakthrough monitor
# ----------------------------------------------------------------------

def _wiener_norm(spec):
    """Sum of |c_k| / n^2 over the full plane of an rfft2 spectrum on n x n
    points (columns 0 and n/2 once, the others twice for their
    conjugates): a bound on the sup of its grid values, and of those of
    its padding to any finer grid."""
    a = np.abs(spec)
    n = a.shape[0]
    return float(2.0 * a.sum() - a[:, 0].sum() - a[:, n // 2].sum()) / n ** 2


# each row of a carry is charged this many ulps of its state's Wiener norm
# per log2(N), for the rounding of the grid values at both ends: an irfft2
# on N x N points errs by at most about 2 log2(N^2) ulps of it
_ROUNDING_ULPS = 8.0


class ObedienceMonitor:
    """Obedience margin of an evolving 2D field, scanned only on the rows
    that a carried bound cannot clear.

    A scan (``margin``) is a full stratified sweep (32 directions, 8
    separations per decade) of the state padded to N, refined off-lattice
    around its worst pair; every sweep reads its strata as views of one
    tiling of the field. Between scans the monitor carries a lower bound
    on the lattice margin: an increment moves by at most twice the sup of
    the field's change, and the change of a step is at most the Wiener
    norm of its stage spectrum's change (the previous stage spectrum
    padded first when the stage doubled, which is exact). So the bound
    starts at the smallest lattice margin of the last scan, not its
    refined margin (the refinement's off-lattice pairs differ from scan to
    scan), and loses twice each step's Wiener norm plus a rounding charge.

    ``row`` takes the step-end states in turn. It scans row 0 and every
    row whose carried bound is not > 0, and returns that scan's refined
    margin; any other row returns its carried bound, which is positive.
    ``rows`` lists the scanned row indices and ``min_margin`` is the
    smallest margin they returned. The bound covers the step ends only,
    not the times between them.
    """

    def __init__(self, member, N):
        self._search = StratifiedPairSearch(
            N, _omega_fn(member), directions=32, separations_per_decade=8)
        self._rounding = _ROUNDING_ULPS * math.log2(N) * np.finfo(float).eps
        self.rows = []
        self.min_margin = math.inf
        self._seen = 0
        self._prev = None
        self._bound = -math.inf

    def margin(self, fld):
        """The refined margin of one full sweep of ``fld``; the carried
        bound restarts at its smallest lattice margin."""
        rep = self._search.run(fld)
        self._bound = float(np.min(rep.margins))
        self.min_margin = min(self.min_margin, rep.margin)
        return rep.margin

    def row(self, spec, fld):
        """The margin of the next step-end state: ``spec`` its stage
        spectrum and ``fld`` its field padded to N."""
        if self._prev is not None:
            prev = _regrid(self._prev, self._prev.shape[0], spec.shape[0])
            self._bound -= 2.0 * _wiener_norm(spec - prev) + \
                self._rounding * _wiener_norm(spec)
        self._prev = spec
        self._seen += 1
        if self._bound > 0.0:
            return self._bound
        self.rows.append(self._seen - 1)
        return self.margin(fld)


# ----------------------------------------------------------------------
# time stepping
# ----------------------------------------------------------------------

def _run_2d(theta0, T, P, law, *, dt_max, dt_floor, member, tail_limit):
    """The staged run of either law, one row per step end on the state
    padded to N. With a ``member`` each row's ``obedience_margin`` comes
    from ``ObedienceMonitor.row``: a full refined sweep on the rows its
    carried bound cannot clear (listed in ``meta["monitor_rows"]``, whose
    smallest margin is ``meta["min_obedience_margin"]``), that bound on
    the others."""
    if not isinstance(theta0, ScalarField2D):
        raise TypeError("need a ScalarField2D initial condition")
    N = theta0.N
    mx, my = velocity_multipliers(N, law, P=P)
    run = _StagedRun(theta0.spec, N, T, P if law == "sqg" else None,
                     lambda n, index: _AdvectionCore(n, mx[index],
                                                     my[index]),
                     dt_max=dt_max, dt_floor=dt_floor)
    monitor = None if member is None else ObedienceMonitor(member, N)
    rows = {c: [] for c in COLUMNS_2D}

    # every step is a row, read on the state padded to N: the monitor
    # follows the field step by step on the data's grid, scanning the rows
    # its carried bound cannot clear
    def record(t, spec):
        fld = ScalarField2D.from_spectrum(spec, N)
        margin = math.nan if monitor is None else monitor.row(spec, fld)
        for col, val in zip(rows, (t, fld.linf(), fld.grad_linf(), fld.l2(),
                                   margin, fld.spectral_tail_fraction())):
            rows[col].append(val)
        return rows["spectral_tail"][-1] > tail_limit

    wall = time.perf_counter()
    if record(0.0, run.spec):
        raise ValueError("initial data is not resolved at this N")
    for t, _, spec in run:
        if record(t, spec):
            run.termination = "spectral-tail"
            break

    rec = RunRecord(
        equation=law,
        columns=COLUMNS_2D,
        series=rows,
        termination=run.termination,
        wall_time=time.perf_counter() - wall,
        meta={"tail_limit": tail_limit, "linf0": rows["linf"][0],
              "grad0": rows["grad_linf"][0],
              "multiplier": getattr(P, "label", "") or "callable",
              **run.meta()},
    )
    rec.final_state = ScalarField2D.from_spectrum(run.spec, N)
    if monitor is not None:
        rec.meta["min_obedience_margin"] = monitor.min_margin
        rec.meta["monitor_rows"] = monitor.rows
    # a skipped row's margin is a positive bound, so the scanned rows
    # decide whether every row's margin is positive
    if run.termination == "completed" and run.cap_unresolved_t is None and \
            (monitor is None or monitor.min_margin > 0.0):
        rec.verdict = REGULAR
    return rec


def simulate_sqg(theta0, T, *, P, member=None, dt_max=None,
                 dt_floor=_DT_FLOOR, tail_limit=_TAIL_LIMIT):
    """Dissipative SQG run; returns a RunRecord with 2D diagnostics.

    ``P`` is the radial dissipation multiplier, an array-native callable
    on |k|. The run goes in stages as Burgers runs do
    (``fields._StagedRun``), with the same ``meta["stages"]``,
    ``meta["cap_unresolved_t"]`` and ``meta["final_tail"]``; every row, the
    monitor's lattice scan and ``final_state`` read the state padded to N,
    and its off-lattice refinement the stage spectrum (``ScalarField2D``).
    With a ``member`` every step end gets the obedience margin of that
    modulus (``ObedienceMonitor``): a full sweep on row 0 and on each row
    that the bound carried from the last sweep cannot clear
    (``meta["monitor_rows"]``), and that positive bound on the others.
    The bound covers the step ends only; the time between them is left
    open (ROADMAP item 17). ``meta["min_obedience_margin"]`` is the
    smallest swept margin, and breakthrough shows up as a non-positive
    margin, never as an exception.  ``dt_max`` caps the step (default T/64); the run stops
    early as "dt-floor", or as "spectral-tail" once the top-eighth share
    at N passes ``tail_limit``.  A run is REGULAR only if it completed,
    its stage at N never failed the refine rule
    (``meta["cap_unresolved_t"]`` is None) and, with a ``member``, every
    row's margin was positive; it is UNRESOLVED otherwise.
    """
    return _run_2d(theta0, T, P, "sqg", dt_max=dt_max, dt_floor=dt_floor,
                   member=member, tail_limit=tail_limit)


def simulate_p_euler(theta0, T, *, P, dt_max=None):
    """Inviscid P-Euler run (velocity i k^perp P(|k|)/|k|^2), staged as
    ``simulate_sqg`` is."""
    return _run_2d(theta0, T, P, "p_euler", dt_max=dt_max,
                   dt_floor=_DT_FLOOR, member=None, tail_limit=_TAIL_LIMIT)


# ----------------------------------------------------------------------
# Osgood condition
# ----------------------------------------------------------------------

@dataclass
class OsgoodReport:
    """Partial integrals of 1/(r ln(2r) P(r)) and their classification."""

    M_values: np.ndarray
    partials: np.ndarray
    decade_increments: np.ndarray
    tail_ratios: np.ndarray
    classification: str
    window: tuple

    @property
    def divergent(self) -> bool:
        return self.classification == "divergent-consistent"

    @property
    def convergent(self) -> bool:
        return self.classification == "convergent-consistent"


def osgood_check(P):
    """Classify the slow-growth integral of a velocity multiplier.

    Divergence of the integral is what rules out a finite-time Lipschitz
    catastrophe; the classification compares per-decade increments in the
    trailing window, so slow logs need the full default depth to settle.
    The integral over [1, inf) is read through r = 1/u as one
    ``decade_increments`` call toward u = 0; the partial integral to
    M = 10^j is the sum of the first j decades.
    """
    def integrand(u):
        # 1/(r ln(2r) P(r)) dr with r = 1/u, dr = r^2 du
        r = 1.0 / u
        Pv = np.asarray(P(r), dtype=float)
        if np.any(Pv <= 0.0):
            raise ValueError("multiplier must be positive on [1, inf)")
        return r / (np.log(2.0 * r) * Pv)

    inc, _ = decade_increments(integrand, 1.0, _OSG_DECADES)
    partials = np.cumsum(inc)[:_OSG_PARTIALS]
    label, ratios = classify_decades(inc, _OSG_WINDOW, _OSG_CONV_RATIO,
                                     _OSG_DIV_RATIO)
    if label != "ambiguous":
        label += "-consistent"
    return OsgoodReport(
        M_values=10.0 ** np.arange(1, _OSG_PARTIALS + 1), partials=partials,
        decade_increments=inc, tail_ratios=ratios, classification=label,
        window=(_OSG_DIV_RATIO, _OSG_CONV_RATIO))


# ----------------------------------------------------------------------
# Lipschitz comparison bound
# ----------------------------------------------------------------------

@dataclass
class EulerBound:
    """Comparison envelope B(t) for the Lipschitz norm, log-integrated."""

    A: float
    C: float
    t: np.ndarray
    log_B: np.ndarray
    blowup_time: float | None = None
    blowup_bracket: tuple | None = None
    osgood: OsgoodReport | None = None
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if abs(self.log_B[0]) > 1e-12:
            raise ValueError("comparison bound must start at B(0) = 1")
        if np.any(np.diff(self.log_B) < -1e-12):
            raise ValueError("comparison bound must be non-decreasing")

    def at(self, t) -> np.ndarray:
        """Envelope values at arbitrary times (log-space interpolation)."""
        t = np.asarray(t, dtype=float)
        if self.blowup_time is not None and np.any(t >= self.blowup_time):
            raise ValueError("comparison bound blew up inside the horizon")
        if np.any(t > self.t[-1] + 1e-12):
            raise ValueError("requested time beyond the integrated range")
        with np.errstate(over="ignore"):
            return np.exp(np.interp(t, self.t, self.log_B))


# The escape fires once the e-folding time 1/(d ln B/dt) of the envelope
# drops below this fraction of the horizon: past it RK45 at rtol 1e-10
# needs steps near the float spacing of t.
_ESCAPE_FRACTION = 1e-8
# the envelope escapes by ln B = _MAX_LOG_B at the latest, and is sampled
# at _BOUND_SAMPLES times up to its escape or the horizon
_MAX_LOG_B = 700.0
_BOUND_SAMPLES = 513


def _bound_speed(C, A, P, b_top):
    """db/dt of the comparison ODE in b = ln B; autonomous, and read at
    min(b, b_top) so it stays finite."""
    ln2 = math.log(2.0)

    def speed(b):
        b = min(b, b_top)
        p = float(P(np.asarray(math.exp(b))))
        return C * A * (1.0 + p * (1.0 + ln2 + b))

    return speed


def gradient_bound_ode(P, A, C, t_end):
    """Integrate dB/dt = C A (1 + P(B)(1 + ln 2B)) B from B(0) = 1.

    Works in b = ln B so double-exponential growth stays representable.
    The envelope stops at an escape time if b reaches ``_MAX_LOG_B`` or the
    top of the range where the right-hand side is finite, or if its
    e-folding time falls below ``_ESCAPE_FRACTION * t_end``.  The ODE is
    autonomous, so the time left is the separable integral of
    db/(db/dt), whose tail is the Osgood integral of P: only a convergent
    Osgood classification yields a blow-up time, from the quadrature of
    the representable range, and the bracket covers the disagreement
    between the escape route and the separable integral from b = 0.
    """
    from scipy.integrate import quad, solve_ivp

    if A <= 0.0 or C < 0.0:
        raise ValueError("need A > 0 and C >= 0")
    raw_speed = _bound_speed(C, A, P, math.inf)
    b_top = _MAX_LOG_B
    with np.errstate(over="ignore", invalid="ignore"):
        while b_top > 0.0 and not math.isfinite(raw_speed(b_top)):
            b_top -= 1.0
    speed = _bound_speed(C, A, P, b_top)
    escape_speed = 1.0 / (_ESCAPE_FRACTION * t_end)
    escape = lambda t, y: max(y[0] - b_top, speed(y[0]) - escape_speed)
    escape.terminal = True
    escape.direction = 1.0
    sol = solve_ivp(lambda t, y: [speed(y[0])], (0.0, t_end), [0.0],
                    method="RK45", rtol=1e-10, atol=1e-12, dense_output=True,
                    events=escape)
    if not sol.success:
        raise RuntimeError(f"comparison ODE integration failed: {sol.message}")

    warnings = []
    osgood = None
    try:
        osgood = osgood_check(P)
    except ValueError:
        warnings.append("multiplier not positive on [1, inf); Osgood "
                        "classification skipped")

    escaped = sol.t_events[0].size > 0
    t_grid = np.linspace(0.0, sol.t_events[0][0] if escaped else t_end,
                         _BOUND_SAMPLES)
    log_B = sol.sol(t_grid)[0]
    log_B[0] = 0.0
    blow_time = bracket = None
    if escaped and osgood is not None and osgood.convergent:
        inv_speed = lambda b: 1.0 / speed(b)
        rem, rem_err = quad(inv_speed, sol.y_events[0][0][0], b_top,
                            limit=200)
        direct, direct_err = quad(inv_speed, 0.0, b_top, limit=400)
        blow_time = float(sol.t_events[0][0]) + rem
        bracket = (min(blow_time - rem_err, direct - direct_err),
                   max(blow_time + rem_err, direct + direct_err))
    elif escaped:
        warnings.append(
            f"bound escaped at t = {t_grid[-1]:.6g} (ln B = {log_B[-1]:.6g}) "
            f"and the Osgood classification is "
            f"{osgood.classification if osgood else 'unavailable'}; "
            "comparison ODE taken as global, envelope truncated there")
    return EulerBound(A=A, C=C, t=t_grid, log_B=np.maximum.accumulate(log_B),
                      blowup_time=blow_time, blowup_bracket=bracket,
                      osgood=osgood, warnings=warnings)


# ----------------------------------------------------------------------
# regularity experiment
# ----------------------------------------------------------------------

@dataclass
class EulerExperimentReport:
    verdict: str
    passed: bool
    reason: str
    A: float
    C: float
    calibrated_C: float
    worst_margin: float
    worst_time: float
    record: RunRecord
    bound: EulerBound


def gradient_of_velocity_sup(fld, law, P=None):
    """Measured sup |grad u| for either velocity law."""
    mx, my = velocity_multipliers(fld.N, law, P=P)
    kx, ky = wavenumber_grids_2d(fld.N)
    n = fld.N
    sup = 0.0
    for m in (mx, my):
        gx = irfft2(1j * kx * m * fld.spec, s=(n, n))
        gy = irfft2(1j * ky * m * fld.spec, s=(n, n))
        sup = max(sup, max_hypot(gx, gy))
    return sup


def euler_regularity_experiment(theta0, P, T, *, c_scale=1.0):
    """Pit measured Lipschitz growth against the comparison envelope.

    The generic constant is calibrated as twice the t = 0 ratio of the
    measured |grad u| to A (1 + P(1)(1 + ln 2)); ``c_scale`` scales it
    to stress the calibration.
    """
    A = max(theta0.linf(), theta0.grad_linf(), theta0.l2())
    if A <= 0.0:
        raise ValueError("data constant A vanished; nothing to bound")
    drive = 1.0 + float(P(np.asarray(1.0))) * (1.0 + math.log(2.0))
    calibrated = 2.0 * gradient_of_velocity_sup(theta0, "p_euler", P=P) \
        / (A * drive)
    C_used = calibrated * c_scale

    bound = gradient_bound_ode(P, A, C_used, T)
    if bound.blowup_time is not None and bound.blowup_time <= T:
        return EulerExperimentReport(
            verdict=UNRESOLVED, passed=False,
            reason=f"comparison bound blows up at t = {bound.blowup_time:.6g}"
                   " inside the horizon; Osgood condition fails",
            A=A, C=C_used, calibrated_C=calibrated,
            worst_margin=-math.inf, worst_time=float("nan"),
            record=None, bound=bound)

    rec = simulate_p_euler(theta0, T, P=P)
    growth = rec["grad_linf"] / rec["grad_linf"][0]
    envelope = bound.at(rec["t"])
    margins = envelope - growth
    i = int(np.argmin(margins))
    worst, worst_t = float(margins[i]), float(rec["t"][i])

    if rec.termination != "completed":
        verdict, passed = UNRESOLVED, False
        reason = f"run terminated early ({rec.termination})"
    elif worst < 0.0:
        verdict, passed = UNRESOLVED, False
        reason = (f"measured growth exceeded the envelope by {-worst:.6g} "
                  f"at t = {worst_t:.6g}; calibration constant too small")
    else:
        verdict, passed = REGULAR, True
        reason = "growth stayed below the comparison envelope"
    rec.verdict = verdict
    return EulerExperimentReport(
        verdict=verdict, passed=passed, reason=reason, A=A, C=C_used,
        calibrated_C=calibrated, worst_margin=worst, worst_time=worst_t,
        record=rec, bound=bound)
