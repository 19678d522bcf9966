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
grid fields (velocity and gradient, one batched transform) feed both the
CFL rule and stage 1, the diagnostics recorded on the state padded to N,
and the spectral-tail stop rule at N.

Products are formed on the grid with a 2/3-rule mask; both laws produce
exactly divergence-free velocities, and a plane wave annihilates its own
advection term, which gives the semigroup oracles used by the tests.

The module also houses the slow-growth machinery for the inviscid law:
the Osgood partial integrals of 1/(r ln(2r) P(r)) with a decade-ratio
classification, the comparison ODE for the Lipschitz envelope B(t)
(solved as the separable integral t(ln B), so double-exponential
solutions stay representable), and the experiment that pits a measured
gradient history against the calibrated bound.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fields import (_DT_FLOOR, _EPS, ScalarField2D, _spectral_tail,
                     _StagedRun, _tail_band, dealias_cutoff, irfft2,
                     max_hypot, rfft2, velocity_multipliers,
                     wavenumber_grids_2d)
from .kernels import multiplier_of_symbol_2d
from .moduli import ModulusMember, StratifiedPairSearch, _omega_fn
from .quadrature import classify_decades, decade_increments, panel_nodes
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
    """u . grad(theta) in spectral form for a fixed velocity law.

    The four grid fields of a spectrum (ux, uy, d_x theta, d_y theta) come
    from one batched inverse transform of the stacked factors (mx, my,
    i kx, i ky) times it, which returns each field bit for bit as its own
    ``irfft2`` would: a step takes 4 inverse calls of 4 fields and 4
    forward calls, 8 transforms of 20 fields.
    """

    def __init__(self, N, mx, my):
        self.N = N
        kx, ky = wavenumber_grids_2d(N)
        # 1j * kx * spec evaluates left to right, so these factors give
        # the products of the unfactored expressions bitwise
        self.factors = np.stack(np.broadcast_arrays(mx, my, 1j * kx, 1j * ky))
        self.neg_mask = -(np.hypot(kx, ky) <= dealias_cutoff(N)).astype(float)

    def fields(self, spec):
        """(ux, uy, gx, gy) of ``spec`` on the grid, stacked."""
        n = self.N
        return irfft2(self.factors * spec, s=(n, n))

    def grid(self, spec):
        """The grid fields of ``spec`` and the sup of its velocity: a step's
        speed, and the fields its first RK4 stage reuses."""
        fields = self.fields(spec)
        return fields, max_hypot(fields[0], fields[1])

    def nonlinear(self, spec, fields=None):
        """Pass ``fields`` when the grid fields of ``spec`` are at hand."""
        ux, uy, gx, gy = self.fields(spec) if fields is None else fields
        return self.neg_mask * rfft2(ux * gx + uy * gy)


# ----------------------------------------------------------------------
# breakthrough monitor
# ----------------------------------------------------------------------

class ObedienceMonitor:
    """Obedience margin of an evolving 2D field, scanned only on the rows
    that a carried bound cannot clear.

    A scan (``margin``) is a full stratified sweep (32 directions, 8
    separations per decade) of the state padded to N, refined off-lattice
    around its worst pair; every sweep reads its strata as views of one
    tiling of the field. The monitor keeps the grid values theta_s of the
    last swept row and its smallest lattice margin mu_s (not its refined
    margin: the refinement's off-lattice pairs differ from sweep to sweep).
    Every lattice pair joins two points of the N grid, so on a later row r
    each increment has moved by at most 2 d, d = max |theta_r - theta_s|
    over the grid, and row r's lattice margin is at least

        mu_s - 2 d - charge.

    The charge covers the rounding, u = eps / 2 per operation. With w the
    largest |omega| of a stratum and S = sup|theta_r| + sup|theta_s|, to
    first order in u: the two rows' scan subtractions err by 2 u S, their
    omega - increment by 2 u (w + S), the computed d by u S (2 u S on the
    bound) and the bound's own two subtractions by 2 u (w + 4 S). That is
    2 eps w + 7 eps S in all, and the charge is 4 eps (w + 2 S), with
    sup|theta_r| taken as sup|theta_s| + d. Both states are on the N grid
    whatever the run's stage, so a stage doubling needs no special case.

    ``row`` takes the step-end states in turn. It scans row 0 and every
    row whose bound is not > 0, and returns that scan's refined margin;
    any other row returns its bound, which is positive. ``rows`` lists the
    scanned row indices and ``min_margin`` is the smallest margin they
    returned. The bound covers the step ends only, not the times between
    them.
    """

    def __init__(self, member, N):
        self._search = StratifiedPairSearch(
            N, _omega_fn(member), directions=32, separations_per_decade=8)
        self._omega_top = float(np.max(np.abs(self._search.omegas)))
        self.rows = []
        self.min_margin = math.inf
        self._seen = 0
        self._swept = None

    def margin(self, fld):
        """The refined margin of one full sweep of ``fld``; the carried
        bound restarts from its grid values and smallest lattice margin."""
        rep = self._search.run(fld)
        self._swept = fld.values
        self._swept_sup = fld.linf()
        self._swept_margin = float(np.min(rep.margins))
        self.min_margin = min(self.min_margin, rep.margin)
        return rep.margin

    def row(self, fld):
        """The margin of the next step-end state ``fld``, padded to N."""
        self._seen += 1
        if self._swept is not None:
            change = float(np.max(np.abs(fld.values - self._swept)))
            charge = 4.0 * _EPS * (self._omega_top + 2.0 * (
                2.0 * self._swept_sup + change))
            bound = self._swept_margin - 2.0 * change - charge
            if bound > 0.0:
                return bound
        self.rows.append(self._seen - 1)
        return self.margin(fld)


# ----------------------------------------------------------------------
# time stepping
# ----------------------------------------------------------------------

def _refuse_a_weaker_multiplier(P, sym, N):
    """Refuse a run whose P dissipates less than the member's symbol
    assumes: below its 2-D multiplier, 8 eps of slack, at |k| = 1, 2 and
    the dealiasing cutoff."""
    K = np.array([1.0, 2.0, float(dealias_cutoff(N))])
    need = multiplier_of_symbol_2d(sym, K)
    have = np.broadcast_to(np.asarray(P(K), dtype=float), K.shape)
    short = ~(have >= need * (1.0 - 8.0 * _EPS))
    if short.any():
        i = int(np.argmax(short))
        raise ValueError(
            f"the run's multiplier P({K[i]:g}) = {have[i]:.17g} is below "
            f"{need[i]:.17g}, the 2-D multiplier of the member's symbol "
            f"{sym.label!r}: the run would dissipate less than its modulus "
            "assumes")


def _run_2d(theta0, T, P, law, *, dt_max, dt_floor, member, tail_limit):
    """The staged run of either law, one row per step end on the state
    padded to N. With a ``member`` each row's ``obedience_margin`` comes
    from ``ObedienceMonitor.row``: a full refined sweep on the rows its
    carried bound cannot clear (listed in ``meta["monitor_rows"]``, whose
    smallest margin is ``meta["min_obedience_margin"]``), that bound on
    the others. A row reads the padded state with one inverse transform
    and its gradient with two more, and its tail on a band built once."""
    if not isinstance(theta0, ScalarField2D):
        raise TypeError("need a ScalarField2D initial condition")
    N = theta0.N
    if isinstance(member, ModulusMember):
        _refuse_a_weaker_multiplier(P, member.sym, N)
    mx, my = velocity_multipliers(N, law, P=P)
    run = _StagedRun(theta0.spec, N, T, P if law == "sqg" else None,
                     lambda n, index: _AdvectionCore(n, mx[index],
                                                     my[index]),
                     dt_max=dt_max, dt_floor=dt_floor)
    monitor = None if member is None else ObedienceMonitor(member, N)
    band = _tail_band(N, 2)
    rows = {c: [] for c in COLUMNS_2D}

    # every step is a row, read on the state padded to N: the monitor
    # follows the field step by step on the data's grid, scanning the rows
    # its carried bound cannot clear
    def record(t, spec):
        fld = ScalarField2D.from_spectrum(spec, N)
        margin = math.nan if monitor is None else monitor.row(fld)
        for col, val in zip(rows, (t, fld.linf(), fld.grad_linf(), fld.l2(),
                                   margin, _spectral_tail(fld.spec, band))):
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
    The bound is the last sweep's smallest lattice margin less twice the
    grid change since that sweep and a rounding charge. It covers the step
    ends only; the time between them is left open (ROADMAP item 19).
    ``meta["min_obedience_margin"]`` is the smallest swept margin, and
    breakthrough shows up as a non-positive margin, never as an
    exception. A ``ModulusMember`` whose symbol's 2-D multiplier exceeds
    ``P`` at |k| = 1, 2 or the dealiasing cutoff is refused, since the run
    would dissipate less than the modulus assumes. ``dt_max`` caps the
    step (default T/64); the run stops early as "dt-floor", or as
    "spectral-tail" once the top-eighth share at N passes
    ``tail_limit``.  A run is REGULAR only if it completed,
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
    """Comparison envelope B(t) for the Lipschitz norm, as pairs (t, ln B)."""

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
        """Envelope values at arbitrary times (ln B linear in t)."""
        t = np.asarray(t, dtype=float)
        if self.blowup_time is not None and np.any(t >= self.blowup_time):
            raise ValueError("comparison bound blew up inside the horizon")
        if np.any(t > self.t[-1] + 1e-12):
            raise ValueError("requested time beyond the integrated range")
        with np.errstate(over="ignore"):
            return np.exp(np.interp(t, self.t, self.log_B))


# The envelope escapes once its e-folding time 1/(d ln B/dt) drops below
# this fraction of the horizon: B is a wall on the scale of t_end there,
# and the envelope ends short of the blow-up time, not at it up to rounding.
_ESCAPE_FRACTION = 1e-8
# t(ln B) is tabulated up to ln B = _MAX_LOG_B at the latest, on steps of
# 1/_LOG_B_STEPS, one Gauss-Legendre panel of order _BOUND_ORDER each
_MAX_LOG_B = 700.0
_LOG_B_STEPS = 32
_BOUND_ORDER = 8


def gradient_bound_ode(P, A, C, t_end):
    """Solve dB/dt = C A (1 + P(B)(1 + ln 2B)) B from B(0) = 1.

    In b = ln B the ODE is db/dt = speed(b), autonomous, so its solution
    is the pairs (t(b), b), t(b) the integral of 1/speed over [0, b]: one
    table on steps of 1/``_LOG_B_STEPS`` up to b_top, the largest integer
    b <= ``_MAX_LOG_B`` with a finite speed.  The envelope runs to the
    first t >= t_end or to an escape: b_top, or the first b whose e-folding
    time is below ``_ESCAPE_FRACTION * t_end``.  The blow-up time is
    t(b_top), whose tail is the Osgood integral of P, and only an escape
    with a convergent Osgood classification yields one; its bracket is the
    distance to the half-order rule plus the rounding of the sum.
    """
    if A <= 0.0 or C < 0.0:
        raise ValueError("need A > 0 and C >= 0")
    warnings = []
    osgood = None
    try:
        osgood = osgood_check(P)
    except ValueError:
        warnings.append("multiplier not positive on [1, inf); Osgood "
                        "classification skipped")
    if C == 0.0:  # no speed: B stays 1
        return EulerBound(A=A, C=C, t=np.array([0.0, t_end]),
                          log_B=np.zeros(2), osgood=osgood, warnings=warnings)

    def speed(b):
        return C * A * (1.0 + P(np.exp(b)) * (1.0 + math.log(2.0) + b))

    grid = np.arange(_MAX_LOG_B + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        b_top = float(grid[np.isfinite(speed(grid))].max(initial=0.0))
    b = np.linspace(0.0, b_top, int(b_top) * _LOG_B_STEPS + 1)

    def steps(order):
        nodes, weights = panel_nodes(b, order)
        return (weights / speed(nodes)).reshape(-1, order).sum(axis=1)

    dt = steps(_BOUND_ORDER)
    t = np.concatenate(([0.0], np.cumsum(dt)))
    ends = (t >= t_end) | (1.0 / speed(b) < _ESCAPE_FRACTION * t_end)
    ends[-1] = True
    k = int(np.argmax(ends))
    escaped = t[k] < t_end

    blow_time = bracket = None
    if escaped and osgood is not None and osgood.convergent:
        blow_time = float(t[-1])
        # a cumulative sum errs by at most eps/2 times its partial sums
        err = float(np.abs(dt - steps(_BOUND_ORDER // 2)).sum()
                    + np.finfo(float).eps * t.sum())
        bracket = (blow_time - err, blow_time + err)
    elif escaped:
        warnings.append(
            f"bound escaped at t = {t[k]:.6g} (ln B = {b[k]:.6g}) and the "
            f"Osgood classification is "
            f"{osgood.classification if osgood else 'unavailable'}; the "
            "envelope ends there and gives no blow-up time")
    return EulerBound(A=A, C=C, t=t[:k + 1], log_B=b[:k + 1],
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
    """Measured sup |grad u| for either velocity law: the larger sup of
    |grad ux| and |grad uy|, their four fields from one batched inverse
    transform of the stacked factors (i kx mx, i ky mx, i kx my, i ky my)
    times the spectrum, as ``_AdvectionCore.fields`` forms them."""
    mx, my = velocity_multipliers(fld.N, law, P=P)
    kx, ky = wavenumber_grids_2d(fld.N)
    n = fld.N
    factors = np.stack([1j * k * m for m in (mx, my) for k in (kx, ky)])
    g = irfft2(factors * fld.spec, s=(n, n))
    return max(max_hypot(g[0], g[1]), max_hypot(g[2], g[3]))


def euler_regularity_experiment(theta0, P, T, *, c_scale=1.0):
    """Pit measured Lipschitz growth against the comparison envelope.

    The generic constant is calibrated as twice the t = 0 ratio of the
    measured |grad u| to A (1 + P(1)(1 + ln 2)); ``c_scale`` scales it
    to stress the calibration. A bound that blows up, or escapes (see
    ``gradient_bound_ode``), before T gives UNRESOLVED with its time and
    no run: the envelope says nothing past that time.
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
        reason = (f"comparison bound blows up at t = {bound.blowup_time:.6g}"
                  " inside the horizon; Osgood condition fails")
    elif bound.t[-1] < T:
        reason = (f"comparison bound escaped at t = {bound.t[-1]:.6g} "
                  f"(ln B = {bound.log_B[-1]:.6g}) inside the horizon; "
                  "no envelope to compare against beyond it")
    else:
        reason = None
    if reason is not None:
        return EulerExperimentReport(
            verdict=UNRESOLVED, passed=False, reason=reason,
            A=A, C=C_used, calibrated_C=calibrated,
            worst_margin=-math.inf, worst_time=float("nan"),
            record=None, bound=bound)

    rec = simulate_p_euler(theta0, T, P=P)
    grad = rec["grad_linf"]
    # constant data keeps its zero gradient: a growth of 1, not 0/0
    growth = grad / grad[0] if grad[0] else np.ones_like(grad)
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
        reason = ("growth stayed below the comparison envelope" if grad[0]
                  else "constant initial data is an exact steady solution")
    rec.verdict = verdict
    return EulerExperimentReport(
        verdict=verdict, passed=passed, reason=reason, A=A, C=C_used,
        calibrated_C=calibrated, worst_margin=worst, worst_time=worst_t,
        record=rec, bound=bound)
