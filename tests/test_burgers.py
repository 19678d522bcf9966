import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from moclab import burgers, fields, quadrature, records
from moclab.burgers import (
    BlowupInstrumentation,
    KernelDivergenceError,
    KernelUndecidedError,
    blowup_condition,
    check_lyapunov_inequality,
    comparison_lyapunov,
    compute_Lw,
    design_blowup_data,
    detect_blowup,
    kernel_mass,
    lyapunov,
    simulate_burgers,
    wedge_dissipation,
)
from moclab.fields import ScalarField1D, ScalarField2D
from moclab.moduli import find_B_for_data
from moclab.quadrature import (decade_increments, log_edges, log_panel_rows,
                               panel_nodes)
from moclab.records import BLOWUP, REGULAR, UNRESOLVED, RunRecord
from moclab.symbols import (make_multiplier, make_symbol,
                            symbol_from_callable, symbol_from_table)

HALF = make_symbol("power", a=0.5)
CRIT = make_symbol("power", a=1.0)
INST = compute_Lw(HALF)

# hat-weighted means of the reference profiles, by hand
L_SIN = 1.0 - math.sin(1.0)
L_WEDGE = 1.0 / 3.0


def designed_run(N, factor=50.0, record_every=5):
    rep = design_blowup_data(HALF, N=N, instrumentation=INST)
    rec = simulate_burgers(rep.field, 0.5, sym=HALF,
                           grad_stop=factor * rep.field.grad_linf(),
                           record_every=record_every)
    return rep, rec


def small_smooth_field(N=256, amp=0.05):
    return ScalarField1D.from_function(N, lambda x: amp * np.sin(x))


def wedge(x):
    # the odd hat profile: 1 - x on (0, 1), zero beyond, odd reflection
    # below, wrapped to (-pi, pi] so it can be sampled on the solver grid
    x = np.asarray(x, dtype=float)
    xm = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    return np.sign(xm) * np.maximum(0.0, 1.0 - np.abs(xm))


# ---------------------------------------------------------------------------
# hat profile
# ---------------------------------------------------------------------------

def test_wedge_profile_values():
    x = np.array([0.0, 0.5, -0.5, 1.0, 2.0, np.pi])
    assert_array_equal(wedge(x), [0.0, 0.5, -0.5, 0.0, 0.0, 0.0])


def test_wedge_periodicity():
    x = np.linspace(-3.0, 3.0, 41)
    assert_allclose(wedge(x + 2.0 * np.pi), wedge(x), atol=1e-14)


# ---------------------------------------------------------------------------
# kernel mass classifier
# ---------------------------------------------------------------------------

def test_kernel_mass_integrable_power():
    mass, err = kernel_mass(HALF)
    assert_allclose(mass, 2.0, rtol=1e-10)
    assert err < 1e-8


@pytest.mark.parametrize("m", [HALF, lambda r: r ** -0.9],
                         ids=["power0.5", "power0.9"])
def test_kernel_mass_is_the_decade_sum_plus_the_geometric_remainder(m):
    # the mass is the sum of the 40 decade increments plus the geometric
    # tail of the largest trailing ratio, which is charged to the error too
    v, err = decade_increments(m, 1.0, 40)
    r = float(np.max(v[-6:] / v[-7:-1]))
    rem = float(v[-1]) * r / (1.0 - r)
    assert kernel_mass(m) == (float(np.sum(v)) + rem, err + rem)


def test_kernel_mass_near_critical_power():
    mass, err = kernel_mass(lambda r: r ** -0.9)
    assert_allclose(mass, 10.0, rtol=1e-6)
    assert err < 1e-2


def test_kernel_mass_divergent_power():
    with pytest.raises(KernelDivergenceError):
        kernel_mass(CRIT)


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_kernel_mass_undecided_log(a):
    # divergent, but so slowly that the decade ratios approach 1 from
    # below; the classifier must refuse rather than certify either way
    with pytest.raises(KernelUndecidedError):
        kernel_mass(make_symbol("log", a=a))


def test_kernel_mass_refuses_iterated_log():
    # integral converges (to 1/ln 2), yet the per-decade ratios drift
    # upward through the acceptance window; refusal is the only verdict
    # the desk-depth classifier can defend
    sym = symbol_from_callable(
        lambda r: 1.0 / (r * np.log(2.0 / r) ** 2), core_radius=1.0,
        alpha=1.0, r0=1.0, C0=1.0 / math.log(2.0) ** 2,
        sqg_admissible=False)
    with pytest.raises(KernelUndecidedError):
        kernel_mass(sym)


# ---------------------------------------------------------------------------
# dissipation of the hat profile
# ---------------------------------------------------------------------------

def test_dissipation_inside_support():
    # exact window integrals for m = r^{-1/2} at x = 1/4
    assert_allclose(wedge_dissipation(HALF, 0.25), 6.991965660138175,
                    rtol=1e-12)


def test_dissipation_outside_support():
    assert_allclose(wedge_dissipation(HALF, 2.0), -0.0997761055293191,
                    rtol=1e-12)


def test_dissipation_is_odd():
    x = np.array([0.1, 0.7, 1.3, 4.0])
    assert_array_equal(wedge_dissipation(HALF, -x),
                       -wedge_dissipation(HALF, x))


def test_dissipation_continuous_at_kink():
    left = wedge_dissipation(HALF, 1.0 - 1e-10)
    right = wedge_dissipation(HALF, 1.0 + 1e-10)
    assert abs(left - right) < 1e-6


def test_dissipation_negative_beyond_support():
    vals = wedge_dissipation(HALF, np.array([1.2, 2.0, 4.0, 8.0]))
    assert np.all(vals < 0.0)


def test_dissipation_far_field_decay():
    # |Lw|(x) ~ (C0/2) x^{-5/2} for the square-root kernel
    assert_allclose(wedge_dissipation(HALF, 128.0) * 128.0 ** 2.5, -0.5,
                    rtol=1e-3)


def test_dissipation_tail_dominated_by_kernel():
    x = np.linspace(2.0, 100.0, 25)
    ratio = np.abs(wedge_dissipation(HALF, x)) * (x - 1.0) ** 2 / HALF(x - 1.0)
    assert 0.05 < ratio.max() < 0.55


# every branch of the increment form: 0, negative x, (0, 1/2], (1/2, 1), the
# kink at 1 and beyond the support
X_BRANCHES = np.array([0.0, -0.3, -1.7, 1e-6, 0.25, 0.5, 0.6, 0.999, 1.0,
                       1.0 + 1e-9, 1.5, 2.5, 3.2, 40.0])
# symbols whose core radius (2 and 3) falls inside some windows, so the
# kink is pinned as an extra panel edge
CORE2 = symbol_from_callable(lambda r: np.asarray(r) ** -0.6, core_radius=2.0,
                             alpha=0.6, r0=1.0, C0=1.0, sqg_admissible=False)
TABLE = symbol_from_table(np.geomspace(1e-3, 3.0, 12),
                          np.geomspace(1e-3, 3.0, 12) ** -0.7)


def _one_window_at_a_time(sym, x, rule, per_decade=4, order=10):
    # L w at one x, each window integrated on its own by ``rule``
    def window(f, lo, hi):
        if hi <= lo:
            return 0.0
        return rule(f, lo, hi, per_decade, order, (sym.core_radius,))

    a = abs(x)
    if a == 0.0:
        return 0.0
    if a < 1.0:
        tail = 2.0 * (1.0 - a) * sym.tail_integral_over_r(1.0 + a)
        far = window(lambda z: (3.0 - a - z) * sym(z) / z,
                     max(a, 1.0 - a), 1.0 + a)
        if a <= 0.5:
            near = 2.0 * window(lambda z: sym(z) / z, a, 1.0 - a)
        else:
            near = window(lambda z: ((1.0 - a) - z) * sym(z) / z, 1.0 - a, a)
        val = near + far + tail
    else:
        near = window(lambda y: (1.0 - a + y) * sym(y) / y,
                      max(a - 1.0, 1e-18 * a), a)
        val = window(lambda y: (1.0 + a - y) * sym(y) / y, a, a + 1.0) - near
    return val if x > 0.0 else -val


def _log_panel_window(f, lo, hi, per_decade, order, kinks):
    # the package's rule, Gauss-Legendre in ln z, as a batch of one
    rows = log_panel_rows(lo, hi, per_decade, order, kinks)
    return float(rows.integrate(f(rows.nodes))[0])


def _geometric_window(f, lo, hi, per_decade, order, kinks):
    # an independent oracle: Gauss-Legendre in z on geometric panels
    nodes, weights = panel_nodes(log_edges(lo, hi, per_decade, kinks), order)
    return float(np.dot(weights, f(nodes)))


@pytest.mark.parametrize("sym", [HALF, CORE2, TABLE],
                         ids=["power", "callable-core2", "tabulated"])
@pytest.mark.parametrize("budget", [None, 64])
def test_dissipation_array_route_equals_the_scalar_route(sym, budget,
                                                         monkeypatch):
    if budget is not None:
        # one window per integrand call
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
    batch = wedge_dissipation(sym, X_BRANCHES)
    loop = np.array([wedge_dissipation(sym, float(x)) for x in X_BRANCHES])
    reference = np.array([_one_window_at_a_time(sym, x, _log_panel_window)
                          for x in X_BRANCHES])
    assert_array_equal(batch, loop)
    assert_array_equal(batch, reference)
    assert batch[0] == 0.0 and np.all(batch[1:] != 0.0)
    oracle = np.array([_one_window_at_a_time(sym, x, _geometric_window)
                       for x in X_BRANCHES])
    assert_allclose(batch, oracle, rtol=1e-11)


def test_dissipation_refuses_non_finite_x():
    with pytest.raises(ValueError, match="finite"):
        wedge_dissipation(HALF, np.array([0.5, np.nan]))


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def test_instrumentation_integral():
    assert_allclose(INST.kernel_functional, 6.375878875613632, rtol=1e-9)
    assert_allclose(INST.i_inside + INST.i_outside, INST.kernel_functional,
                    rtol=1e-14)
    assert INST.integral_error < 1e-8
    assert INST.far_remainder < 1e-8


def test_instrumentation_closed_form_bounds():
    assert_allclose(INST.kernel_mass, 2.0, rtol=1e-10)
    assert INST.C0 == 1.0
    assert INST.alpha == 0.5
    assert_allclose(INST.c1_bound, 2.0 * 2.0 + INST.C_ratio * 1.0, rtol=1e-12)
    assert_allclose(INST.c2_bound, 6.0 * 2.0 + 3.0 + 2.0, rtol=1e-12)
    assert INST.i_outside <= INST.c1_bound
    assert INST.i_inside <= INST.c2_bound
    assert INST.bounds_hold
    assert INST.warnings == []


def test_instrumentation_table_matches_pointwise():
    assert_allclose(INST.Lw_table, wedge_dissipation(HALF, INST.x_table),
                    rtol=1e-13)


def test_instrumentation_json():
    doc = json.loads(json.dumps(records.to_dict(INST), allow_nan=False))
    assert doc["bounds_hold"] is True
    assert_allclose(doc["kernel_functional"], INST.kernel_functional)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compute_Lw_memory_stays_chunked():
    # the array route evaluates its windows in bounded chunks of nodes
    assert _peak_bytes(lambda: compute_Lw(HALF)) <= 2 * 2 ** 20
    # ~600k nodes in a few panel-count groups: ~15 MB if taken at once
    x = 1.0 + np.linspace(1e-8, 1e-7, 2000)
    assert _peak_bytes(lambda: wedge_dissipation(HALF, x)) <= 2 * 2 ** 20


def test_compute_Lw_rejects_bare_callable():
    with pytest.raises(TypeError):
        compute_Lw(lambda r: r ** -0.5)


def test_compute_Lw_refuses_uncertified_mass():
    with pytest.raises(KernelDivergenceError):
        compute_Lw(CRIT)
    with pytest.raises(KernelUndecidedError):
        compute_Lw(make_symbol("log", a=1.0))


# the half-line integral of |L w| for m = r^-1/2: the closed form of L w for
# that m, integrated with mpmath at 120 digits. The closed form reproduces
# the pinned wedge_dissipation values at x = 0.25 and x = 2.0
EXACT_HALF_FUNCTIONAL = 6.3758788771567856524


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP lead: _abs_lw_integrals stops at 1 - 1e-13 and starts at "
    "1 + 2^-30, dropping the slivers next to x = 1 where |L w| ~ "
    "4(sqrt(2) - 1) = 1.657 (1.7e-13 and 1.54e-9); both rules drop them, so "
    "kernel_functional misses by 2.42e-10 relative against an "
    "integral_error of 3.4e-14"))
def test_compute_Lw_lands_within_its_error_bar_of_the_exact_integral():
    miss = abs(INST.kernel_functional / EXACT_HALF_FUNCTIONAL - 1.0)
    assert miss <= INST.integral_error


def _brent_solvers():
    # the shared solver on one bracket, at the tolerances of compute_Lw,
    # and scipy's brentq at its xtol (its default rtol is compute_Lw's)
    from scipy.optimize import brentq

    def ours(f, lo, hi):
        def lane(x, i):
            assert i.tolist() == [0]
            return np.array([f(float(x[0]))])
        return float(quadrature.brentq(lane, np.array([lo]), np.array([hi]),
                                       burgers._BRENT_XTOL,
                                       burgers._BRENT_RTOL)[0])
    return ours, lambda f, a, b: brentq(f, a, b, xtol=1e-13)


def _brent_runs(f, lo, hi):
    # (root, x of every f call) of each solver
    runs = []
    for solve in _brent_solvers():
        calls = []
        root = solve(lambda x: calls.append(x) or f(x), lo, hi)
        runs.append((root, calls))
    return runs


def _lw_brackets(a, monkeypatch):
    # the (f, lo, hi) of every sign change compute_Lw pins, f on floats
    seen, real = [], burgers.brentq

    def spy(f, lo, hi, xtol, rtol):
        assert (xtol, rtol) == (burgers._BRENT_XTOL, burgers._BRENT_RTOL)
        seen.extend((lambda x: float(f(np.array([x]), np.array([0]))[0]),
                     float(x0), float(x1)) for x0, x1 in zip(lo, hi))
        return real(f, lo, hi, xtol, rtol)
    with monkeypatch.context() as m:
        m.setattr(burgers, "brentq", spy)
        compute_Lw(make_symbol("power", a=a))
    return seen


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 0.9])
def test_brentq_is_scipys_on_the_inside_window(a, monkeypatch):
    # both refinements of the inside window change sign once, on the same
    # scan cell: the shared solver takes scipy's steps there bit for bit
    brackets = _lw_brackets(a, monkeypatch)
    assert len(brackets) == 2
    for f, lo, hi in brackets:
        assert 0.5 < lo < hi < 1.0
        ours, scipys = _brent_runs(f, lo, hi)
        assert ours == scipys


# Brent's classic cubic, the Dottie number, a cube root (whose
# interpolated steps often fail the short-step test), and an exact zero at
# either end (returned after the two end calls)
_REFERENCE_BRACKETS = [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.copysign(abs(x - 0.3) ** (1.0 / 3.0), x - 0.3), -1.0,
     2.0),
    (lambda x: x - 1.0, 1.0, 2.0),
    (lambda x: x - 2.0, 1.0, 2.0),
]


@pytest.mark.parametrize("f,lo,hi", _REFERENCE_BRACKETS)
def test_brentq_is_scipys_on_reference_brackets(f, lo, hi):
    ours, scipys = _brent_runs(f, lo, hi)
    assert ours == scipys
    if f(lo) == 0.0 or f(hi) == 0.0:
        assert len(ours[1]) == 2 and f(ours[0]) == 0.0


def test_brentq_solves_every_reference_bracket_in_one_call():
    # lanes do not interact: each root of one batched call, and the x of
    # each element's f calls, are those of its bracket solved alone
    fs, lo, hi = zip(*_REFERENCE_BRACKETS)
    seen = [[] for _ in fs]

    def f(x, i):
        for xj, ij in zip(x.tolist(), i.tolist()):
            seen[ij].append(xj)
        return np.array([fs[k](xj) for xj, k in zip(x.tolist(), i.tolist())])
    roots = quadrature.brentq(f, np.array(lo), np.array(hi),
                              burgers._BRENT_XTOL, burgers._BRENT_RTOL)
    alone, _ = zip(*(_brent_runs(*bracket) for bracket in _REFERENCE_BRACKETS))
    assert list(zip(roots.tolist(), seen)) == list(alone)


@pytest.mark.parametrize("f,lo,hi,error,message,n_calls", [
    (lambda x: x * x + 1.0, 0.0, 1.0, ValueError,
     "f(a) and f(b) must have different signs", 2),
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, ValueError,
     "The function value at x=1.0 is NaN; solver cannot continue.", 2),
    # a step across a bracket of 2e300 needs ~1,000 halvings to reach
    # xtol, so the cap of 100 iterations runs out first
    (lambda x: math.copysign(1.0, x - 0.3), -1e300, 1e300, RuntimeError,
     "Failed to converge after 100 iterations.", 102),
])
def test_brentq_refuses_as_scipy_does(f, lo, hi, error, message, n_calls):
    # a ValueError is raised by both solvers alike; where scipy's cap runs
    # out, the shared solver returns NaN after the same calls, and
    # compute_Lw's sign-change pinning raises scipy's RuntimeError
    ours, scipys = _brent_solvers()
    solvers = [scipys] if error is RuntimeError else [scipys, ours]
    for solve in solvers:
        calls = []
        with pytest.raises(error) as caught:
            solve(lambda x: calls.append(x) or f(x), lo, hi)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert len(calls) == n_calls
    if error is RuntimeError:
        calls = []
        assert math.isnan(ours(lambda x: calls.append(x) or f(x), lo, hi))
        assert len(calls) == n_calls
        with pytest.raises(RuntimeError) as caught:
            burgers._abs_integral(np.vectorize(f), lo, hi,
                                  np.array([lo, hi]), 4)
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# blow-up data design
# ---------------------------------------------------------------------------

def test_design_hits_algebraic_threshold():
    rep = design_blowup_data(HALF, N=512, instrumentation=INST)
    lam_exact = rep.margin * INST.kernel_functional / L_SIN ** 2
    assert_allclose(rep.lam, lam_exact, rtol=1e-10)
    assert rep.condition_value >= 0.0
    assert rep.passes
    v = rep.field.values  # odd on the grid: theta(-x) = -theta(x)
    assert np.max(np.abs(v + np.roll(v[::-1], 1))) \
        <= 1e-10 * max(1.0, rep.field.linf())
    assert_allclose(rep.field.linf(), rep.lam, rtol=1e-12)


@pytest.mark.parametrize("N", [1024, 2048, 4096, 8192])
def test_design_passes_its_measured_condition(N):
    rep = design_blowup_data(HALF, N=N, instrumentation=INST)
    assert rep.passes
    assert rep.condition_value == blowup_condition(
        rep.field, INST.kernel_functional)
    # the ulp steps stay at the bisection's threshold
    lam_exact = rep.margin * INST.kernel_functional / L_SIN ** 2
    assert_allclose(rep.lam, lam_exact, rtol=1e-10)


def test_design_threshold_is_sharp():
    rep = design_blowup_data(HALF, N=512, instrumentation=INST)
    halved = ScalarField1D(0.5 * rep.field.values)
    assert blowup_condition(halved, INST.kernel_functional) < 0.0


def test_design_amplitude_scales_with_the_kernel_functional():
    # the amplitude is margin * I / L(sin)^2: doubling I doubles it
    lo = design_blowup_data(HALF, N=512, instrumentation=INST)
    doubled = dataclasses.replace(
        INST, kernel_functional=2.0 * INST.kernel_functional)
    hi = design_blowup_data(HALF, N=512, instrumentation=doubled)
    assert_allclose(hi.lam / lo.lam, 2.0, rtol=1e-10)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_linear_mode_matches_semigroup():
    fld = ScalarField1D.from_function(128, np.cos)
    rec = simulate_burgers(fld, 1.0, P=lambda k: k.astype(float),
                           nonlinear=False)
    exact = math.exp(-1.0) * np.cos(ScalarField1D.grid_of(128))
    assert np.max(np.abs(rec.final_state.values - exact)) < 1e-12


def test_inviscid_run_follows_characteristics():
    N, T, amp = 1024, 1.0, 0.1
    fld = ScalarField1D.from_function(N, lambda x: amp * np.sin(x))
    rec = simulate_burgers(fld, T, dt_max=2e-3)
    x = ScalarField1D.grid_of(N)
    x0 = x.copy()
    for _ in range(100):
        x0 = x + amp * np.sin(x0) * T
    assert np.max(np.abs(rec.final_state.values - amp * np.sin(x0))) < 1e-10


def test_mean_is_conserved():
    fld = ScalarField1D.from_function(64, lambda x: 0.3 + 0.2 * np.sin(x))
    rec = simulate_burgers(fld, 1.0, sym=HALF)
    assert abs(rec.final_state.values.mean() - 0.3) < 1e-13


def test_oddness_is_preserved():
    v = ScalarField1D.random_band_limited(256, 8, 1.0, seed=3).values
    fld = ScalarField1D(0.5 * (v - np.roll(v[::-1], 1)))  # its odd part
    assert np.max(np.abs(fld.values + np.roll(fld.values[::-1], 1))) \
        <= 1e-10 * max(1.0, fld.linf())
    rec = simulate_burgers(fld, 0.5, sym=HALF)
    v = rec.final_state.values
    assert np.max(np.abs(v + np.roll(v[::-1], 1))) < 1e-9 * rec["linf"][0]


def test_max_principle_and_lyapunov_dominated():
    fld = ScalarField1D.random_band_limited(256, 8, 1.0, seed=11)
    rec = simulate_burgers(fld, 1.0, sym=HALF)
    linf = rec["linf"]
    assert np.all(np.diff(linf) <= 1e-12 * linf[0])
    assert np.all(np.diff(rec["l2"]) <= 1e-12 * rec["l2"][0])
    assert np.all(rec["lyapunov"] <= linf[0] * (1.0 + 1e-12))


def test_gradient_threshold_terminates_run():
    rep, rec = designed_run(512)
    assert rec.termination == "gradient-threshold"
    assert rec.meta["max_grad"] >= 50.0 * rep.field.grad_linf()
    assert rec.meta["max_grad_t"] <= rec.t[-1]


def test_dt_floor_terminates_run():
    fld = small_smooth_field()
    rec = simulate_burgers(fld, 0.5, sym=HALF, dt_floor=0.1)
    assert rec.termination == "dt-floor"


def test_final_step_shorter_than_floor_is_allowed():
    fld = small_smooth_field(N=64)
    rec = simulate_burgers(fld, 1.0, sym=HALF, dt_max=0.3, dt_floor=0.15)
    assert rec.termination == "completed"
    assert_allclose(rec.t[-1], 1.0, rtol=1e-12)


def test_record_thinning():
    fld = small_smooth_field(N=64)
    rec = simulate_burgers(fld, 1.0, sym=HALF, record_every=5)
    assert len(rec) < rec.meta["steps"]
    assert rec.meta["record_every"] == 5
    assert np.all(np.diff(rec.t) > 0.0)
    assert_allclose(rec.t[-1], 1.0, rtol=1e-12)


@pytest.mark.parametrize("every", [0, -1, 2.5])
def test_a_record_cadence_that_is_not_a_positive_int_is_refused(every):
    # 0 divided by zero once the run was set up; -1 and 2.5 ran on
    fld = small_smooth_field(N=64)
    with pytest.raises(ValueError, match="record_every must be an int >= 1"):
        simulate_burgers(fld, 1.0, sym=HALF, record_every=every)


@pytest.mark.parametrize("T, kw, name", [
    (math.nan, {}, "horizon T"), (math.inf, {}, "horizon T"),
    (0.0, {}, "horizon T"), (1.0, {"dt_max": math.nan}, "dt_max"),
    (1.0, {"dt_max": 0.0}, "dt_max")])
def test_a_horizon_or_step_cap_that_would_never_end_is_refused(T, kw, name):
    # a NaN or infinite horizon, or a NaN step cap, stepped forever; a zero
    # cap ended the run "dt-floor" at t = 0
    with pytest.raises(ValueError, match=name):
        simulate_burgers(small_smooth_field(N=64), T, sym=HALF, **kw)


def test_multiplier_validation():
    fld = small_smooth_field(N=64)
    with pytest.raises(ValueError):
        simulate_burgers(fld, 1.0, sym=HALF, P=lambda k: k.astype(float))
    with pytest.raises(ValueError):
        simulate_burgers(fld, 1.0, P=lambda k: -np.ones_like(k, dtype=float))


def test_record_columns():
    fld = small_smooth_field(N=64)
    rec = simulate_burgers(fld, 0.1, sym=HALF)
    assert rec.columns == ("t", "linf", "grad_linf", "l2", "lyapunov", "dt")
    assert (records.to_csv(rec.series).splitlines()[0]
            == "t,linf,grad_linf,l2,lyapunov,dt")


def _restrict(spec, N, n):
    # the data's spectrum on n points: modes above n/2 dropped, and the
    # mode at n/2 read as the coarse grid's Nyquist cosine
    if n == N:
        return spec.copy()
    out = spec[:n // 2 + 1] * (n / N)
    out[-1] = 2.0 * out[-1].real
    return out


def _pad(spec, n):
    # zero-padding from n to 2n points: the coarse Nyquist cosine becomes
    # half of a complex mode
    out = np.zeros(n + 1, dtype=complex)
    out[:n // 2 + 1] = 2.0 * spec
    out[n // 2] = spec[n // 2].real
    return out


def _numpy_fft_stepper(theta0, T, Pk, *, n0=None, nonlinear=True, cfl=0.4,
                       dt_max=None, dt_floor=1e-10, grad_stop=None,
                       record_every=1):
    # the integrating-factor RK4 loop on np.fft, with every diagnostic
    # evaluated every step, started on n0 points (default: the data's N)
    # and padded to twice the points whenever the ScalarField1D tail
    # measure passes the refine constant below the data's N: the reference
    # the stepper must match bit for bit
    N = theta0.N
    n = N if n0 is None else n0
    dt_max = T / 64.0 if dt_max is None else dt_max

    def on_grid(n):
        k = np.arange(n // 2 + 1, dtype=float)
        return (2.0 * np.pi / n, (k <= n // 3).astype(float), 1j * k,
                burgers._lyapunov_weights(n))

    h, mask, ik, ly_u = on_grid(n)

    def nl(spec_hat, v=None):
        if v is None:
            v = np.fft.irfft(spec_hat, n=n)
        q = np.fft.rfft(v * v)
        q *= mask
        return 0.5 * ik * q

    spec = _restrict(theta0.spec.astype(complex), N, n)
    rows = {c: [] for c in ("t", "linf", "grad_linf", "l2", "lyapunov", "dt")}

    def diagnostics(v):
        linf = float(np.max(np.abs(v)))
        grad = float(np.max(np.abs(np.fft.irfft(ik * spec, n=n))))
        l2 = math.sqrt(2.0 * np.pi * float(np.mean(v * v)))
        ly = float(np.real(np.dot(spec / n, ly_u)))
        return linf, grad, l2, ly

    t, steps = 0.0, 0
    stages = [{"t": 0.0, "N": n, "steps": 0}]
    v = np.fft.irfft(spec, n=n)
    linf, grad, l2, ly = diagnostics(v)
    max_grad, max_grad_t = grad, 0.0

    def select_dt():
        dt = dt_max
        if nonlinear:
            dt = min(dt, cfl * h / max(linf, 1e-300))
        return min(dt, T - t)

    for c, val in zip(rows, (t, linf, grad, l2, ly, select_dt())):
        rows[c].append(val)
    while t < T * (1.0 - 1e-14):
        dt = select_dt()
        if dt < dt_floor and (T - t) > dt_floor:
            break
        E = np.exp(-0.5 * dt * Pk[:n // 2 + 1])
        E2 = E * E
        if nonlinear:
            a = nl(spec, v)
            b = nl(E * (spec + 0.5 * dt * a))
            c = nl(E * spec + 0.5 * dt * b)
            d = nl(E2 * spec + dt * E * c)
            spec = E2 * spec + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
        else:
            spec = E2 * spec
        t += dt
        steps += 1
        stages[-1]["steps"] += 1
        tail = ScalarField1D.from_spectrum(spec, n).spectral_tail_fraction()
        if n < N and tail > fields._REFINE_TAIL:
            spec = _pad(spec, n)
            n *= 2
            h, mask, ik, ly_u = on_grid(n)
            stages.append({"t": t, "N": n, "steps": 0})
        v = np.fft.irfft(spec, n=n)
        linf, grad, l2, ly = diagnostics(v)
        if grad > max_grad:
            max_grad, max_grad_t = grad, t
        hit_stop = grad_stop is not None and grad >= grad_stop
        if steps % record_every == 0 or t >= T * (1.0 - 1e-14) or hit_stop:
            for c, val in zip(rows, (t, linf, grad, l2, ly, dt)):
                rows[c].append(val)
        if hit_stop:
            break
    while n < N:
        spec = _pad(spec, n)
        n *= 2
    return rows, spec, steps, max_grad, max_grad_t, stages


def _designed_case():
    rep = design_blowup_data(HALF, N=1024, instrumentation=INST)
    return rep.field, 0.5, {"sym": HALF,
                            "grad_stop": 50.0 * rep.field.grad_linf(),
                            "record_every": 5}


def _band_limited_case():
    # slow data: every step is capped by dt_max = T/64, not by the CFL rule
    fld = ScalarField1D.random_band_limited(256, 8, 0.05, seed=7)
    return fld, 1.0, {"sym": HALF}


GOLDEN_CASES = {
    "designed-blowup": _designed_case,
    "dt-max-limited": _band_limited_case,
    "linear": lambda: (small_smooth_field(128, 1.0), 0.5,
                       {"sym": HALF, "nonlinear": False, "dt_max": 0.05}),
    "inviscid": lambda: (small_smooth_field(128, 0.3), 0.5, {}),
    "multiplier": lambda: (ScalarField1D.random_band_limited(128, 6, 0.5,
                                                             seed=2),
                           0.5, {"P": make_multiplier("power", s=1.0)}),
}


def _reference_kw(kw):
    return {key: kw[key] for key in ("nonlinear", "cfl", "dt_max",
                                     "grad_stop", "record_every")
            if key in kw}


def _multiplier(theta0, kw):
    k = theta0.wavenumbers()
    if "sym" in kw:
        return burgers.multiplier_of_symbol_1d(kw["sym"], k) * (k > 0.0)
    if "P" in kw:
        return kw["P"](k) * (k > 0.0)
    return np.zeros_like(k)


def _assert_matches_reference(rec, theta0, ref):
    rows, spec, steps, max_grad, max_grad_t, stages = ref
    assert rec.meta["steps"] == steps >= 8
    assert rec.meta["stages"] == stages
    for col, want in rows.items():
        assert np.array_equal(rec[col], np.asarray(want)), col
    assert np.array_equal(rec.final_state.values,
                          np.fft.irfft(spec, n=theta0.N))
    assert rec.meta["max_grad"] == max_grad
    assert rec.meta["max_grad_t"] == max_grad_t


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_stepper_matches_the_numpy_fft_reference(case):
    theta0, T, kw = GOLDEN_CASES[case]()
    rec = simulate_burgers(theta0, T, **kw)
    n0 = rec.meta["stages"][0]["N"]
    ref = _numpy_fft_stepper(theta0, T, _multiplier(theta0, kw), n0=n0,
                             **_reference_kw(kw))
    _assert_matches_reference(rec, theta0, ref)
    steps = rec.meta["steps"]
    if case == "designed-blowup":
        assert rec.termination == "gradient-threshold"
        assert len(rec) < steps
        assert [s["N"] for s in rec.meta["stages"]] == [64, 128, 256, 512,
                                                        1024]
    if case == "dt-max-limited":
        assert np.all(rec["dt"][:-1] == T / 64.0)


def test_data_that_needs_its_full_N_runs_as_one_stage():
    # modes up to N/3: no coarser grid holds them, so the run is the
    # fixed-N loop
    theta0 = ScalarField1D.random_band_limited(256, 256 // 3, 0.5, seed=5)
    kw = {"sym": HALF, "grad_stop": 1e3}
    rec = simulate_burgers(theta0, 0.2, **kw)
    ref = _numpy_fft_stepper(theta0, 0.2, _multiplier(theta0, kw),
                             **_reference_kw(kw))
    _assert_matches_reference(rec, theta0, ref)
    assert rec.meta["stages"] == [{"t": 0.0, "N": 256,
                                   "steps": rec.meta["steps"]}]


def test_start_grid_is_the_coarsest_that_holds_the_data():
    sine = ScalarField1D.from_function(4096, lambda x: 300.0 * np.sin(x))
    assert fields._start_grid(sine.spec, 4096) == 64
    # below the smallest stage the data's grid is the only one
    small = ScalarField1D.from_function(32, np.sin)
    assert fields._start_grid(small.spec, 32) == 32
    wide = ScalarField1D.random_band_limited(1024, 60, 1.0, seed=1)
    assert fields._start_grid(wide.spec, 1024) == 256
    full = ScalarField1D.random_band_limited(1024, 1024 // 3, 1.0, seed=1)
    assert fields._start_grid(full.spec, 1024) == 1024


def _stage_spectrum_1d():
    # a quarter of the designed run's last stage, whose Nyquist mode is
    # the real cosine the restriction leaves
    theta0, T, kw = _designed_case()
    rec = simulate_burgers(theta0, T, **kw)
    stage = rec.meta["stages"][-1]["N"]
    spec = _restrict(rec.final_state.spec, rec.meta["N"], stage // 4)
    return ScalarField1D.from_spectrum(spec, stage // 4), stage


def _stage_spectrum_2d():
    # white noise on 32 x 32, every Nyquist row and column entry set, with
    # the Nyquist column made Hermitian exactly as a restriction makes it
    rng = np.random.default_rng(3)
    spec = np.fft.rfft2(rng.standard_normal((32, 32)))
    col = spec[:, -1]
    spec[:, -1] = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    return ScalarField2D.from_spectrum(spec, 32), 128


@pytest.mark.parametrize("stage_spectrum",
                         [_stage_spectrum_1d, _stage_spectrum_2d],
                         ids=["1d", "2d"])
def test_padding_then_slicing_a_stage_spectrum_round_trips_bitwise(
        stage_spectrum):
    coarse, stage = stage_spectrum()
    spec = coarse.spec
    for n in (stage // 4, stage // 2, stage):
        up = fields._regrid(spec, stage // 4, n)
        assert np.array_equal(fields._regrid(up, n, stage // 4), spec)
    # padding is exact: the fine grid samples the coarse trig interpolant
    x = ScalarField1D.grid_of(stage)
    up = fields._regrid(spec, stage // 4, stage)
    if spec.ndim == 1:
        fine, want = np.fft.irfft(up, n=stage), coarse.evaluate_at(x)
    else:
        # the Nyquist corner included: padding and evaluate_on_grid both
        # read it as cos(n x / 2) cos(n y / 2)
        fine = np.fft.irfft2(up, s=(stage, stage))
        want = coarse.evaluate_on_grid(x, x)
    assert_allclose(fine, want, rtol=0.0, atol=1e-12 * coarse.linf())


def test_staged_bracket_overlaps_the_fixed_N_bracket_at_small_steps():
    # convergence oracle: the fixed-N loop at cfl 0.1 has a converged
    # bracket, and the staged run at the default cfl must meet it
    theta0, T, kw = _designed_case()
    rec = simulate_burgers(theta0, T, **kw)
    lo, hi = detect_blowup(rec, INST, grad_factor=50.0).blowup_bracket
    rows = _numpy_fft_stepper(theta0, T, _multiplier(theta0, kw), cfl=0.1,
                              **_reference_kw(kw))[0]
    t, grad = np.asarray(rows["t"]), np.asarray(rows["grad_linf"])
    i = int(np.flatnonzero(grad >= 50.0 * grad[0])[0])
    assert lo <= t[i] and t[i - 1] <= hi


def test_staged_run_reports_under_resolution_at_the_cap():
    theta0, T, kw = _designed_case()
    rec = simulate_burgers(theta0, T, **kw)
    cap = rec.meta["stages"][-1]
    assert cap["N"] == rec.meta["N"]
    assert cap["t"] < rec.meta["cap_unresolved_t"] <= rec.t[-1]
    assert rec.meta["final_tail"] > fields._REFINE_TAIL
    assert rec.meta["final_tail"] == \
        rec.final_state.spectral_tail_fraction()
    # a resolved run never fails the rule at the cap
    calm = simulate_burgers(small_smooth_field(64), 0.5, sym=HALF)
    assert calm.meta["cap_unresolved_t"] is None
    assert calm.meta["final_tail"] < fields._REFINE_TAIL


@pytest.mark.parametrize("nonlinear,per_step", [(True, 9), (False, 2)])
def test_stepper_fft_count(nonlinear, per_step, monkeypatch):
    calls = []
    for name in ("rfft", "irfft"):
        fn = getattr(burgers, name)

        def counted(*args, fn=fn, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)

        monkeypatch.setattr(burgers, name, counted)
    rec = simulate_burgers(small_smooth_field(64, 1.0), 0.2, sym=HALF,
                           nonlinear=nonlinear, dt_max=0.01)
    assert rec.meta["steps"] == 20
    assert len(calls) == 2 + per_step * rec.meta["steps"]


# ---------------------------------------------------------------------------
# Lyapunov functional
# ---------------------------------------------------------------------------

def test_lyapunov_sine():
    fld = ScalarField1D.from_function(256, np.sin)
    assert_allclose(lyapunov(fld), L_SIN, atol=1e-14)


def test_lyapunov_constant():
    fld = ScalarField1D.from_function(64, lambda x: 0.7 + 0.0 * x)
    assert_allclose(lyapunov(fld), 0.35, atol=1e-15)


def test_lyapunov_wedge_second_order():
    # the sampled kink limits the spectral sum to second order
    coarse = abs(lyapunov(ScalarField1D.from_function(1024, wedge)) - L_WEDGE)
    fine = abs(lyapunov(ScalarField1D.from_function(4096, wedge)) - L_WEDGE)
    assert coarse < 3e-3
    assert fine < coarse / 3.5


# ---------------------------------------------------------------------------
# comparison dynamics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y0,c", [(2.0, 0.0), (5.0, 4.0), (1.0, 4.0),
                                  (-5.0, 4.0)])
def test_comparison_solves_the_ode(y0, c):
    t = np.array([0.1 - 5e-7, 0.1 + 5e-7])
    y, _ = comparison_lyapunov(t, y0, c)
    dydt = (y[1] - y[0]) / 1e-6
    mid = 0.5 * (y[0] + y[1])
    assert_allclose(dydt, mid ** 2 - c, rtol=1e-4)


def test_comparison_blowup_time():
    _, tstar = comparison_lyapunov(np.array([0.0]), 2.0, 0.0)
    assert_allclose(tstar, 0.5, rtol=1e-12)
    _, tstar = comparison_lyapunov(np.array([0.0]), 5.0, 4.0)
    assert_allclose(tstar, 0.25 * math.log(7.0 / 3.0), rtol=1e-12)
    y, _ = comparison_lyapunov(np.array([tstar - 1e-9, tstar + 1e-9]), 5.0, 4.0)
    assert y[0] > 1e6
    assert np.isinf(y[1])


def test_comparison_stable_branches():
    y, tstar = comparison_lyapunov(np.array([10.0]), 1.0, 4.0)
    assert tstar is None
    assert_allclose(y[0], -2.0, atol=1e-6)
    y, _ = comparison_lyapunov(np.array([0.0, 10.0]), 2.0, 4.0)
    assert_array_equal(y, [2.0, 2.0])


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_detect_blowup_on_designed_data():
    rep, rec = designed_run(512)
    v = detect_blowup(rec, INST, grad_factor=50.0)
    assert v.verdict == BLOWUP
    assert rec.verdict == BLOWUP
    lo, hi = v.blowup_bracket
    assert 0.0 <= lo < hi <= rec.t[-1]
    assert v.grad_ratio >= 50.0
    assert v.superlinear_ok and v.ode_ok
    assert v.checks["ode_worst_ratio"] >= 0.95


def test_detect_verdict_stable_under_refinement():
    verdicts = []
    for N in (512, 1024):
        rep, rec = designed_run(N)
        verdicts.append(detect_blowup(rec, INST, grad_factor=50.0).verdict)
    assert verdicts[0] == verdicts[1] == BLOWUP


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the designed power a=0.5 run at N=4096 (grad stop 50x, "
    "T=0.5) reads BLOWUP although it left its cap unresolved at t=0.003505 "
    "and ends with a spectral tail share of 9.7e-5"))
def test_a_blowup_verdict_is_resolved_at_the_cap():
    _, rec = designed_run(4096)
    v = detect_blowup(rec, INST, grad_factor=50.0)
    assert v.verdict != BLOWUP or rec.meta["cap_unresolved_t"] is None


def test_detect_certified_regular():
    fld = small_smooth_field()
    B = find_B_for_data(fld, CRIT)
    rec = simulate_burgers(fld, 1.0, sym=CRIT, record_every=5)
    v = detect_blowup(rec, certified_B=B)
    assert v.verdict == REGULAR
    assert v.certified
    assert rec.meta["max_grad"] <= B * (1.0 + 1e-2)


def test_detect_regular_without_certificate():
    fld = small_smooth_field()
    rec = simulate_burgers(fld, 1.0, sym=CRIT, record_every=5)
    v = detect_blowup(rec)
    assert v.verdict == REGULAR
    assert not v.certified
    assert "certificate" in v.reason


def test_detect_gradient_above_certificate():
    fld = small_smooth_field()
    rec = simulate_burgers(fld, 1.0, sym=CRIT, record_every=5)
    v = detect_blowup(rec, certified_B=0.01)
    assert v.verdict == UNRESOLVED
    assert "exceeded" in v.reason


def test_detect_crossing_without_instrumentation():
    rep, rec = designed_run(512)
    v = detect_blowup(rec, grad_factor=50.0)
    assert v.verdict == UNRESOLVED


def test_detect_dt_floor_is_unresolved():
    fld = small_smooth_field()
    rec = simulate_burgers(fld, 0.5, sym=HALF, dt_floor=0.1)
    v = detect_blowup(rec)
    assert v.verdict == UNRESOLVED
    assert "suspected" in v.reason


def test_detect_zero_data():
    fld = ScalarField1D.from_function(64, lambda x: 0.0 * x)
    rec = simulate_burgers(fld, 1.0, sym=HALF)
    v = detect_blowup(rec)
    assert v.verdict == REGULAR
    assert v.certified


@pytest.mark.parametrize("inst", [None, INST], ids=["bare", "instrumented"])
def test_detect_constant_data_is_steady(inst):
    # theta_x = 0 and L c = 0: constant data is an exact steady solution,
    # and grad0 = 0 must not read as a crossed gradient threshold
    rec = simulate_burgers(ScalarField1D(np.full(64, 0.3)), 1.0, sym=HALF)
    v = detect_blowup(rec, inst)
    assert v.verdict == REGULAR and rec.verdict == REGULAR
    assert v.certified
    assert v.reason == "constant initial data is an exact steady solution"
    assert v.blowup_bracket is None
    assert v.grad_ratio == 0.0


def test_verdict_report_json():
    rep, rec = designed_run(512)
    v = detect_blowup(rec, INST, grad_factor=50.0)
    doc = json.loads(json.dumps(records.to_dict(v), allow_nan=False))
    assert doc["verdict"] == BLOWUP
    assert doc["blowup_bracket"][1] > doc["blowup_bracket"][0]


# hand-built records for the verdicts no simulated run reaches: the
# comparison constant is c = kernel_functional * linf0 = 1, so a Lyapunov
# series starting at y0 = 1.1 > sqrt(c) blows up at t* ~ 1.52, past t = 1
UNIT_INST = dataclasses.replace(INST, kernel_functional=1.0)
T11 = np.linspace(0.0, 1.0, 11)


def _hand_record(grad, lyap, termination="completed"):
    n = len(grad)
    series = {"t": T11[:n], "linf": np.ones(n), "grad_linf": grad,
              "l2": np.ones(n), "lyapunov": lyap, "dt": np.full(n, 0.1)}
    return RunRecord(equation="burgers", columns=tuple(series),
                     series=series, termination=termination,
                     meta={"N": 64})


def test_detect_crossing_with_linear_growth_is_unresolved():
    # eight equal slopes: late == early, short of the acceleration factor;
    # the series dominates the comparison, so that is the only reason
    y, _ = comparison_lyapunov(T11, 1.1, 1.0)
    rec = _hand_record(1.0 + 5.0 * T11, y * (1.0 + T11))
    v = detect_blowup(rec, UNIT_INST, grad_factor=5.0)
    assert v.verdict == UNRESOLVED and rec.verdict == UNRESOLVED
    assert v.reason == ("gradient threshold crossed but growth trend not "
                        "accelerating")
    assert v.blowup_bracket == (T11[7], T11[8])
    assert v.superlinear_ok is False and v.ode_ok is True
    assert v.checks["late_slope"] == pytest.approx(v.checks["early_slope"])
    assert v.checks["ode_worst_ratio"] >= 1.0


def test_detect_crossing_below_the_comparison_is_unresolved():
    # accelerating growth, but a flat Lyapunov series falls below the
    # comparison solution that starts from its own first value
    rec = _hand_record(np.exp(4.0 * T11), np.full(11, 1.1))
    v = detect_blowup(rec, UNIT_INST, grad_factor=20.0)
    assert v.verdict == UNRESOLVED
    assert v.reason == ("gradient threshold crossed but Lyapunov series "
                        "fell below the comparison solution")
    assert v.superlinear_ok is True and v.ode_ok is False
    assert v.checks["ode_worst_ratio"] < 1.0 - burgers._ODE_RTOL
    assert v.ode_time == pytest.approx(0.5 * math.log(2.1 / 0.1))


def test_detect_crossing_with_y0_below_sqrt_c_has_no_comparison():
    # y0 <= sqrt(c): the comparison solution does not blow up, so the
    # ODE signature fails and its worst ratio is NaN
    rec = _hand_record(np.exp(4.0 * T11), np.full(11, 1.0))
    v = detect_blowup(rec, UNIT_INST, grad_factor=20.0)
    assert v.verdict == UNRESOLVED
    assert v.reason == ("gradient threshold crossed but Lyapunov series "
                        "fell below the comparison solution")
    assert v.ode_ok is False and v.ode_time is None
    assert math.isnan(v.checks["ode_worst_ratio"])


def test_detect_crossing_within_four_slopes_is_not_accelerating():
    # the threshold is crossed at the third row: two slopes are too few
    # to compare an early and a late trend
    rec = _hand_record(np.array([1.0, 2.0, 100.0, 100.0]), np.full(4, 1.1))
    v = detect_blowup(rec, grad_factor=50.0)
    assert v.verdict == UNRESOLVED
    assert v.superlinear_ok is False
    assert v.checks["slope_samples"] == 2
    assert "early_slope" not in v.checks
    assert v.blowup_bracket == (T11[1], T11[2])


def test_detect_run_ended_early_is_unresolved():
    rec = _hand_record(1.0 + T11, np.full(11, 1.1),
                       termination="spectral-tail")
    v = detect_blowup(rec, UNIT_INST)
    assert v.verdict == UNRESOLVED
    assert v.reason == "run ended early (spectral-tail)"
    assert v.grad_ratio == 2.0


# ---------------------------------------------------------------------------
# discrete differential inequality
# ---------------------------------------------------------------------------

def test_lyapunov_inequality_on_resolved_steps():
    rep, rec = designed_run(1024, record_every=2)
    worst, _ = check_lyapunov_inequality(rec, INST.kernel_functional)
    assert worst >= 0.0


def test_lyapunov_inequality_reads_each_rows_grid_from_the_stages():
    # the shock-width proxy is two cells of the 256-point stage, half a
    # cell of the 64-point one: only rows from t = 0.5 on are resolved,
    # and the early rows, which break the inequality, are not checked
    cols = ("t", "linf", "grad_linf", "l2", "lyapunov", "dt")
    t = np.linspace(0.0, 1.0, 9)
    series = {"t": t, "linf": np.ones(9),
              "grad_linf": np.full(9, 256.0 / (4.0 * np.pi)),
              "l2": np.ones(9), "dt": np.full(9, 0.125),
              "lyapunov": np.where(t < 0.5, 4.0 - t, 1.0 + t)}
    stages = [{"t": 0.0, "N": 64, "steps": 4},
              {"t": 0.5, "N": 256, "steps": 4}]
    rec = RunRecord(equation="burgers", columns=cols, series=series,
                    meta={"N": 256, "stages": stages})
    worst, i = check_lyapunov_inequality(rec, 10.0)
    assert worst >= 0.0 and i >= 4
    # read at N alone, every row counts as resolved
    rec.meta.pop("stages")
    assert check_lyapunov_inequality(rec, 10.0)[0] < 0.0


def test_lyapunov_inequality_needs_two_rows():
    cols = ("t", "linf", "grad_linf", "l2", "lyapunov", "dt")
    rec = RunRecord(equation="burgers", columns=cols,
                    series={c: np.array([1.0]) for c in cols},
                    meta={"N": 64})
    with pytest.raises(ValueError, match="too short"):
        check_lyapunov_inequality(rec, 1.0)
