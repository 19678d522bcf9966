import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from moclab import fields, sqg_euler
from moclab.certificates import PlainModulus
from moclab.fields import ScalarField1D, ScalarField2D, velocity_multipliers
from moclab.moduli import StratifiedPairSearch, build_modulus, check_obeys
from moclab.sqg_euler import (ObedienceMonitor, osgood_check,
                              simulate_p_euler, simulate_sqg)
from moclab.records import REGULAR, UNRESOLVED
from moclab.symbols import make_multiplier, make_symbol

CRITICAL = make_symbol("power", a=1.0)


def _member_and_field():
    mem = build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 10)
    fld = ScalarField2D.random_band_limited(32, kmax=6, amplitude=0.05,
                                            seed=3)
    return mem, fld


def test_monitor_full_sweep_equals_pair_search():
    mem, fld = _member_and_field()
    monitor = ObedienceMonitor(mem, 32, full_every=1)
    search = StratifiedPairSearch(32, mem.omega, directions=32,
                                  separations_per_decade=8)
    swept = []
    for scale in (1.0, 4.0, 0.5):
        moved = ScalarField2D(scale * fld.values)
        swept.append(search.run(moved).margin)
        assert monitor.margin(moved) == swept[-1]
    assert monitor.min_margin == min(swept)


def test_check_obeys_refuses_a_scalar_only_callable():
    # a modulus callable takes an array of separations and returns its
    # shape; one that takes scalars only is refused by name, in one call
    mem, fld = _member_and_field()
    calls = []

    def scalar_only(xi):
        calls.append(np.ndim(xi))
        if np.ndim(xi):
            raise TypeError("scalars only")
        return float(mem.omega(xi))

    line = ScalarField1D.random_band_limited(64, kmax=6, amplitude=0.05,
                                             seed=3)
    for f in (fld, line):
        calls.clear()
        with pytest.raises(TypeError,
                           match="scalar_only is not array-native"):
            check_obeys(f, scalar_only, directions=16,
                        separations_per_decade=6)
        assert calls == [1]
    with pytest.raises(TypeError, match=r"returned shape \(\) for"):
        check_obeys(fld, lambda xi: 1.0)


def test_obedience_takes_any_object_with_an_omega_method():
    # check_obeys and the monitor take what the criteria take: a
    # PlainModulus gives the bare callable's margin to the bit
    mem, fld = _member_and_field()
    plain = PlainModulus(omega_fn=mem.omega, omega_prime_fn=mem.omega_prime,
                         sym=mem.sym, delta=mem.delta)
    line = ScalarField1D.random_band_limited(64, kmax=6, amplitude=0.05,
                                             seed=3)
    for f, kw in ((line, {}),
                  (fld, {"directions": 16, "separations_per_decade": 6})):
        assert check_obeys(f, plain, **kw).margin.hex() == \
            check_obeys(f, mem.omega, **kw).margin.hex()
    assert ObedienceMonitor(plain, fld.N).margin(fld).hex() == \
        ObedienceMonitor(mem.omega, fld.N).margin(fld).hex()


# ----------------------------------------------------------------------
# off-lattice refinement: tensor-lattice route vs the per-point route
# ----------------------------------------------------------------------

def _refine_per_point(search, fld, pair, margin, sep, inc):
    # the 625-point route: every (x, v) candidate evaluated on its own
    h = 2.0 * np.pi / search.N
    x = np.asarray(pair[0], dtype=float)
    vvec = np.asarray(pair[1], dtype=float) - x
    span = h
    steps = np.linspace(-1.0, 1.0, 5)
    for _ in range(3):
        dxs = span * steps
        cand_x = x[None, :] + np.stack(
            np.meshgrid(dxs, dxs), axis=-1).reshape(-1, 2)
        cand_v = vvec[None, :] + np.stack(
            np.meshgrid(dxs, dxs), axis=-1).reshape(-1, 2)
        X = np.repeat(cand_x, len(cand_v), axis=0)
        V = np.tile(cand_v, (len(cand_x), 1))
        norms = np.hypot(V[:, 0], V[:, 1])
        keep = norms > h / 8.0
        X, V, norms = X[keep], V[keep], norms[keep]
        if norms.size == 0:
            break
        incs = np.abs(fld.evaluate_at(X + V) - fld.evaluate_at(X))
        margins = np.array([search.omega(float(s)) for s in norms]) - incs
        k = int(np.argmin(margins))
        if margins[k] < margin:
            margin = float(margins[k])
            x, vvec = X[k], V[k]
            sep = float(norms[k])
            inc = float(incs[k])
        span /= 4.0
    return margin, (x, x + vvec), sep, inc


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_refinement_matches_per_point_route(seed):
    mem = build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 10)
    fld = ScalarField2D.random_band_limited(64, kmax=6, amplitude=0.05,
                                            seed=seed)
    search = StratifiedPairSearch(64, mem.omega, directions=32,
                                  separations_per_decade=8)
    lattice = search.run(fld, refine=False)
    refined = search.run(fld)
    margin, pair, sep, inc = _refine_per_point(
        search, fld, [np.array(p) for p in lattice.worst_pair],
        lattice.margin, lattice.worst_separation, lattice.worst_increment)
    assert refined.margin < lattice.margin  # the refinement did move
    tol = 1e-14 * fld.linf()
    assert abs(refined.margin - margin) <= tol
    assert abs(refined.worst_increment - inc) <= tol
    assert refined.worst_separation == sep
    assert refined.worst_pair == (tuple(pair[0]), tuple(pair[1]))


# ----------------------------------------------------------------------
# stepper oracles
# ----------------------------------------------------------------------

def _plane_wave(N, amp=0.3):
    return ScalarField2D.from_function(
        N, lambda x, y: amp * np.sin(3.0 * x + 4.0 * y))


def test_sqg_plane_wave_decays_by_the_semigroup():
    P = make_multiplier("power", s=1.0)
    theta0 = _plane_wave(32)
    T = 0.3
    rec = simulate_sqg(theta0, T, P=P, dt_max=T / 16)
    assert rec.termination == "completed"
    exact = math.exp(-float(P(np.array([5.0]))[0]) * T) * theta0.values
    assert np.max(np.abs(rec.final_state.values - exact)) <= 1e-14


def test_run_ends_on_the_horizon_without_a_rounding_step():
    # sixteen steps of T/16 add up to just short of T; closing that gap
    # would take a ~1e-16 step and record t twice
    P = make_multiplier("power", s=1.0)
    T = 0.3
    rec = simulate_sqg(_plane_wave(32), T, P=P, dt_max=T / 16)
    assert rec.termination == "completed"
    assert rec.meta["steps"] == 16
    assert len(rec["t"]) == 17
    assert np.all(np.diff(rec["t"]) > 0.0)
    assert_allclose(rec["t"][-1], T, rtol=1e-14)


def test_p_euler_plane_wave_is_steady():
    P = make_multiplier("log-damped", a=1.0)
    theta0 = _plane_wave(32)
    rec = simulate_p_euler(theta0, 0.5, P=P)
    assert np.max(np.abs(rec.final_state.values - theta0.values)) <= 1e-14


@pytest.mark.parametrize("law", ["sqg", "p_euler"])
def test_velocity_is_divergence_free(law):
    N = 32
    P = make_multiplier("log-damped", a=1.0)
    fld = ScalarField2D.random_band_limited(N, kmax=8, amplitude=1.0, seed=7)
    mx, my = velocity_multipliers(N, law, P=P)
    kx, ky = fld.wavenumber_grids()
    ux = np.fft.irfft2(mx * fld.spec, s=(N, N))
    uy = np.fft.irfft2(my * fld.spec, s=(N, N))
    div = np.fft.irfft2(1j * kx * mx * fld.spec + 1j * ky * my * fld.spec,
                        s=(N, N))
    assert np.max(np.hypot(ux, uy)) > 0.1
    assert np.max(np.abs(div)) <= 1e-14 * np.max(np.hypot(ux, uy))


def test_p_euler_conserves_l2():
    P = make_multiplier("log-damped", a=1.0)
    theta0 = ScalarField2D.random_band_limited(64, kmax=8, amplitude=0.5,
                                               seed=4)
    rec = simulate_p_euler(theta0, 0.5, P=P)
    assert rec.termination == "completed"
    l2 = rec["l2"]
    assert np.max(np.abs(l2 / l2[0] - 1.0)) <= 1e-12
    assert rec["grad_linf"][-1] != rec["grad_linf"][0]  # the field moved


def _series_with_separate_cfl_velocity(theta0, T, law, P, dt_max):
    # a self-contained copy of the stepper, with the velocity law, the
    # advection term and the CFL velocity all written out here; the CFL
    # velocity is computed apart from stage 1
    N = theta0.N
    kx = np.fft.fftfreq(N, d=1.0 / N)[:, None]
    ky = np.arange(N // 2 + 1, dtype=float)[None, :]
    kmod = np.hypot(kx, ky)
    mask = (kmod <= N // 3).astype(float)
    safe = np.where(kmod == 0.0, np.inf, kmod)
    Pv = np.asarray(P(kmod), dtype=float)
    if law == "sqg":
        Pk, w = Pv, 1.0 / safe
    else:
        Pk, w = np.zeros_like(kmod), Pv / safe ** 2
    mx, my = -1j * ky * w, 1j * kx * w

    def nonlinear(s):
        ux = np.fft.irfft2(mx * s, s=(N, N))
        uy = np.fft.irfft2(my * s, s=(N, N))
        gx = np.fft.irfft2(1j * kx * s, s=(N, N))
        gy = np.fft.irfft2(1j * ky * s, s=(N, N))
        return -mask * np.fft.rfft2(ux * gx + uy * gy)

    h = 2.0 * np.pi / N
    spec = theta0.spec.astype(complex).copy()
    rows = {c: [] for c in ("t", "linf", "grad_linf", "l2")}

    def record(t):
        fld = ScalarField2D.from_spectrum(spec, N)
        for c, v in (("t", t), ("linf", fld.linf()),
                     ("grad_linf", fld.grad_linf()), ("l2", fld.l2())):
            rows[c].append(v)

    t = 0.0
    record(t)
    while t < T * (1.0 - 1e-14):
        ux = np.fft.irfft2(mx * spec, s=(N, N))
        uy = np.fft.irfft2(my * spec, s=(N, N))
        dt = min(dt_max, 0.4 * h / max(float(np.max(np.hypot(ux, uy))),
                                       1e-300), T - t)
        E = np.exp(-0.5 * dt * Pk)
        E2 = E * E
        a = nonlinear(spec)
        b = nonlinear(E * (spec + 0.5 * dt * a))
        c = nonlinear(E * spec + 0.5 * dt * b)
        d = nonlinear(E2 * spec + dt * E * c)
        spec = E2 * spec + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
        t += dt
        record(t)
    return rows, spec


LAWS = {"sqg": (simulate_sqg, make_multiplier("power", s=1.0)),
        "p_euler": (simulate_p_euler, make_multiplier("log-damped", a=1.0))}


def test_stage_one_velocity_reuse_leaves_the_run_bitwise_unchanged():
    theta0 = ScalarField2D.random_band_limited(32, kmax=4, amplitude=1.0,
                                               seed=11)
    T = 0.5
    for law, (simulate, P) in LAWS.items():
        # dt_max = T leaves every step to the CFL bound
        rec = simulate(theta0, T, P=P, dt_max=T)
        reference, spec = _series_with_separate_cfl_velocity(theta0, T, law,
                                                             P, T)
        assert rec.termination == "completed", law
        assert rec.meta["steps"] == len(reference["t"]) - 1 >= 4, law
        for c, ref in reference.items():
            assert np.array_equal(rec[c], np.asarray(ref)), (law, c)
        assert np.array_equal(rec.final_state.values,
                              ScalarField2D.from_spectrum(spec, 32).values)


def test_early_stops_leave_the_2d_run_unresolved():
    P = make_multiplier("power", s=1.0)
    floor = simulate_sqg(_plane_wave(32), 0.3, P=P, dt_floor=0.05)
    assert floor.termination == "dt-floor" and floor.verdict == UNRESOLVED
    assert floor.meta["steps"] == 0 and len(floor["t"]) == 1
    # inviscid SQG steepens these strong data until the top shell fills
    theta0 = ScalarField2D.random_band_limited(32, 8, 20.0, seed=9)
    tail = simulate_sqg(theta0, 2.0, P=make_multiplier("zero"),
                        tail_limit=1e-3)
    assert tail.termination == "spectral-tail" and tail.verdict == UNRESOLVED
    assert tail["spectral_tail"][-1] > 1e-3 >= tail["spectral_tail"][-2]
    assert tail["t"][-1] < 2.0


@pytest.mark.parametrize("law", sorted(LAWS))
def test_stepper_fft_count_2d(law, monkeypatch):
    # 20 transforms per step in the advection core: 2 for the step's
    # velocity, reused by stage 1, 3 more in stage 1 and 5 in each later
    # stage; 3 per recorded row and 1 for the final state in fields
    theta0 = ScalarField2D.random_band_limited(32, kmax=4, amplitude=0.3,
                                               seed=11)
    _ = theta0.spec
    calls = {"advection": 0, "fields": 0}
    for module, key in ((sqg_euler, "advection"), (fields, "fields")):
        for name in ("rfft2", "irfft2"):
            fn = getattr(module, name)

            def counted(*args, fn=fn, key=key, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    simulate, P = LAWS[law]
    rec = simulate(theta0, 0.2, P=P, dt_max=0.01, record_every=4)
    assert rec.meta["steps"] == 20 and len(rec["t"]) == 6
    assert calls == {"advection": 20 * 20, "fields": 3 * 6 + 1}


# ----------------------------------------------------------------------
# Osgood condition
# ----------------------------------------------------------------------

def test_osgood_classifies_known_multipliers():
    # 1/(r ln(2r) r^1.5) is integrable at infinity; 1/(r ln(2r) ln ln r)
    # is not
    fast = osgood_check(make_multiplier("power", s=1.5))
    assert fast.classification == "convergent-consistent" and fast.convergent
    slow = osgood_check(make_multiplier("loglog"))
    assert slow.classification == "divergent-consistent" and slow.divergent


def test_osgood_of_a_constant_multiplier_matches_the_closed_form():
    # integral_1^M dr / (r ln(2r) c) = (ln ln 2M - ln ln 2) / c: each decade
    # and each partial is a log of a ratio of ln(2M), free of cancellation
    c = 2.0
    rep = osgood_check(make_multiplier("constant", c=c))
    L = np.log(2.0 * 10.0 ** np.arange(61.0))
    assert_allclose(rep.decade_increments, np.log(L[1:] / L[:-1]) / c,
                    rtol=1e-13)
    assert_array_equal(rep.M_values, 10.0 ** np.arange(1.0, 13.0))
    assert_allclose(rep.partials, np.log(L[1:13] / L[0]) / c, rtol=1e-13)


# ----------------------------------------------------------------------
# Lipschitz comparison bound and the regularity experiment
# ----------------------------------------------------------------------

def test_bound_blowup_bracket_contains_the_separable_time():
    # dt/db = 1 / (1 + e^(1.5 b)(1 + ln 2 + b)) for P = r^1.5, A = C = 1
    ln2 = math.log(2.0)
    t_sep, _ = quad(lambda b: math.exp(-1.5 * b)
                    / (math.exp(-1.5 * b) + 1.0 + ln2 + b), 0.0, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    bound = sqg_euler.gradient_bound_ode(make_multiplier("power", s=1.5),
                                         1.0, 1.0, 1.0)
    lo, hi = bound.blowup_bracket
    assert lo <= t_sep <= hi and hi - lo < 1e-6
    assert lo <= bound.blowup_time <= hi
    assert bound.t[-1] < t_sep


def test_bound_with_divergent_osgood_integral_stays_global():
    bound = sqg_euler.gradient_bound_ode(make_multiplier("loglog", g=1.0),
                                         1.0, 1.0, 10.0)
    assert bound.blowup_time is None and bound.blowup_bracket is None
    assert bound.osgood.divergent
    assert "divergent-consistent" in bound.warnings[0]


@pytest.mark.parametrize("kind, params, c_scale, verdict, reason", [
    ("power", {"s": 1.5}, 1.0, UNRESOLVED, "inside the horizon"),
    ("loglog", {"g": 1.0}, 1.0, REGULAR, "stayed below"),
    ("loglog", {"g": 1.0}, 1e-3, UNRESOLVED, "exceeded the envelope"),
], ids=["power-blows-up", "loglog-regular", "loglog-undercalibrated"])
def test_euler_experiment_branches(kind, params, c_scale, verdict, reason):
    fld = ScalarField2D.random_band_limited(32, 4, 1.0, seed=1)
    rep = sqg_euler.euler_regularity_experiment(
        fld, make_multiplier(kind, **params), 0.5, c_scale=c_scale)
    assert rep.verdict == verdict
    assert rep.passed == (verdict == REGULAR)
    assert reason in rep.reason
    if kind == "power":
        assert 0.1 < rep.bound.blowup_time < 0.11 and rep.record is None


def test_gradient_of_velocity_sup_on_a_plane_wave():
    # theta = cos(x + 2y), k = (1, 2): each velocity component is a plane
    # wave of amplitude |k^perp_j| M(|k|), so the largest gradient sup is
    # 2 sqrt(5) M(sqrt 5), with M = 1/|k| (SQG) or P(|k|)/|k|^2 (P-Euler)
    fld = ScalarField2D.from_function(32, lambda x, y: np.cos(x + 2.0 * y))
    P = make_multiplier("log-damped", a=1.0)
    r5 = math.sqrt(5.0)
    assert_allclose(sqg_euler.gradient_of_velocity_sup(fld, "sqg"), 2.0,
                    rtol=1e-14)
    assert_allclose(sqg_euler.gradient_of_velocity_sup(fld, "p_euler", P=P),
                    2.0 * P(r5) / r5, rtol=1e-14)
