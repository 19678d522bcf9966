import functools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.fft import irfft2
from scipy.integrate import quad

from moclab import fields, moduli, sqg_euler
from moclab.fields import ScalarField1D, ScalarField2D, velocity_multipliers
from moclab.kernels import fractional_normalization, multiplier_of_symbol_2d
from moclab.moduli import (StratifiedPairSearch, build_modulus,
                           check_obeys, find_B_for_data)
from moclab.sqg_euler import (ObedienceMonitor, osgood_check,
                              simulate_p_euler, simulate_sqg)
from moclab.records import REGULAR, UNRESOLVED
from moclab.symbols import make_multiplier, make_symbol

CRITICAL = make_symbol("power", a=1.0)
# the 2-D multiplier of CRITICAL, 2 pi |k|: the P its members dissipate by
CRITICAL_P = functools.partial(multiplier_of_symbol_2d, CRITICAL)


def _assert_p_is_the_members(P, mem):
    K = np.array([1.0, 2.0, 7.0, 64.0])
    assert np.array_equal(P(K), multiplier_of_symbol_2d(mem.sym, K))


def _member_and_field():
    mem = build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 10)
    fld = ScalarField2D.random_band_limited(32, kmax=6, amplitude=0.05,
                                            seed=3)
    return mem, fld


def test_monitor_full_sweep_equals_pair_search():
    mem, fld = _member_and_field()
    monitor = ObedienceMonitor(mem, 32)
    search = StratifiedPairSearch(32, mem.omega, directions=32,
                                  separations_per_decade=8)
    swept = []
    for scale in (1.0, 4.0, 0.5):
        moved = ScalarField2D(scale * fld.values)
        swept.append(search.run(moved).margin)
        assert monitor.margin(moved) == swept[-1]
    assert monitor.min_margin == min(swept)


def test_the_bench_run_sweeps_three_of_its_65_rows():
    # the monitored run of the README and of the sqg_monitored bench at
    # seed 1: the t = 0 sweep holds the smallest margin
    fld = ScalarField2D.random_band_limited(128, kmax=4, amplitude=0.05,
                                            seed=1)
    sym = make_symbol("power", a=1.0,
                      scale=fractional_normalization(2, 1.0))
    B = find_B_for_data(fld, sym, kappa=0.05, gamma=0.01)
    rec = simulate_sqg(fld, 0.5, P=make_multiplier("power", s=1.0),
                       member=build_modulus(sym, 0.05, 0.01, B))
    assert rec.meta["steps"] == 64 and rec.verdict == REGULAR
    assert rec.meta["monitor_rows"] == [0, 6, 20]
    assert rec.meta["min_obedience_margin"] == rec["obedience_margin"][0]


def _monitored_rows(monkeypatch, theta0, T, omega, **kw):
    # the run's record and the padded state of each of its rows, as the
    # monitor was handed them
    states = []
    row = ObedienceMonitor.row

    def kept(self, fld):
        states.append(fld)
        return row(self, fld)

    monkeypatch.setattr(ObedienceMonitor, "row", kept)
    rec = simulate_sqg(theta0, T, member=omega, **kw)
    assert len(states) == len(rec["t"])
    return rec, states


def test_the_carried_bound_is_a_lower_bound_on_every_row(monkeypatch):
    # a skipped row stores a bound on its lattice margin; a scanned row
    # stores the full refined sweep's margin to the bit
    mem, fld = _member_and_field()
    _assert_p_is_the_members(CRITICAL_P, mem)
    rec, states = _monitored_rows(monkeypatch, fld, 0.25, mem, P=CRITICAL_P,
                                  dt_max=0.0125)
    search = StratifiedPairSearch(32, mem.omega, directions=32,
                                  separations_per_decade=8)
    scanned = rec.meta["monitor_rows"]
    assert rec.meta["steps"] >= 16 and scanned[0] == 0
    assert 1 < len(scanned) < len(states)
    for i, (stored, state) in enumerate(zip(rec["obedience_margin"],
                                            states)):
        assert stored <= search.run(state, refine=False).margin
        if i in scanned:
            assert stored.hex() == search.run(state).margin.hex()
        else:
            assert stored > 0.0
    assert rec.meta["min_obedience_margin"] == \
        min(rec["obedience_margin"][i] for i in scanned)


def test_a_breakthrough_is_found_at_the_row_a_scan_of_every_row_finds(
        monkeypatch):
    # a Lipschitz modulus 1.3 times the data's lattice slope: the saddle
    # data of Constantin, Majda and Tabak steepen into a front, and the
    # margin at the grid scale falls through 0 mid-run
    N = 32
    theta0 = ScalarField2D.from_function(
        N, lambda x, y: np.sin(x) * np.sin(y) + np.cos(y))
    lattice = StratifiedPairSearch(N, lambda xi: np.asarray(xi),
                                   directions=32, separations_per_decade=8)
    rep = lattice.run(theta0, refine=False)
    slope = 1.3 * np.max(rep.increments / rep.separations)

    def omega(xi):
        return slope * np.asarray(xi)

    rec, states = _monitored_rows(monkeypatch, theta0, 3.5, omega,
                                  P=lambda k: 0.0 * k, dt_max=0.05,
                                  tail_limit=1e-2)
    search = StratifiedPairSearch(N, omega, directions=32,
                                  separations_per_decade=8)
    every = np.array([search.run(state).margin for state in states])
    stored = np.asarray(rec["obedience_margin"])
    first = int(np.argmax(every <= 0.0))
    assert every[0] > 0.0 and every[first] <= 0.0
    assert int(np.argmax(stored <= 0.0)) == first
    # the monitor skipped rows before it found the breakthrough
    assert len([i for i in rec.meta["monitor_rows"] if i < first]) < first
    assert rec.termination == "completed" and rec.verdict == UNRESOLVED


def test_the_carried_bound_holds_across_a_stage_doubling(monkeypatch):
    # the inviscid seed-9 data refine their stage 64 -> 128 mid-run under
    # a Lipschitz modulus 1.3 times their lattice slope; the monitor reads
    # every state on the 128 grid, so its bound carries across the change
    theta0 = ScalarField2D.random_band_limited(128, 8, 20.0, seed=9)
    lattice = StratifiedPairSearch(128, lambda xi: np.asarray(xi),
                                   directions=32, separations_per_decade=8)
    rep = lattice.run(theta0, refine=False)
    slope = 1.3 * np.max(rep.increments / rep.separations)

    def omega(xi):
        return slope * np.asarray(xi)

    rec, states = _monitored_rows(monkeypatch, theta0, 0.02, omega,
                                  P=make_multiplier("zero"))
    first, cap = rec.meta["stages"]
    assert (first["N"], cap["N"]) == (64, 128)
    doubled = first["steps"]
    search = StratifiedPairSearch(128, omega, directions=32,
                                  separations_per_decade=8)
    scanned = rec.meta["monitor_rows"]
    # a bound carried from a sweep before the doubling clears a row after
    assert any(i not in scanned and max(j for j in scanned if j < i)
               < doubled for i in range(doubled + 1, len(states)))
    for i, (stored, state) in enumerate(zip(rec["obedience_margin"],
                                            states)):
        assert stored <= search.run(state, refine=False).margin
        if i in scanned:
            assert stored.hex() == search.run(state).margin.hex()


@pytest.mark.parametrize("T, kw, name", [
    (math.nan, {}, "horizon T"), (math.inf, {}, "horizon T"),
    (1.0, {"dt_max": math.nan}, "dt_max")])
def test_a_horizon_or_step_cap_that_would_never_end_is_refused(T, kw, name):
    # a NaN or infinite horizon, or a NaN step cap, stepped forever
    with pytest.raises(ValueError, match=name):
        simulate_sqg(_plane_wave(32), T, P=make_multiplier("power", s=1.0),
                     **kw)


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
            check_obeys(f, scalar_only)
        assert calls == [1]
    with pytest.raises(TypeError, match=r"returned shape \(\) for"):
        check_obeys(fld, lambda xi: 1.0)


def test_obedience_takes_any_object_with_an_omega_method():
    # check_obeys and the monitor take a member, a bare callable or any
    # object with an omega method: a stand-in gives the bare callable's
    # margin to the bit

    class StandIn:
        def __init__(self, omega):
            self.omega = omega

    mem, fld = _member_and_field()
    plain = StandIn(mem.omega)
    line = ScalarField1D.random_band_limited(64, kmax=6, amplitude=0.05,
                                             seed=3)
    for f in (line, fld):
        assert check_obeys(f, plain).margin.hex() == \
            check_obeys(f, mem.omega).margin.hex()
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


def test_one_refinement_reads_theta_once_per_round(monkeypatch):
    # each of the 3 rounds reads theta on one tensor lattice: the 5 base
    # and the 9 distinct sum coordinates per axis
    mem, fld = _member_and_field()
    search = StratifiedPairSearch(32, mem.omega)
    lattice = search.run(fld, refine=False)
    reads = []
    on_grid = ScalarField2D.evaluate_on_grid

    def counted(self, xs, ys):
        reads.append((len(xs), len(ys)))
        return on_grid(self, xs, ys)

    monkeypatch.setattr(ScalarField2D, "evaluate_on_grid", counted)
    monkeypatch.setattr(ScalarField2D, "evaluate_at", None)
    rep = search.run(fld)
    assert rep.refined and rep.margin < lattice.margin
    assert reads == [(14, 14)] * 3


def test_a_monitored_run_under_a_weaker_multiplier_is_refused():
    # the unscaled critical member dissipates by 2 pi |k|; P = |k| would
    # dissipate less than its modulus assumes
    mem = build_modulus(CRITICAL, 0.05, 0.01, 2.0 ** 10)
    fld = ScalarField2D.random_band_limited(32, kmax=4, amplitude=0.05,
                                            seed=1)
    with pytest.raises(ValueError, match=(
            r"the run's multiplier P\(1\) = 1 is below 6\.28318530717958\d*, "
            r"the 2-D multiplier of the member's symbol 'power\(a=1\)'")):
        simulate_sqg(fld, 0.05, P=make_multiplier("power", s=1.0),
                     member=mem)


def _exhaustive_lattice_margin(fld, mem):
    # the smallest margin over every lattice offset up to sign: 8,193 of
    # them at N = 128
    N = fld.N
    offs = np.argwhere(np.ones((N, N), dtype=bool))[1:]
    neg = -offs % N
    keep = (offs[:, 0] < neg[:, 0]) | ((offs[:, 0] == neg[:, 0])
                                       & (offs[:, 1] <= neg[:, 1]))
    offs = (offs[keep] + N // 2) % N - N // 2
    seps = 2.0 * math.pi / N * np.hypot(offs[:, 0], offs[:, 1])
    return moduli._scan_report(fld.values, offs, seps, mem.omega(seps)).margin


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 19: the sampled obedience margins are not lower bounds. "
    "On sqg_monitored data at its certified B, against the smallest "
    "margin over all 8,193 lattice offsets: at seed 2 (B = 2^164) the "
    "monitor reads 1.399e-3 against 1.226e-3; at seed 8 (2^165) "
    "check_obeys reads 6.112e-3 and the monitor 7.083e-3 against "
    "5.938e-3. At seed 1 both read 8.97e-3 <= 9.06e-3"))
def test_the_sampled_obedience_margins_are_lower_bounds():
    sym = make_symbol("power", a=1.0,
                      scale=fractional_normalization(2, 1.0))
    above = []
    for seed in (2, 8):
        fld = ScalarField2D.random_band_limited(128, kmax=4, amplitude=0.05,
                                                seed=seed)
        B = find_B_for_data(fld, sym, kappa=0.05, gamma=0.01)
        mem = build_modulus(sym, 0.05, 0.01, B)
        lowest = _exhaustive_lattice_margin(fld, mem)
        for sampled in (check_obeys(fld, mem).margin,
                        ObedienceMonitor(mem, 128).margin(fld)):
            if sampled > lowest:
                above.append((seed, sampled, lowest))
    assert not above, above


def test_a_monitored_run_makes_no_numpy_fft_call(monkeypatch):
    # the monitor reads its interpolant off the run's own stage spectrum
    mem = build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 10)
    theta0 = ScalarField2D.random_band_limited(128, kmax=4, amplitude=0.05,
                                               seed=1)

    def refused(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, refused)
    _assert_p_is_the_members(CRITICAL_P, mem)
    rec = simulate_sqg(theta0, 0.01, P=CRITICAL_P, member=mem,
                       dt_max=0.0025)
    assert rec.meta["stages"] == [{"t": 0.0, "N": 64, "steps": 4}]
    assert np.all(np.isfinite(rec["obedience_margin"]))


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
    # 8 transforms of 20 fields per step in the advection core: 1 inverse
    # of the step's 4 grid fields (velocity and gradient), reused by stage
    # 1, 1 forward in stage 1, and 1 inverse of 4 fields and 1 forward in
    # each later stage; 3 transforms of 1 field per row (one per step,
    # plus t = 0) and 1 for the final state in fields
    theta0 = ScalarField2D.random_band_limited(32, kmax=4, amplitude=0.3,
                                               seed=11)
    _ = theta0.spec
    calls = {"advection": 0, "fields": 0}
    planes = {"advection": 0, "fields": 0}
    for module, key in ((sqg_euler, "advection"), (fields, "fields")):
        for name in ("rfft2", "irfft2"):
            fn = getattr(module, name)

            def counted(*args, fn=fn, key=key, **kwargs):
                out = fn(*args, **kwargs)
                calls[key] += 1
                planes[key] += out[..., 0, 0].size
                return out

            monkeypatch.setattr(module, name, counted)
    simulate, P = LAWS[law]
    rec = simulate(theta0, 0.2, P=P, dt_max=0.01)
    assert rec.meta["steps"] == 20 and len(rec["t"]) == 21
    assert calls == {"advection": 20 * 8, "fields": 3 * 21 + 1}
    assert planes == {"advection": 20 * 20, "fields": 3 * 21 + 1}


@pytest.mark.parametrize("n", [32, 64, 128])
def test_the_batched_advection_fields_equal_four_transforms(n):
    # one inverse transform of the four stacked factors times a spectrum
    # gives each grid field bit for bit as its own irfft2
    theta = ScalarField2D.random_band_limited(n, kmax=n // 3, amplitude=1.0,
                                              seed=5)
    mx, my = velocity_multipliers(n, "sqg")
    kx, ky = fields.wavenumber_grids_2d(n)
    core = sqg_euler._AdvectionCore(n, mx, my)
    grid, speed = core.grid(theta.spec)
    one_by_one = [irfft2(factor * theta.spec, s=(n, n))
                  for factor in (mx, my, 1j * kx, 1j * ky)]
    assert grid.shape == (4, n, n)
    for got, ref in zip(grid, one_by_one):
        assert np.array_equal(got, ref)
    assert speed == np.max(np.hypot(*one_by_one[:2]))


# ----------------------------------------------------------------------
# staged 2-D runs
# ----------------------------------------------------------------------

def test_start_grid_on_2d_data():
    wide = ScalarField2D.random_band_limited(128, kmax=4, amplitude=1.0,
                                             seed=1)
    assert fields._start_grid(wide.spec, 128) == 64
    full = ScalarField2D.random_band_limited(128, kmax=128 // 3,
                                             amplitude=1.0, seed=1)
    assert fields._start_grid(full.spec, 128) == 128
    # no stage is below 64 points per axis
    for N in (16, 32, 64):
        fld = ScalarField2D.random_band_limited(N, kmax=4, amplitude=1.0,
                                                seed=1)
        assert fields._start_grid(fld.spec, N) == N


def test_a_128_run_on_its_64_stage_is_the_64_run_padded():
    # 128 x 128 data that a 64 x 64 grid holds run on that stage to the
    # end: the run of the same data at N = 64, padded, bit for bit
    theta0 = ScalarField2D.random_band_limited(128, kmax=4, amplitude=0.05,
                                               seed=1)
    P = make_multiplier("power", s=1.0)
    fine = simulate_sqg(theta0, 0.1, P=P)
    assert fine.meta["stages"] == [{"t": 0.0, "N": 64,
                                    "steps": fine.meta["steps"]}]
    coarse = simulate_sqg(ScalarField2D.from_spectrum(
        fields._regrid(theta0.spec, 128, 64), 64), 0.1, P=P)
    assert coarse.meta["steps"] == fine.meta["steps"] >= 64
    assert np.array_equal(coarse["t"], fine["t"])
    assert fine.final_state.N == 128
    assert np.array_equal(fine.final_state.spec,
                          fields._regrid(coarse.final_state.spec, 64, 128))


def test_a_2d_run_doubles_its_stage_on_the_tail_rule():
    # inviscid SQG steepens strong data until the 64 x 64 stage's top
    # eighth passes the refine rule
    theta0 = ScalarField2D.random_band_limited(128, 8, 20.0, seed=9)
    T = 0.02
    rec = simulate_sqg(theta0, T, P=make_multiplier("zero"))
    assert rec.termination == "completed"
    first, cap = rec.meta["stages"]
    assert (first["N"], first["t"], cap["N"]) == (64, 0.0, 128)
    assert 0.0 < cap["t"] < T and cap["t"] in rec["t"]
    assert first["steps"] + cap["steps"] == rec.meta["steps"]
    assert rec.meta["cap_unresolved_t"] is None
    assert rec.final_state.N == 128
    assert rec.meta["final_tail"] == \
        rec.final_state.spectral_tail_fraction()


def test_a_run_unresolved_at_its_cap_is_not_regular():
    # inviscid SQG refines 64 -> 128 and then fails the refine rule at
    # N = 128 (cap_unresolved_t), yet ends under the tail limit
    theta0 = ScalarField2D.random_band_limited(128, 8, 20.0, seed=9)
    rec = simulate_sqg(theta0, 0.04, P=lambda k: 0.0 * k)
    assert rec.termination == "completed"
    assert [stage["N"] for stage in rec.meta["stages"]] == [64, 128]
    assert 0.0 < rec.meta["cap_unresolved_t"] < 0.04
    assert fields._REFINE_TAIL < rec.meta["final_tail"] \
        < sqg_euler._TAIL_LIMIT
    assert rec.verdict == UNRESOLVED


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


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the decade-ratio classifier reads the wrong side at "
    "the log frontier. The Osgood integrals of loglog g = 2 and 6 converge, "
    "yet both read divergent-consistent (last ratios 0.977 and 0.966); "
    "power s = 0.01 reads ambiguous, so gradient_bound_ode(P, 1, 1, 1e4) "
    "gives no blow-up time and escapes at ln B = 338.2"))
def test_osgood_labels_the_convergent_side_at_the_log_frontier():
    for g in (2.0, 6.0):
        assert not osgood_check(make_multiplier("loglog", g=g)).divergent, g
    bound = sqg_euler.gradient_bound_ode(make_multiplier("power", s=0.01),
                                         1.0, 1.0, 1e4)
    assert bound.blowup_time is not None, bound.log_B[-1]


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


@pytest.mark.parametrize("c, C, A, T", [(2.0, 0.5, 1.0, 1.0),
                                        (0.3, 1.0, 2.0, 3.0)])
def test_bound_of_a_constant_multiplier_is_the_closed_form(c, C, A, T):
    # for P = c the speed in b = ln B is alpha + beta b, with
    # alpha = C A (1 + c (1 + ln 2)) and beta = C A c, so
    # b(t) = (alpha / beta)(e^(beta t) - 1)
    alpha = C * A * (1.0 + c * (1.0 + math.log(2.0)))
    beta = C * A * c
    exact = lambda t: alpha / beta * np.expm1(beta * t)
    bound = sqg_euler.gradient_bound_ode(make_multiplier("constant", c=c),
                                         A, C, T)
    assert bound.t[-1] >= T and bound.blowup_time is None
    assert_allclose(bound.log_B, exact(bound.t), rtol=1e-13, atol=0.0)
    t = np.linspace(0.0, T, 2001)
    assert_allclose(np.log(bound.at(t)), exact(t), rtol=0.0, atol=1e-4)


def test_bound_with_no_speed_stays_at_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = sqg_euler.gradient_bound_ode(
            make_multiplier("loglog", g=1.0), 1.0, 0.0, 2.0)
        envelope = bound.at(np.linspace(0.0, 2.0, 11))
    assert not bound.log_B.any() and bound.t[-1] == 2.0
    assert_array_equal(envelope, 1.0)
    assert bound.blowup_time is None and bound.warnings == []


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


def test_constant_data_is_regular_as_a_steady_solution():
    # no gradient and no velocity: the calibrated constant is 0, and the
    # growth of a zero Lipschitz norm is 1, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sqg_euler.euler_regularity_experiment(
            ScalarField2D(np.full((32, 32), 0.5)),
            make_multiplier("loglog", g=1.0), 0.5)
    assert rep.verdict == REGULAR and rep.passed
    assert rep.reason == "constant initial data is an exact steady solution"
    assert rep.C == 0.0 and rep.worst_margin == 0.0
    assert rep.record.termination == "completed"


def _saddle(n):
    # the Constantin-Majda-Tabak saddle sin x sin y + cos y
    return ScalarField2D.from_function(
        n, lambda x, y: np.sin(x) * np.sin(y) + np.cos(y))


@pytest.mark.parametrize("g, data, T", [
    (6.0, lambda: ScalarField2D.random_band_limited(64, 4, 1.0, seed=1), 1.0),
    (6.0, lambda: ScalarField2D.random_band_limited(64, 4, 1.0, seed=1), 2.0),
    (1.0, lambda: _saddle(64), 3.0),
], ids=["loglog6-random-T1", "loglog6-random-T2", "loglog1-saddle-T3"])
def test_an_escaped_envelope_is_unresolved_by_name(monkeypatch, g, data, T):
    # the envelope stops at its escape time before T: the experiment says
    # so and returns before simulating, never reading the bound past it
    def no_run(*args, **kwargs):
        raise AssertionError("simulated past an escaped envelope")

    monkeypatch.setattr(sqg_euler, "simulate_p_euler", no_run)
    rep = sqg_euler.euler_regularity_experiment(
        data(), make_multiplier("loglog", g=g), T)
    assert rep.bound.t[-1] < T and rep.bound.blowup_time is None
    assert rep.verdict == UNRESOLVED and not rep.passed
    assert f"escaped at t = {rep.bound.t[-1]:.6g}" in rep.reason
    assert f"ln B = {rep.bound.log_B[-1]:.6g}" in rep.reason
    assert rep.record is None and rep.worst_margin == -math.inf
    assert math.isnan(rep.worst_time)


def test_user_callables_are_called_on_arrays():
    # an array-native multiplier need not take a float (a float has no
    # .clip); each entry point that takes a callable answers as on the
    # same callable made to take floats too
    loglog = make_multiplier("loglog", g=1.0)
    P = lambda k: loglog(k.clip(0.0, None))
    either = lambda fn: lambda x: fn(np.asarray(x, dtype=float))
    bounds = [sqg_euler.gradient_bound_ode(fn, 1.0, 1.0, 1.0)
              for fn in (P, either(P))]
    assert_array_equal(bounds[0].log_B, bounds[1].log_B)
    fld = ScalarField2D.random_band_limited(16, 3, 0.3, seed=1)
    reps = [sqg_euler.euler_regularity_experiment(fld, fn, 0.1)
            for fn in (P, either(P))]
    assert reps[0].verdict == reps[1].verdict == REGULAR
    assert reps[0].worst_margin == reps[1].worst_margin


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


@pytest.mark.parametrize("law", ["sqg", "p_euler"])
def test_gradient_of_velocity_sup_matches_one_transform_per_field(law):
    # the batched inverse gives each field's own irfft2 bit for bit
    P = make_multiplier("log-damped", a=1.0)
    for n in (16, 32, 64):
        fld = ScalarField2D.random_band_limited(n, 4, 1.0, seed=n)
        mx, my = velocity_multipliers(n, law, P=P)
        kx, ky = fields.wavenumber_grids_2d(n)
        sup = max(fields.max_hypot(irfft2(1j * kx * m * fld.spec, s=(n, n)),
                                   irfft2(1j * ky * m * fld.spec, s=(n, n)))
                  for m in (mx, my))
        assert sqg_euler.gradient_of_velocity_sup(fld, law, P=P) == sup
