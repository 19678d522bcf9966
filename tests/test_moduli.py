import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
import scipy.integrate
from scipy.integrate import quad

from moclab import moduli
from moclab.certificates import default_xi_grid, sqg_criterion
from moclab.fields import ScalarField1D, ScalarField2D
from moclab.kernels import fractional_normalization
from moclab.moduli import (
    ModulusConstructionError,
    ModulusSearchError,
    build_modulus,
    check_obeys,
    find_B_for_data,
    validate_modulus,
)
from moclab.symbols import (crossover_scale, make_symbol, symbol_from_json,
                            symbol_from_table)

CRITICAL = make_symbol("power", a=1.0)


def base_member():
    return build_modulus(CRITICAL, 0.1, 0.01, 1.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_base_member_closed_forms():
    mem = base_member()
    assert_allclose(mem.delta, 0.1, rtol=1e-12)
    assert mem.C_alpha == 4.0
    assert_allclose(mem.slope_at_delta_left, 0.5, rtol=1e-10)
    # omega(delta) = B delta - pref*(delta M0 - M1) with M0 = 4 delta,
    # M1 = 7 delta^2 / 4 for the critical symbol
    assert_allclose(mem.omega_at_delta, 0.071875, rtol=1e-9)
    assert_allclose(mem.omega(0.2),
                    0.071875 + 0.005 * math.log(2.0), rtol=1e-9)


def test_slope_formula_past_crossover():
    mem = base_member()
    xi = 2.0 * mem.delta
    _, d1, _ = mem.evaluate(xi)
    assert_allclose(d1, 0.01 * CRITICAL.m(4.0 * mem.delta), rtol=1e-12)


def test_initial_slope_and_linear_bound():
    mem = base_member()
    xi = np.geomspace(1e-8 * mem.delta, mem.delta, 100)
    om = mem.omega(xi)
    assert np.all(om <= 1.0 * xi * (1.0 + 1e-12))
    assert_allclose(om[0] / xi[0], 1.0, rtol=1e-3)


def test_second_derivative_blows_up_at_zero():
    # critical-family curvature steepens like log(delta/xi): unbounded,
    # but slowly
    mem = base_member()
    _, _, d2_mid = mem.evaluate(1e-2 * mem.delta)
    _, _, d2_small = mem.evaluate(1e-4 * mem.delta)
    assert d2_small < d2_mid < 0.0
    assert_allclose(d2_mid, -1.25 * (3.0 + math.log(1e2)), rtol=1e-9)


def test_construction_rejections_name_inequalities():
    with pytest.raises(ModulusConstructionError, match="B >= 1"):
        build_modulus(CRITICAL, 0.1, 0.01, 0.5)
    with pytest.raises(ModulusConstructionError, match="gamma > 0"):
        build_modulus(CRITICAL, 0.1, 0.0, 2.0)
    with pytest.raises(ModulusConstructionError, match="2\\*gamma <= kappa"):
        build_modulus(CRITICAL, 0.1, 0.06, 2.0)
    with pytest.raises(ModulusConstructionError, match="r0/\\(4\\*C0\\)"):
        build_modulus(CRITICAL, 0.3, 0.01, 2.0)


def test_critical_scaling_degeneracy():
    # for the critical symbol the family is one modulus rescaled:
    # omega_B(xi) = omega_1(B xi), delta(B) = kappa / B
    mem1 = base_member()
    for b in (10.0, 100.0):
        memb = build_modulus(CRITICAL, 0.1, 0.01, b)
        assert_allclose(memb.delta, 0.1 / b, rtol=1e-12)
        xi = np.geomspace(1e-3 * memb.delta, 5.0, 60)
        assert_allclose(memb.omega(xi), mem1.omega(b * xi), rtol=1e-9)


def test_astronomic_B_stays_representable():
    # certificates for order-one data live at B ~ 2^500; the rescaled
    # moment formulas must stay exact there
    mem = build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 556)
    assert_allclose(mem.slope_at_delta_left / 2.0 ** 556, 0.5, rtol=1e-10)
    assert_allclose(mem.omega(0.56),
                    0.071875 + 0.005 * math.log(0.56 * 2.0 ** 556 / 0.1),
                    rtol=1e-6)


# ---------------------------------------------------------------------------
# array evaluation and the moment table
# ---------------------------------------------------------------------------

NORMALIZED = make_symbol("power", a=1.0,
                         scale=fractional_normalization(2, 1.0))


@pytest.mark.parametrize("sym", [NORMALIZED, make_symbol("power", a=0.5),
                                 make_symbol("log", a=1.0)],
                         ids=["power1-normalized", "power0.5", "log1"])
def test_array_and_scalar_routes_agree(sym):
    # log(a=1) has an envelope plateau, so the high part crosses kinks
    mem = build_modulus(sym, 0.05, 0.01, 1.0)
    xi = np.geomspace(1e-20, 10.0, 500)
    for fn in (mem.omega, mem.omega_prime, mem.omega_second):
        batched = fn(xi)
        single = np.array([fn(float(v)) for v in xi])
        assert all(type(fn(float(v))) is float for v in xi[::50])
        assert np.all(np.abs(batched - single)
                      <= 4.0 * np.finfo(float).eps * np.abs(single))
    assert mem.omega(0.0) == 0.0
    with pytest.raises(ValueError, match="negative separation"):
        mem.omega(-1e-3)
    with pytest.raises(ValueError, match="negative separation"):
        mem.omega(np.array([1e-3, -1e-3]))


def _adaptive_moments(low, xi):
    # (M0, M1) of a moment table over (0, xi] by adaptive quadrature in
    # t = ln(1/eta), over the table's own truncated window: the oracle for
    # the table's panel-rule seeds. An m that overflows to +inf reads as a
    # vanishing integrand, as it does in the table
    t0 = -math.log(xi)
    hi = low._window(t0)
    ld = low._log_delta

    def f0(t):
        with np.errstate(over="ignore", divide="ignore"):
            return (3.0 + ld + t) / low._sym.envelope(math.exp(-t))

    def f1(t):
        return math.exp(-t) * f0(t)

    return tuple(low._scale * quad(f, t0, hi, epsabs=0.0, epsrel=1e-11,
                                   limit=200)[0] for f in (f0, f1))


def test_moment_table_grows_below_its_floor():
    mem = build_modulus(NORMALIZED, 0.05, 0.01, 1.0)
    low = mem._low
    before = [arr.copy() for arr in (low._s, low._m0, low._m1)]
    xi = mem.delta * np.geomspace(1e-30, 1e-13, 9)
    m0, m1 = low.moments(xi)
    direct = np.array([_adaptive_moments(low, float(v)) for v in xi])
    assert_allclose(m0, direct[:, 0], rtol=1e-12)
    assert_allclose(m1, direct[:, 1], rtol=1e-12)
    # the deeper stretch is prepended; every old entry keeps its bits
    assert len(low._s) > len(before[0])
    for old, new in zip(before, (low._s, low._m0, low._m1)):
        assert np.array_equal(new[-len(old):], old)


def test_sqg_criterion_runs_few_adaptive_quadratures(monkeypatch):
    # the criterion probes omega twelve decades below each separation;
    # the table deepens instead of running quadrature per query, and seeds
    # each deeper stretch on its own panels. src/ imports quad where it
    # calls it, so patching scipy's counts every call
    calls = []
    real_quad = scipy.integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    mem = build_modulus(NORMALIZED, 0.05, 0.01, 1.0)
    rep = sqg_criterion(mem, xi_grid=default_xi_grid(1e-5, 1e2, 16))
    assert rep.passed
    assert calls == []


_TABLE_RADII = np.geomspace(1e-6, 2.0, 40)
SEED_SYMBOLS = {
    "power1": make_symbol("power", a=1.0),
    "power0.5": make_symbol("power", a=0.5),
    "power0.1": make_symbol("power", a=0.1),
    "log1": make_symbol("log", a=1.0),
    "log0.3": make_symbol("log", a=0.3),
    "tabulated": symbol_from_table(
        _TABLE_RADII, _TABLE_RADII ** -0.8 * (1.0 + 0.1 * np.log1p(
            1.0 / _TABLE_RADII))),
}


@pytest.mark.parametrize("name", sorted(SEED_SYMBOLS))
def test_table_seed_matches_adaptive_quadrature(name):
    # the panel-rule seed below the floor against the adaptive quad route
    # over the same truncated window
    sym = SEED_SYMBOLS[name]
    for delta in (1e-2, 1e-6, 1e-20, 1e-60):
        low = moduli._CumulativeMoments(sym, delta)
        s_lo = float(low._s[0])
        seed = low._seed(s_lo)
        assert (low._m0[0], low._m1[0]) == seed
        assert_allclose(seed, _adaptive_moments(low, math.exp(s_lo)),
                        rtol=1e-13, atol=0.0)


SUBNORMAL_XI = np.array([5e-324, 1e-320, 1e-310, 2e-308, 1e-300])


@pytest.mark.parametrize("a", [1.0, 0.5])
def test_subnormal_separations_answer_on_the_seed(a):
    # below the deepest table floor a query is the panel-rule seed at its
    # own radius, its window clipped at the smallest subnormal; there
    # omega = B xi and omega' = B to the last bit, in a batch or alone
    mem = build_modulus(make_symbol("power", a=a), 0.05, 0.01, 1.0)
    w, wp = mem.omega(SUBNORMAL_XI), mem.omega_prime(SUBNORMAL_XI)
    assert np.array_equal(w, mem.B * SUBNORMAL_XI)
    assert np.array_equal(wp, np.full(SUBNORMAL_XI.size, mem.B))
    for k, v in enumerate(SUBNORMAL_XI.tolist()):
        assert (mem.omega(v), mem.omega_prime(v)) == (w[k], wp[k])
    # the seeds against the adaptive oracle where a subnormal radius still
    # carries 40-odd bits; nearer 5e-324 the integrand itself is a staircase
    low = mem._low
    for v in (1e-310, 2e-308):
        m0, m1 = low.moments(v)
        assert_allclose((m0[0], m1[0]), _adaptive_moments(low, v),
                        rtol=1e-12, atol=0.0)


_INVARIANT_XI = np.concatenate(([0.0], np.geomspace(1e-9, 3e3, 97)))


def _invariance_member(name, B):
    sym = NORMALIZED if name == "power1" else SEED_SYMBOLS[name]
    kappa = min(0.05, 0.49 * sym.r0 / (4.0 * sym.C0))
    return build_modulus(sym, kappa, 0.2 * kappa, B)


@pytest.mark.parametrize("B", [1.0, 2.0 ** 20], ids=["B=1", "B=2^20"])
@pytest.mark.parametrize("name", ["power1", "log1", "tabulated"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_omega_is_a_function_of_its_point_alone(name, B, data):
    # a value may depend neither on the batch it is evaluated in nor on
    # the queries made before it; log(a=1) has an envelope plateau
    mem = _invariance_member(name, B)
    ref = [(mem.omega(v), mem.omega_prime(v) if v > 0.0 else None)
           for v in _INVARIANT_XI.tolist()]
    order = data.draw(st.permutations(range(_INVARIANT_XI.size)))
    cuts = sorted(data.draw(st.lists(
        st.integers(1, _INVARIANT_XI.size - 1), max_size=4, unique=True)))
    mem = _invariance_member(name, B)
    # history: queries far past the envelope table or below the moment
    # table's floor, made first
    for far in data.draw(st.lists(st.sampled_from(
            [5e3, 7.7e5, 1e-30 * mem.delta, 0.5 * mem.delta]), max_size=3)):
        mem.omega(far)
    xi = _INVARIANT_XI[list(order)]
    for piece in np.split(np.arange(xi.size), cuts):
        for k, v in zip(piece, mem.omega(xi[piece])):
            assert v == ref[order[k]][0]
        pos = piece[xi[piece] > 0.0]
        for k, v in zip(pos, mem.omega_prime(xi[pos])):
            assert v == ref[order[k]][1]


def test_omega_chunks_never_change_a_value(monkeypatch):
    mem = build_modulus(NORMALIZED, 0.05, 0.01, 1.0)
    xi = np.geomspace(1e-9, 3e3, 2000)
    whole = mem.omega(xi), mem.omega_prime(xi)
    monkeypatch.setattr(moduli, "_CHUNK_POINTS", 7)
    assert np.array_equal(mem.omega(xi), whole[0])
    assert np.array_equal(mem.omega_prime(xi), whole[1])


def _set_sorted_edges(sym, lo, hi, per_decade):
    # reference edges for _EnvelopeIntegral._grow: a set of the log grid
    # and the envelope's kinks, sorted
    n = max(2, int(math.ceil(per_decade * math.log10(hi / lo))) + 1)
    pts = set(np.geomspace(lo, hi, n))
    pts.update(p for p in sym.breakpoints if lo < p < hi)
    return np.array(sorted(pts))


@pytest.mark.parametrize("name", ["power1", "log1", "log0.3", "tabulated"])
def test_envelope_integral_edges_match_the_set_builder(name):
    sym = SEED_SYMBOLS[name]
    integ = moduli._EnvelopeIntegral(sym, 2e-7, 16.0)
    expect = _set_sorted_edges(sym, 2e-7, 16.0, 16)
    assert np.array_equal(integ._edges, expect)
    integ.value(np.array([100.0]))  # doubles the top edge up to 128
    for top in (16.0, 32.0, 64.0):
        expect = np.concatenate(
            (expect, _set_sorted_edges(sym, top, 2.0 * top, 16)[1:]))
    assert np.array_equal(integ._edges, expect)


def test_build_modulus_runs_no_adaptive_quadrature(monkeypatch):
    calls = []
    real_quad = scipy.integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    for sym, kappa in ((CRITICAL, 0.1), (NORMALIZED, 0.05),
                       (SEED_SYMBOLS["power0.5"], 0.1),
                       (SEED_SYMBOLS["log1"], 0.05)):
        for b in (1.0, 2.0 ** 20, 2.0 ** 200):
            mem = build_modulus(sym, kappa, 0.01, b)
    # deepening the table seeds the new stretch the same way
    mem.omega(1e-40 * mem.delta)
    assert calls == []


def test_bench_ladder_fields_keep_their_certified_B():
    base = ScalarField1D.random_band_limited(256, kmax=20, amplitude=1.0,
                                             seed=1)
    got = [find_B_for_data(ScalarField1D(lam * base.values), CRITICAL,
                           kappa=0.1, gamma=0.01)
           for lam in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert got == [2.0 ** k for k in (6, 35, 93, 208, 439)]


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

def test_validate_members_across_families():
    for sym, kappa in ((CRITICAL, 0.1),
                       (make_symbol("log", a=1.0, alpha=0.5), 0.05)):
        for b in (1.0, 100.0):
            rep = validate_modulus(build_modulus(sym, kappa, 0.01, b))
            assert rep.passed, [c for c in rep.checks if not c.passed]
            assert rep.check("doubling").margin >= 0.0


def test_validate_rejects_linear_adversary():
    rep = validate_modulus(lambda xi: np.asarray(xi, dtype=float))
    assert not rep.passed
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == ["curvature_blows_up"]


MEMBER_FOR_PROPERTY = build_modulus(CRITICAL, 0.1, 0.01, 3.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=5.0),
       st.floats(min_value=1e-6, max_value=5.0))
def test_concave_and_monotone_across_the_joint(x, y):
    mem = MEMBER_FOR_PROPERTY
    lo, hi = sorted((x, y))
    mid = 0.5 * (lo + hi)
    w_lo, w_mid, w_hi = (float(mem.omega(v)) for v in (lo, mid, hi))
    assert w_mid >= w_lo - 1e-12
    assert w_hi >= w_mid - 1e-12
    assert w_mid >= 0.5 * (w_lo + w_hi) - 1e-10 * max(w_hi, 1.0)


# ---------------------------------------------------------------------------
# obedience
# ---------------------------------------------------------------------------

def test_sin_obeys_generous_modulus():
    f = ScalarField1D.from_function(1024, np.sin)
    rep = check_obeys(f, lambda xi: np.minimum(2.0 * np.asarray(xi), 4.0))
    assert rep.obeys
    assert rep.margin > 0.0


def test_sin_breaks_tight_modulus_at_known_pair():
    f = ScalarField1D.from_function(1024, np.sin)
    rep = check_obeys(f, lambda xi: 0.5 * np.asarray(xi))
    assert not rep.obeys
    # continuous minimum of xi/2 - 2 sin(xi/2) sits at xi = 2 pi / 3;
    # the lattice search lands within the h^2 quantization of that minimum
    assert_allclose(rep.margin, math.pi / 3.0 - math.sqrt(3.0), atol=1e-5)
    assert_allclose(rep.worst_separation, 2.0 * math.pi / 3.0, atol=1e-2)
    (x,), (y,) = rep.worst_pair
    dx = ((y - x) + math.pi) % (2.0 * math.pi) - math.pi
    mid = (x + 0.5 * dx) % (2.0 * math.pi)
    # worst increments straddle an extremum of cos (x = 0 or pi)
    assert min(abs(mid), abs(mid - math.pi),
               abs(mid - 2.0 * math.pi)) < 1e-2


def test_obedience_margins_are_omega_minus_increment():
    f = ScalarField1D.random_band_limited(256, kmax=20, amplitude=0.2, seed=5)
    rep = check_obeys(f, build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 35))
    for col in (rep.separations, rep.omegas, rep.increments, rep.margins):
        assert col.shape == (f.N // 2,)
    assert np.array_equal(rep.margins, rep.omegas - rep.increments)
    assert rep.margin == rep.margins.min()


# the increment scans against np.roll, abs and argmax: values from a small
# integer set, so increments tie, |min| == max included
LEVELS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
TWO_PI = 2.0 * math.pi


def _bits(obj):
    # floats as float.hex, so that equality is bitwise (signed zeros too)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (tuple, list, np.ndarray)):
        return [_bits(o) for o in obj]
    return obj


def _report_bits(rep):
    return _bits((rep.separations, rep.omegas, rep.increments, rep.margins,
                  rep.margin, rep.worst_pair, rep.worst_separation,
                  rep.worst_increment))


def _rolled_report_1d(v, omega):
    # (the argmax index of every lag, the report's bits)
    N = v.size
    h = TWO_PI / N
    cols, js, worst = [], [], (math.inf, 0, 0)
    for lag in range(1, N // 2 + 1):
        om = float(omega(lag * h))
        diff = np.abs(v - np.roll(v, -lag))
        j = int(np.argmax(diff))
        margin = om - float(diff[j])
        cols.append((lag * h, om, float(diff[j]), margin))
        js.append(j)
        if margin < worst[0]:
            worst = (margin, lag, j)
    margin, lag, j = worst
    return js, _bits((*zip(*cols), margin, ((j * h,), (j * h + lag * h,)),
                      lag * h, float(omega(lag * h)) - margin))


def _rolled_report_2d(search, v, idx):
    # (the argmax index of every stratum, the report's bits)
    N = search.N
    h = TWO_PI / N
    cols, js, worst = [], [], (math.inf, -1, -1)
    for i in idx:
        dx, dy = (int(d) for d in search.offsets[i])
        diff = np.abs(v - np.roll(v, (-dx, -dy), axis=(0, 1)))
        j = int(np.argmax(diff))
        om = float(search.omegas[i])
        margin = om - float(diff.flat[j])
        cols.append((float(search.separations[i]), om, float(diff.flat[j]),
                     margin))
        js.append(j)
        if margin < worst[0]:
            worst = (margin, i, j)
    margin, i, j = worst
    dx, dy = (int(d) for d in search.offsets[i])
    jx, jy = divmod(j, N)
    pair = ((jx * h, jy * h), (jx * h + dx * h, jy * h + dy * h))
    return js, _bits((*zip(*cols), margin, pair,
                      float(search.separations[i]),
                      float(search.omegas[i]) - margin))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([4, 6, 8, 16]),
       st.sampled_from([0.25, 0.5, 1.0]))
def test_1d_scan_matches_rolled_argmax_bitwise(data, N, slope):
    v = np.array(data.draw(st.lists(LEVELS, min_size=N, max_size=N)))
    def omega(xi):
        return slope * np.asarray(xi)
    js, bits = _rolled_report_1d(v, omega)
    scanned, _ = moduli._increment_scan(v, np.arange(1, N // 2 + 1)[:, None])
    assert scanned.tolist() == js
    assert _report_bits(check_obeys(ScalarField1D(v), omega)) == bits


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([4, 6, 8]), st.sampled_from([0.25, 1.0]),
       st.booleans())
def test_2d_scan_matches_rolled_argmax_bitwise(data, N, slope, use_subset):
    v = np.array(data.draw(st.lists(LEVELS, min_size=N * N,
                                    max_size=N * N))).reshape(N, N)
    search = moduli.StratifiedPairSearch(
        N, lambda xi: slope * np.asarray(xi), directions=8,
        separations_per_decade=4)
    n = len(search.offsets)
    idx = (np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       max_size=2 * n)))
           if use_subset else np.arange(n))
    rep = search.run(ScalarField2D(v), subset=idx if use_subset else None,
                     refine=False)
    js, bits = _rolled_report_2d(search, v, idx)
    scanned, _ = moduli._increment_scan(v, search.offsets[idx])
    assert scanned.tolist() == js
    assert _report_bits(rep) == bits


def test_scan_tie_goes_to_the_first_index():
    # lag 1: v - roll(v, -1) = (-1, 1, 0, ...); |min| == max and the
    # minimum comes first, so abs's first maximum is index 0
    v = np.zeros(8)
    v[1] = 1.0
    j, inc = moduli._increment_scan(v, np.array([[1]]))
    assert (j.tolist(), inc.tolist()) == ([0], [1.0])
    # the maximum first: (1, -1, 0, ...)
    j, inc = moduli._increment_scan(-v, np.array([[1]]))
    assert (j.tolist(), inc.tolist()) == ([0], [1.0])
    # a later maximum beats an earlier, smaller minimum
    v = np.array([0.0, 1.0, -1.0, 0.0])
    j, inc = moduli._increment_scan(v, np.array([[1]]))
    assert (j.tolist(), inc.tolist()) == ([1], [2.0])


def test_1d_obedience_refuses_a_nan_field():
    # a NaN increment is no margin: the field must not read as obeying
    v = np.sin(ScalarField1D.grid_of(64))
    v[17] = math.nan
    with pytest.raises(ValueError, match="field has non-finite values"):
        check_obeys(ScalarField1D(v), lambda xi: 0.1 * np.asarray(xi))


def test_2d_obedience_refuses_a_nan_field():
    v = np.zeros((16, 16))
    v[3, 5] = math.nan
    with pytest.raises(ValueError, match="field has non-finite values"):
        check_obeys(ScalarField2D(v), lambda xi: 0.1 * np.asarray(xi))
    search = moduli.StratifiedPairSearch(16, lambda xi: 0.1 * np.asarray(xi))
    v[3, 5] = math.inf
    with pytest.raises(ValueError, match="field has non-finite values"):
        search.run(ScalarField2D(v), refine=False)


# ---------------------------------------------------------------------------
# fitting B to data
# ---------------------------------------------------------------------------

def test_find_B_zero_and_tiny_fields():
    zero = ScalarField1D(values=np.zeros(64))
    assert find_B_for_data(zero, CRITICAL) == 1.0
    eps_sin = ScalarField1D.from_function(256, lambda x: 1e-3 * np.sin(x))
    assert find_B_for_data(eps_sin, CRITICAL) == 1.0


def test_find_B_ladder_monotone_in_amplitude():
    f = ScalarField1D.random_band_limited(256, kmax=20, amplitude=1.0, seed=5)
    frozen = (6, 35, 93, 208)
    got = []
    for lam, expect in zip((0.05, 0.1, 0.2, 0.4), frozen):
        b = find_B_for_data(ScalarField1D(values=lam * f.values), CRITICAL)
        got.append(b)
        assert abs(math.log2(b) - expect) <= 1.0
        mem = build_modulus(CRITICAL, 0.1, 0.01, b)
        assert check_obeys(ScalarField1D(values=lam * f.values), mem).margin > 0.0
    assert all(x < y for x, y in zip(got, got[1:]))


def test_find_B_larger_gamma_certifies_larger_data():
    f = ScalarField1D.random_band_limited(256, kmax=20, amplitude=1.0, seed=5)
    b = find_B_for_data(f, CRITICAL, gamma=0.05)
    assert abs(math.log2(b) - 109) <= 1.0
    rep = check_obeys(f, build_modulus(CRITICAL, 0.1, 0.05, b))
    assert rep.margin > 0.0


def test_find_B_refusals_are_explicit():
    f = ScalarField1D.random_band_limited(256, kmax=20, amplitude=3.0, seed=5)
    with pytest.raises(ModulusSearchError, match="gamma up to kappa/2"):
        find_B_for_data(f, CRITICAL, max_doublings=150)
    with pytest.raises(ModulusSearchError, match="not sqg_admissible"):
        find_B_for_data(f, make_symbol("power", a=0.5), max_doublings=120)
    # five rungs are B = 2^0 ... 2^4, and the refusal names the last
    with pytest.raises(ModulusSearchError,
                       match=r"no certified B up to 2\^4;"):
        find_B_for_data(f, CRITICAL, max_doublings=5)
    # a ladder without rungs is a bad input, not a failed search
    with pytest.raises(ValueError, match="max_doublings >= 1"):
        find_B_for_data(f, CRITICAL, max_doublings=0)


def test_ladder_survives_crossover_underflow():
    # a full-depth ladder on a saturating symbol pushes delta below the
    # float range; that must surface as a search error, not an overflow
    # inside the envelope tables
    f = ScalarField1D.from_function(256, lambda x: 0.05 * np.sin(x))
    with pytest.raises(ModulusSearchError, match="ladder stopped"):
        find_B_for_data(f, make_symbol("power", a=0.5))


def test_build_modulus_names_the_underflow():
    with pytest.raises(ModulusConstructionError, match="underflowed"):
        build_modulus(CRITICAL, 0.1, 0.01, 1e302)


def test_build_modulus_names_an_unresolved_crossover():
    # m of power a=0.5 stays below B/kappa at every radius above the float
    # floor, so the crossover scale has no root there
    half = make_symbol("power", a=0.5)
    with pytest.raises(ModulusConstructionError, match="not resolved"):
        build_modulus(half, 0.05, 0.01, 2.0 ** 600)
    # a resolved root is crossover_scale's, bit for bit
    for sym, kappa in ((CRITICAL, 0.1), (half, 0.05),
                       (make_symbol("log", a=1.0), 0.05)):
        for b in (1.0, 2.0 ** 20, 2.0 ** 200):
            assert build_modulus(sym, kappa, 0.01, b).delta == \
                crossover_scale(sym, kappa, b)


BENCH_LADDER_BASE = ScalarField1D.random_band_limited(
    256, kmax=20, amplitude=1.0, seed=1)


def _counted_ladder(monkeypatch, fld, sym, kappa, **kw):
    # find_B_for_data with every member construction recorded, whether
    # through build_modulus or from a crossover scale the screen solved:
    # (B, built rungs), B None where the ladder refused
    built = []
    real = moduli._member_at

    def counting(sym, kappa, gamma, B, delta):
        built.append(B)
        return real(sym, kappa, gamma, B, delta)

    monkeypatch.setattr(moduli, "_member_at", counting)
    try:
        B = find_B_for_data(fld, sym, kappa=kappa, gamma=0.01, **kw)
    except ModulusSearchError:
        B = None
    monkeypatch.setattr(moduli, "_member_at", real)
    return B, built


def test_the_screen_builds_a_few_members_per_ladder(monkeypatch):
    # the bench ladder fields: 7 + 10 + 10 + 10 + 10 builds, where the
    # unscreened ladder builds one member per rung (up to 440)
    for lam, k in zip((0.05, 0.1, 0.2, 0.4, 0.8), (6, 35, 93, 208, 439)):
        fld = ScalarField1D(lam * BENCH_LADDER_BASE.values)
        B, built = _counted_ladder(monkeypatch, fld, CRITICAL, 0.1)
        assert B == 2.0 ** k
        assert len(built) <= 12
        assert built[0] == 1.0 and built[-1] == B


@pytest.mark.parametrize("name, kappa, lam, doublings", [
    ("power1", 0.1, 0.4, 1000),       # certified at 2^208
    ("log1", 0.05, 0.012, 1000),      # certified at 2^118
    ("power0.5", 0.1, 0.0072, 200),   # saturates: no certificate
    ("tabulated", 0.1, 0.04, 200),    # saturates just short of the data
])
def test_every_rung_the_screen_skips_fails_coverage(monkeypatch, name, kappa,
                                                    lam, doublings):
    sym = SEED_SYMBOLS[name]
    fld = ScalarField1D(lam * BENCH_LADDER_BASE.values)
    B, built = _counted_ladder(monkeypatch, fld, sym, kappa,
                               max_doublings=doublings)
    top = doublings if B is None else int(math.log2(B))
    skipped = [2.0 ** k for k in range(top) if 2.0 ** k not in built]
    assert len(skipped) > top // 2
    unorm = fld.linf()
    a = 2.0 * unorm / fld.grad_linf()
    for b in skipped:
        mem = build_modulus(sym, kappa, 0.01, b)
        assert a <= mem.delta or mem.omega(a) < 2.0 * unorm, b


def test_log_member_at_the_float_floor_is_refused_by_name():
    # m keeps its value where 2/r overflows, so the moment tables reach the
    # float floor; the top member is the last whose delta exceeds 1e-300
    sym = make_symbol("log", a=1.0, alpha=0.5)
    mem = build_modulus(sym, 0.05, 0.01, 2.0 ** 982)
    assert 1e-300 < mem.delta < 2e-300
    with pytest.raises(ModulusConstructionError,
                       match="crossover scale .* underflowed"):
        build_modulus(sym, 0.05, 0.01, 2.0 ** 983)


def test_log_member_answers_below_the_overflow_of_two_over_r():
    # below r = 2/DBL_MAX, where 2/r overflows, m keeps its value, so the
    # moment table reaches the seed of a query at 1e-300
    mem = build_modulus(make_symbol("log", a=1.0), 0.05, 0.01, 1.0)
    assert mem.omega(1e-300) == mem.B * 1e-300


def test_find_B_certifies_2d_field():
    f = ScalarField2D.random_band_limited(64, kmax=16, amplitude=0.2, seed=9)
    b = find_B_for_data(f, CRITICAL)
    assert abs(math.log2(b) - 93) <= 1.0
    mem = build_modulus(CRITICAL, 0.1, 0.01, b)
    assert check_obeys(f, mem).margin > 0.0
    assert not check_obeys(f, build_modulus(CRITICAL, 0.1, 0.01, 1.0)).obeys


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_member_dict_round_trip():
    mem = build_modulus(make_symbol("log", a=1.0, alpha=0.5), 0.05, 0.01, 32.0)
    doc = mem.to_dict()
    back = build_modulus(symbol_from_json(doc["symbol"]), doc["kappa"],
                         doc["gamma"], doc["B"])
    assert_allclose(back.delta, mem.delta, rtol=1e-12)
    xi = np.geomspace(1e-2 * mem.delta, 3.0, 40)
    assert_allclose(back.omega(xi), mem.omega(xi), rtol=1e-10)
