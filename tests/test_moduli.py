import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
    modulus_from_dict,
    validate_modulus,
)
from moclab.symbols import make_symbol, symbol_from_table

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


def test_moment_table_grows_below_its_floor():
    mem = build_modulus(NORMALIZED, 0.05, 0.01, 1.0)
    low = mem._low
    before = [arr.copy() for arr in (low._s, low._m0, low._m1)]
    xi = mem.delta * np.geomspace(1e-30, 1e-13, 9)
    m0, m1 = low.moments(xi)
    direct = np.array([low._below_floor(float(v)) for v in xi])
    assert_allclose(m0, direct[:, 0], rtol=1e-12)
    assert_allclose(m1, direct[:, 1], rtol=1e-12)
    # the deeper stretch is prepended; every old entry keeps its bits
    assert len(low._s) > len(before[0])
    for old, new in zip(before, (low._s, low._m0, low._m1)):
        assert np.array_equal(new[-len(old):], old)


def test_sqg_criterion_runs_few_adaptive_quadratures(monkeypatch):
    # the criterion probes omega twelve decades below each separation;
    # the table deepens instead of running quadrature per query, and seeds
    # each deeper stretch on its own panels
    calls = []
    real_quad = moduli.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(moduli, "quad", counting_quad)
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
        assert_allclose(seed, low._below_floor(math.exp(s_lo)), rtol=1e-13,
                        atol=0.0)


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
    real_quad = moduli.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(moduli, "quad", counting_quad)
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
    rep = validate_modulus(lambda xi: np.asarray(xi, dtype=float),
                           xi_grid=np.geomspace(1e-8, 10.0, 300))
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


def test_obedience_rows_margin_is_omega_minus_increment():
    f = ScalarField1D.random_band_limited(256, kmax=20, amplitude=0.2, seed=5)
    rep = check_obeys(f, build_modulus(CRITICAL, 0.1, 0.01, 2.0 ** 35))
    assert len(rep.rows) == f.N // 2
    for r in rep.rows:
        assert r.margin == r.omega - r.worst_increment
    assert rep.margin == min(r.margin for r in rep.rows)


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
    back = modulus_from_dict(mem.to_dict())
    assert_allclose(back.delta, mem.delta, rtol=1e-12)
    xi = np.geomspace(1e-2 * mem.delta, 3.0, 40)
    assert_allclose(back.omega(xi), mem.omega(xi), rtol=1e-10)


def test_member_dict_rejects_tampered_crossover():
    doc = build_modulus(CRITICAL, 0.1, 0.01, 4.0).to_dict()
    doc["deltaB"] *= 1.01
    with pytest.raises(ModulusConstructionError, match="crossover"):
        modulus_from_dict(doc)
