import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from moclab import records
from moclab.fields import ScalarField1D
from moclab.symbols import (
    check_conditions,
    crossover_scale,
    make_multiplier,
    make_symbol,
    symbol_from_callable,
    symbol_from_json,
    symbol_from_multiplier,
    symbol_from_table,
)


# ---------------------------------------------------------------------------
# symbol families
# ---------------------------------------------------------------------------

def test_power_family_values():
    s = make_symbol("power", a=1.0)
    assert s.m(0.1) == 10.0
    assert s.m(2.0) == 0.5
    assert s.alpha == 1.0 and s.r0 == 1.0 and s.C0 == 1.0
    assert s.sqg_admissible
    # integral of m(r)/r over (1, inf) for m = 1/r
    assert_allclose(s.tail_integral_over_r(1.0), 1.0, rtol=1e-14)


def test_power_family_admissibility_flag():
    # integral of m near 0 converges exactly when a < 1
    assert not make_symbol("power", a=0.5).sqg_admissible
    assert not make_symbol("power", a=0.3).sqg_admissible
    assert make_symbol("power", a=1.0).sqg_admissible


def test_power_family_rejects_bad_exponent():
    with pytest.raises(ValueError, match="a in \\(0, 1\\]"):
        make_symbol("power", a=1.5)
    with pytest.raises(ValueError, match="scale"):
        make_symbol("power", a=1.0, scale=-2.0)
    with pytest.raises(ValueError, match="family"):
        make_symbol("cauchy", a=1.0)


def test_log_family_values():
    s = make_symbol("log", a=1.0, alpha=0.5)
    assert_allclose(s.m(0.1), 1.0 / (0.1 * math.log(20.0)), rtol=1e-14)
    assert_allclose(s.r0, 2.0 * math.exp(-1.0), rtol=1e-14)
    assert s.sqg_admissible
    # envelope: tight non-increasing minorant of m (m rises locally where the
    # core cap meets the tail; understating it is the conservative side)
    r = np.geomspace(1e-6, 50.0, 400)
    env = s.envelope(r)
    assert np.all(np.diff(env) <= 1e-12 * env[:-1])
    assert np.all(env <= s.m(r) * (1.0 + 1e-12))
    below = r < 0.5
    assert_allclose(env[below], s.m(r[below]), rtol=1e-12)
    assert_allclose(s.envelope(0.5), 1.0 / (0.5 * math.log(4.0)), rtol=1e-12)


def test_symbol_rejects_nonpositive_radius():
    s = make_symbol("power", a=0.5)
    with pytest.raises(ValueError, match="non-positive radius"):
        s.m(0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_symbol_json_round_trip():
    for s in (make_symbol("power", a=0.5, scale=3.0),
              make_symbol("log", a=1.0, alpha=0.5, scale=2.0)):
        doc = json.loads(json.dumps(records.to_dict(s), allow_nan=False))
        assert doc == s.to_dict()
        back = symbol_from_json(doc)
        r = np.geomspace(1e-4, 10.0, 40)
        assert_allclose(back.m(r), s.m(r), rtol=1e-12)
        assert back.sqg_admissible == s.sqg_admissible
        assert back.alpha == s.alpha


def test_tabulated_symbol_json_round_trip_is_bitwise():
    # the table travels as radii and values, so the rebuilt symbol
    # interpolates the same knots to the bit
    r = np.geomspace(1e-6, 2.0, 40)
    s = symbol_from_table(r, r ** -0.8)
    doc = json.loads(json.dumps(s.to_dict(), allow_nan=False))
    assert doc["family"] == "tabulated"
    assert doc["radii"] == r.tolist() and doc["values"] == (r ** -0.8).tolist()
    back = symbol_from_json(json.dumps(doc))
    x = np.geomspace(1e-7, 10.0, 50)
    assert back.m(x).tobytes() == s.m(x).tobytes()
    assert (back.alpha, back.C0, back.sqg_admissible) == \
        (s.alpha, s.C0, s.sqg_admissible)


def test_symbol_from_table_interpolates_knots():
    r = np.geomspace(1e-3, 10.0, 25)
    vals = 1.0 / r
    s = symbol_from_table(r, vals)
    assert_allclose(s.m(r[3:20]), vals[3:20], rtol=1e-12)
    # log-log interpolation of a pure power is exact between knots
    mid = math.sqrt(r[5] * r[6])
    assert_allclose(s.m(mid), 1.0 / mid, rtol=1e-9)


def test_symbol_from_table_rejections():
    r = np.geomspace(0.1, 1.0, 8)
    with pytest.raises(ValueError, match="strictly decreasing"):
        symbol_from_table(r, np.ones_like(r))
    with pytest.raises(ValueError, match="at least 4"):
        symbol_from_table(r[:3], 1.0 / r[:3])


# ---------------------------------------------------------------------------
# structure condition checks
# ---------------------------------------------------------------------------

def test_check_conditions_critical():
    rep = check_conditions(make_symbol("power", a=1.0))
    assert rep.ok
    assert rep.rm_bounded
    assert rep.m_monotone_violations == 0
    assert rep.integral_divergent_analytic
    assert rep.integral_divergent_trend is True
    # per-decade increments of a critical symbol are constant
    inc = rep.partial_integrals
    assert_allclose(inc[-1], inc[0], rtol=1e-8)


def test_check_conditions_subcritical_trend():
    rep = check_conditions(make_symbol("power", a=0.5))
    assert rep.ok
    assert rep.integral_divergent_trend is False
    assert rep.trend_consistent
    assert not rep.warnings


# ---------------------------------------------------------------------------
# crossover scale
# ---------------------------------------------------------------------------

def test_crossover_scale_critical_closed_form():
    s = make_symbol("power", a=1.0)
    assert_allclose(crossover_scale(s, 0.1, 1.0), 0.1, rtol=1e-12)
    assert_allclose(crossover_scale(s, 0.1, 10.0), 0.01, rtol=1e-12)


def test_crossover_scale_log_family_frozen():
    s = make_symbol("log", a=1.0, alpha=0.5)
    assert_allclose(crossover_scale(s, 0.05, 2.0),
                    4.0271659238694055e-3, rtol=1e-9)


def test_crossover_scale_monotone_in_B():
    s = make_symbol("log", a=1.0, alpha=0.5)
    deltas = [crossover_scale(s, 0.05, b) for b in (1.0, 2.0, 8.0, 64.0)]
    assert all(x > y for x, y in zip(deltas, deltas[1:]))


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["power", "log"]),
       a=st.floats(min_value=0.2, max_value=1.0),
       B=st.floats(min_value=1.0, max_value=1e30),
       factor=st.floats(min_value=1.0, max_value=1e3))
def test_crossover_scale_non_increasing_in_B(family, a, B, factor):
    s = make_symbol(family, a=a)
    low = crossover_scale(s, 0.05, B)
    high = crossover_scale(s, 0.05, B * factor)
    assert high <= low * (1.0 + 1e-12)


def test_crossover_scale_rejections():
    s = make_symbol("power", a=1.0)
    with pytest.raises(ValueError, match="kappa must lie in"):
        crossover_scale(s, 0.5, 2.0)
    with pytest.raises(ValueError, match="B >= 1"):
        crossover_scale(s, 0.1, 0.5)


_CROSSOVER_TABLE = np.geomspace(1e-6, 2.0, 40)
CROSSOVER_SYMBOLS = {
    "power1": make_symbol("power", a=1.0),
    "power0.5": make_symbol("power", a=0.5),
    "log1": make_symbol("log", a=1.0, alpha=0.5),
    "log0.3": make_symbol("log", a=0.3),
    "tabulated": symbol_from_table(_CROSSOVER_TABLE,
                                   _CROSSOVER_TABLE ** -0.8),
}


def _scalar_crossover(s, B):
    try:
        return crossover_scale(s, 0.05, B)
    except RuntimeError:
        return None


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CROSSOVER_SYMBOLS)),
       log2_B=st.lists(st.floats(min_value=0.0, max_value=900.0),
                       min_size=1, max_size=12))
def test_crossover_scale_takes_arrays_entry_by_entry(name, log2_B):
    # each entry of an array solve is the scalar solve of that B, bitwise;
    # an entry whose root leaves the float range refuses the whole array
    s = CROSSOVER_SYMBOLS[name]
    Bs = np.exp2(np.array(log2_B))
    single = [_scalar_crossover(s, float(B)) for B in Bs]
    if any(d is None for d in single):
        with pytest.raises(RuntimeError, match="not resolved"):
            crossover_scale(s, 0.05, Bs)
        return
    deltas = crossover_scale(s, 0.05, Bs)
    assert deltas.shape == Bs.shape
    assert deltas.tolist() == single
    target = Bs / 0.05
    assert np.all(np.abs(s.m(deltas) - target) <= 1e-12 * target)
    grid = crossover_scale(s, 0.05, Bs.reshape(1, -1))
    assert grid.shape == (1, Bs.size)
    assert grid.ravel().tolist() == single


def test_crossover_scale_array_refusals_match_the_scalar_ones():
    s = make_symbol("power", a=1.0)
    with pytest.raises(ValueError, match="kappa must lie in"):
        crossover_scale(s, 0.5, np.array([2.0, 4.0]))
    with pytest.raises(ValueError, match="B >= 1"):
        crossover_scale(s, 0.1, np.array([2.0, 0.5]))
    # delta = (kappa/B)^2 underflows for power a = 0.5 past B ~ 2^535
    half = make_symbol("power", a=0.5)
    with pytest.raises(RuntimeError, match="not resolved"):
        crossover_scale(half, 0.05, 2.0 ** 600)
    with pytest.raises(RuntimeError, match="not resolved"):
        crossover_scale(half, 0.05, np.array([2.0, 2.0 ** 600]))
    assert crossover_scale(half, 0.05, 2.0 ** 500) > 0.0


_TABLE_RADII = np.geomspace(1e-6, 2.0, 40)
EVERY_FAMILY = {
    "power1": make_symbol("power", a=1.0, scale=1.0 / math.pi),
    "power0.5": make_symbol("power", a=0.5),
    "log1": make_symbol("log", a=1.0),
    "log0.3": make_symbol("log", a=0.3),
    "tabulated": symbol_from_table(_TABLE_RADII, _TABLE_RADII ** -0.8),
    "multiplier": symbol_from_multiplier(
        make_multiplier("log-damped", a=1.0)),
    "callable": symbol_from_callable(
        lambda r: 1.0 / (r * (1.0 - np.log(r))), core_radius=0.5, alpha=0.9,
        r0=0.5, C0=1.0, sqg_admissible=True),
}


def _probe_radii(s):
    # a wide log grid plus both sides of every branch point
    pts = [s.core_radius, *(s._env_plateau or ())[::2]]
    if s._table is not None:
        pts += [s._table[0][0], s._table[0][-1]]
    pts = np.array([p for p in pts if p > 0.0])
    return np.concatenate((np.geomspace(1e-300, 1e3, 20011), pts,
                           np.nextafter(pts, 0.0), np.nextafter(pts, 1e3)))


@pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
def test_scalar_m_and_envelope_match_the_array_route_bitwise(name):
    s = EVERY_FAMILY[name]
    r = _probe_radii(s)
    for fn in (s.m, s.envelope):
        single = [fn(v) for v in r.tolist()]
        assert all(type(v) is float for v in single)
        assert np.array_equal(np.array(single), fn(r))


def _masked_m(s, r):
    # m through the branch masks on every call, the reference route
    out = np.empty_like(r)
    core = r <= s.core_radius
    out[core] = s._core(r[core])
    out[~core] = s.tail_coeff * r[~core] ** (-s.alpha)
    return out


def _masked_envelope(s, r):
    if s._env_plateau is None:
        return _masked_m(s, r)
    r_lo, m_flat, r_hi = s._env_plateau
    out = np.full_like(r, np.nan)
    low = r < r_lo
    high = r >= r_hi
    out[low] = _masked_m(s, r[low])
    out[(r >= r_lo) & (r < r_hi)] = m_flat
    out[high] = s.tail_coeff * r[high] ** (-s.alpha)
    return out


@pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
def test_one_branch_radii_skip_the_masks_bitwise(name):
    # radii inside one branch take the whole-array route; it must give the
    # masked route's bits, NaN radii and offset views included
    s = EVERY_FAMILY[name]
    r = _probe_radii(s)
    r_lo, _, r_hi = s._env_plateau or (s.core_radius, None, s.core_radius)
    parts = [r, r[r <= s.core_radius], r[r > s.core_radius], r[r < r_lo],
             r[r >= r_hi], r[-1:], np.geomspace(2.0, 9.0, 40001)]
    for part in (p for p in parts if p.size):
        with_nan = np.insert(part, [0, part.size // 2], np.nan)
        for view in (part, with_nan, with_nan[1:], with_nan[::3]):
            assert np.array_equal(s.m(view), _masked_m(s, view),
                                  equal_nan=True)
            assert np.array_equal(s.envelope(view), _masked_envelope(s, view),
                                  equal_nan=True)


@pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
def test_tail_integrals_take_arrays_bitwise(name):
    s = EVERY_FAMILY[name]
    R = np.concatenate((np.geomspace(1e-8, 50.0, 61),
                        [s.core_radius, s.tail_start, *s.breakpoints]))
    R = R[R > 0.0]
    for fn in (s.tail_integral_over_r, s.envelope_tail_integral_over_r):
        single = [fn(v) for v in R.tolist()]
        assert all(type(v) is float for v in single)
        assert np.array_equal(np.array(single), fn(R))
        assert fn(R.reshape(1, -1)).shape == (1, R.size)
        with pytest.raises(ValueError, match="R > 0"):
            fn(np.array([1.0, 0.0]))


@pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
def test_envelope_passes_nan_through(name):
    s = EVERY_FAMILY[name]
    assert math.isnan(s.envelope(math.nan))
    assert math.isnan(s.envelope(np.array(math.nan)))
    out = s.envelope(np.array([math.nan, 0.5, math.nan]))
    assert np.isnan(out[[0, 2]]).all()
    assert out[1] == s.envelope(0.5)


def _tail_reference(s, R):
    # integral of m(u)/u over (R, core_radius) by adaptive quad in ln(u),
    # split at the table radii, plus the closed-form power tail
    pts = [R, *(p for p in s.breakpoints if R < p < s.core_radius),
           s.core_radius]
    inner = sum(quad(lambda t: s.m(math.exp(t)), math.log(a), math.log(b),
                     epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(pts[:-1], pts[1:]))
    return inner + s.tail_coeff * s.core_radius ** -s.alpha / s.alpha


_TAIL_RADII = np.geomspace(1e-6, 5.0, 40)


@pytest.mark.parametrize("s", [
    make_symbol("log", a=1.0),
    make_symbol("log", a=0.3),
    symbol_from_table(_TAIL_RADII, _TAIL_RADII ** -0.8),
    EVERY_FAMILY["multiplier"],
    EVERY_FAMILY["callable"],
], ids=["log1", "log0.3", "tabulated", "multiplier", "callable"])
def test_tail_integral_inside_the_core_matches_quad(s):
    for f in (0.999, 0.5, 1e-2, 1e-6):
        R = f * s.core_radius
        assert_allclose(s.tail_integral_over_r(R), _tail_reference(s, R),
                        rtol=1e-11, atol=0.0)
    # from the core radius outward it is the closed form
    R = 2.0 * s.core_radius
    assert s.tail_integral_over_r(R) == \
        s.tail_coeff * np.power(R, -s.alpha) / s.alpha
    with pytest.raises(ValueError, match="R > 0"):
        s.tail_integral_over_r(0.0)


def test_breakpoints_and_tail_start():
    log1 = make_symbol("log", a=1.0)
    r_lo, _, r_hi = log1._env_plateau
    assert log1.breakpoints == [r_lo, r_hi] and log1.tail_start == r_hi
    assert log1.tail_start > log1.core_radius
    power = make_symbol("power", a=0.5)
    assert power.breakpoints == [] and power.tail_start == 0.0
    tab = EVERY_FAMILY["tabulated"]
    assert tab.breakpoints == [tab.core_radius, *_TABLE_RADII]
    assert tab.tail_start == tab.core_radius


@pytest.mark.parametrize("R", [1e-4, 0.5, 0.9, 1.5, 40.0])
def test_envelope_tail_integral_matches_quad(R):
    s = make_symbol("log", a=1.0)
    pts = [R, *(p for p in s.breakpoints if R < p), 1e300]
    ref = sum(quad(lambda t: s.envelope(math.exp(t)), math.log(a),
                   math.log(b), epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for a, b in zip(pts[:-2], pts[1:-1]))
    ref += s.tail_coeff * max(R, s.tail_start) ** -s.alpha / s.alpha
    assert_allclose(s.envelope_tail_integral_over_r(R), ref, rtol=1e-12)


def test_scalar_m_refuses_non_positive_radii_and_passes_nan():
    for s in EVERY_FAMILY.values():
        for bad in (0.0, -0.0, -1e-3):
            with pytest.raises(ValueError, match="non-positive radius"):
                s.m(bad)
        assert math.isnan(s.m(math.nan))
        assert np.isnan(s.m(np.array([math.nan]))[0])


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def test_multiplier_forms():
    p_log = make_multiplier("log-damped", a=1.0)
    assert_allclose(p_log(1.0), 1.0 / math.log(3.0), rtol=1e-14)
    assert_allclose(p_log(10.0), 10.0 / math.log(12.0), rtol=1e-14)
    assert make_multiplier("power", s=0.5)(4.0) == 2.0
    assert make_multiplier("constant", c=2.5)(3.0) == 2.5
    assert make_multiplier("zero")(3.0) == 0.0
    assert_allclose(make_multiplier("loglog", g=1.0)(math.e),
                    1.14005105647836, rtol=1e-10)
    with pytest.raises(ValueError, match="multiplier kind"):
        make_multiplier("tanh")


def test_multiplier_sampled_growth_exponent():
    assert_allclose(make_multiplier("power", s=0.5).alpha, 0.5, atol=1e-6)
    # averaged sampled exponent of z/ln(2+z) sits strictly inside (1/2, 1)
    a = make_multiplier("log-damped", a=1.0).alpha
    assert 0.5 < a < 1.0


def test_symbol_from_multiplier_admissibility():
    s = symbol_from_multiplier(make_multiplier("log-damped", a=1.0))
    # m(r) = P(1/r) = 1/(r ln(2 + 1/r)) has a divergent integral at 0
    assert s.sqg_admissible
    r = np.geomspace(1e-6, 0.5, 50)
    assert np.all(np.diff(s.m(r)) < 0.0)


@pytest.mark.parametrize("kind, params, divergent", [
    ("power", {"s": 0.5}, False),
    ("power", {"s": 0.9}, False),
    ("power", {"s": 1.0}, True),
    ("log-damped", {}, True),
])
def test_multiplier_admissibility_classifies_m_toward_zero(kind, params,
                                                           divergent):
    # m = P(1/r) = r^-s is integrable at 0 exactly when s < 1
    s = symbol_from_multiplier(make_multiplier(kind, **params))
    assert s.sqg_admissible is divergent
    assert check_conditions(s).trend_consistent


def test_log_damped_multiplier_applies_to_a_pure_mode():
    f = ScalarField1D.from_function(64, lambda x: np.sin(5.0 * x))
    P = make_multiplier("log-damped", a=1.0)
    g = f.apply_multiplier(P)
    assert_allclose(g.values, P(5.0) * f.values, atol=1e-12)
