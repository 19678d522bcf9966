import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from moclab.fields import ScalarField2D
from moclab.kernels import (
    fractional_multiplier_constant,
    fractional_normalization,
    multiplier_of_symbol_1d,
    multiplier_of_symbol_2d,
)
from moclab.records import REGULAR
from moclab.sqg_euler import simulate_sqg
from moclab.symbols import (make_multiplier, make_symbol,
                            symbol_from_callable, symbol_from_multiplier,
                            symbol_from_table)

from reference import multiplier_1d


# ---------------------------------------------------------------------------
# multiplier constants and forward multipliers
# ---------------------------------------------------------------------------

def test_fractional_multiplier_constant():
    assert_allclose(fractional_multiplier_constant(1, 1.0), math.pi, rtol=1e-14)
    assert_allclose(fractional_multiplier_constant(2, 1.0), 2.0 * math.pi,
                    rtol=1e-14)
    assert_allclose(fractional_multiplier_constant(1, 0.5), 5.013256549262,
                    rtol=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        fractional_multiplier_constant(3, 1.0)
    with pytest.raises(ValueError, match="exponent"):
        fractional_multiplier_constant(1, 2.0)


def test_normalized_symbol_has_exact_power_multiplier():
    s = make_symbol("power", a=1.0, scale=fractional_normalization(1, 1.0))
    assert_allclose(multiplier_of_symbol_1d(s, 1.0), 1.0, rtol=1e-12)
    assert_allclose(multiplier_of_symbol_1d(s, 7.0), 7.0, rtol=1e-12)


def test_multiplier_of_symbol_scales_as_power():
    s = make_symbol("power", a=0.5)
    q = fractional_multiplier_constant(1, 0.5)
    assert_allclose(multiplier_of_symbol_1d(s, 2.0), q * math.sqrt(2.0),
                    rtol=1e-12)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
def test_a_power_symbols_multiplier_is_its_closed_form_bitwise(a):
    # core radius 0: no core correction, only the tail's closed form
    k = np.arange(4097.0)
    for s in (make_symbol("power", a=a),
              make_symbol("power", a=a, scale=fractional_normalization(1, a))):
        want = s.tail_coeff * fractional_multiplier_constant(1, a) \
            * np.abs(k) ** a
        assert np.array_equal(multiplier_of_symbol_1d(s, k), want)


_TABLE_RADII = np.geomspace(1e-6, 2.0, 40)
_NON_POWER = {
    "log1": make_symbol("log", a=1.0),
    "log0.3": make_symbol("log", a=0.3),
    "multiplier": symbol_from_multiplier(make_multiplier("log-damped", a=1.0)),
    "tabulated": symbol_from_table(_TABLE_RADII, _TABLE_RADII ** -0.8),
    "callable-core2": symbol_from_callable(
        lambda r: np.asarray(r) ** -0.6, core_radius=2.0, alpha=0.6, r0=1.0,
        C0=1.0, sqg_admissible=False),
}


_EXACT = {**_NON_POWER, "power0.5": make_symbol("power", a=0.5),
          "power1": make_symbol("power", a=1.0)}


@pytest.mark.parametrize("sym", _EXACT.values(), ids=list(_EXACT))
def test_the_symbol_multiplier_is_the_exact_integral(sym):
    # the multiplier integral at 20 digits (tests/reference.py): mpmath.quad
    # on the core, split at half periods and at the breakpoints, where m
    # jumps in slope for the log family, and the power tail in closed form
    ks = np.array([1.0, 7.0, 64.0])
    want = [float(multiplier_1d(sym, k)) for k in ks]
    assert_allclose(multiplier_of_symbol_1d(sym, ks), want, rtol=1e-13)


# ---------------------------------------------------------------------------
# the 2-D multiplier of a symbol
# ---------------------------------------------------------------------------

_K2 = np.array([1.0, math.sqrt(5.0), 7.3, 17.0, 31.9, 45.25])


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
def test_a_power_symbols_2d_multiplier_is_its_closed_form_bitwise(a):
    # core radius 0: the 2-D multiplier is T Q(2, a) |K|^a and nothing else
    K = np.concatenate(([0.0], _K2, np.hypot(*np.divmod(np.arange(4096.0),
                                                        64.0))))
    for s in (make_symbol("power", a=a),
              make_symbol("power", a=a, scale=fractional_normalization(2, a))):
        want = s.tail_coeff * fractional_multiplier_constant(2, a) \
            * np.abs(K) ** a
        got = multiplier_of_symbol_2d(s, K)
        assert np.array_equal(got, want)
        assert got[0] == 0.0
        assert multiplier_of_symbol_2d(s, 0.0) == 0.0
    # the normalized critical symbol's 2-D multiplier is |K| itself
    crit = make_symbol("power", a=1.0, scale=fractional_normalization(2, 1.0))
    assert_allclose(multiplier_of_symbol_2d(crit, _K2), _K2, rtol=1e-15)


def _assert_2d_core_is_the_1d_core_subordinated(sym, K, points):
    # 1 - J0(x) = (2/pi) integral_0^(pi/2) 2 sin^2(x sin(t) / 2) dt, so the
    # 2-D core is 2 integral_0^(pi/2) of the 1-D core at K sin(t) dt, here
    # on Gauss-Legendre in t. Each core is its multiplier less the tail's
    # closed form, so it carries a few ulps of the multiplier: the whole
    # of a core that vanishes (m = T r^-alpha inside Rc up to rounding)
    t, w = np.polynomial.legendre.leggauss(points)
    theta, w = 0.25 * math.pi * (t + 1.0), 0.25 * math.pi * w
    k = np.outer(K, np.sin(theta)).ravel()
    core_1d = multiplier_of_symbol_1d(sym, k) - sym.tail_coeff \
        * fractional_multiplier_constant(1, sym.alpha) * k ** sym.alpha
    want = 2.0 * core_1d.reshape(K.size, points) @ w
    P = multiplier_of_symbol_2d(sym, K)
    core = P - sym.tail_coeff * fractional_multiplier_constant(2, sym.alpha) \
        * K ** sym.alpha
    assert np.all(np.abs(core - want)
                  <= 1e-13 * np.abs(core) + 4.0 * np.spacing(P)), (core, want)


@pytest.mark.parametrize("sym", _NON_POWER.values(), ids=list(_NON_POWER))
def test_the_2d_core_is_the_1d_core_subordinated(sym):
    # the 1-D core is pinned by the exact integral above; the 2-D core is
    # its average over the directions of the increment
    _assert_2d_core_is_the_1d_core_subordinated(sym, _K2, 64)


def test_the_2d_power_constant_is_the_1d_one_subordinated():
    # the tail's share of the same identity, 2 integral_0^(pi/2) sin^a(t) dt
    # in closed form; a dozen roundings on the two sides, 3 ulps at worst
    # on these exponents
    for a in np.linspace(0.01, 1.99, 199):
        q2 = fractional_multiplier_constant(2, a)
        want = fractional_multiplier_constant(1, a) * math.sqrt(math.pi) \
            * math.gamma(0.5 * (a + 1.0)) / math.gamma(0.5 * a + 1.0)
        assert abs(q2 - want) <= 4.0 * np.spacing(q2), a


def test_a_core_past_pi_has_a_2d_multiplier():
    # the formula needs no far field, so the core radius is free. The 1-D
    # core oscillates in k with period 2 pi / Rc: ~29 periods over t in
    # [0, pi/2] at K = 45.25 and Rc = 4, so the subordination takes 128
    # points in t here
    sym = symbol_from_callable(lambda r: np.asarray(r) ** -0.6 + 1.0 / (1.0 + r),
                               core_radius=4.0, alpha=0.6, r0=1.0, C0=2.0,
                               sqg_admissible=False)
    P = multiplier_of_symbol_2d(sym, _K2)
    assert np.all(np.isfinite(P)) and np.all(np.diff(P) > 0.0)
    assert multiplier_of_symbol_2d(sym, 0.0) == 0.0
    _assert_2d_core_is_the_1d_core_subordinated(sym, _K2, 128)


def test_the_2d_multiplier_is_a_solver_multiplier():
    # on a field's |k| grid it keeps the grid's shape, each entry its value
    # at the distinct |k|, so it is the P of a 2-D run as it stands
    sym = _NON_POWER["log1"]
    fld = ScalarField2D.random_band_limited(32, kmax=4, amplitude=0.02,
                                            seed=1)
    kmod = np.hypot(*fld.wavenumber_grids())
    distinct, inv = np.unique(kmod, return_inverse=True)
    P = multiplier_of_symbol_2d(sym, kmod)
    assert P.shape == kmod.shape
    assert np.array_equal(P, multiplier_of_symbol_2d(sym, distinct)[inv]
                          .reshape(kmod.shape))
    rec = simulate_sqg(fld, 0.05,
                       P=functools.partial(multiplier_of_symbol_2d, sym))
    assert rec.verdict == REGULAR


# the Hankel-asymptotic physical route (QUADPACK's QAWF past K r = 35) that
# the 2-D multiplier replaced, at _K2; its own error is ~4e-11
_PHYSICAL_2D = {
    "log1": [17.016144762016218, 24.45203295986175, 39.00112480362293,
             57.904342215669985, 81.46334702102047, 100.2838384505134],
    "multiplier": [8.734818959251985, 14.538070527812343, 31.036234881513217,
                   53.673813742158245, 81.63600249296962, 103.69823072963925],
    "tabulated": [7.571185389124355, 14.412916885959946, 37.13831269792384,
                  73.03365196618319, 120.83602404661178, 159.83016482531215],
    "power1": [6.283185306906906, 14.049629462654481, 45.867252742531626,
               106.81415022195021, 200.43361129940385, 284.31413514986633],
}


@pytest.mark.parametrize("name", _PHYSICAL_2D)
def test_the_2d_multiplier_matches_the_physical_route(name):
    sym = _NON_POWER.get(name) or make_symbol("power", a=1.0)
    assert_allclose(multiplier_of_symbol_2d(sym, _K2), _PHYSICAL_2D[name],
                    rtol=1e-10)
