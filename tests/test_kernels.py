import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from moclab.fields import ScalarField1D, ScalarField2D
from moclab.kernels import (
    apply_dissipation_physical,
    dissipation_direct_1d,
    fractional_multiplier_constant,
    fractional_normalization,
    increment_multiplier_2d,
    multiplier_of_symbol_1d,
    periodic_increment_multiplier_1d,
    periodized_kernel_1d,
)
from moclab.symbols import (make_multiplier, make_symbol,
                            symbol_from_callable, symbol_from_multiplier,
                            symbol_from_table)


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


# ---------------------------------------------------------------------------
# periodization
# ---------------------------------------------------------------------------

def test_periodized_kernel_hurwitz_vs_lattice():
    s = make_symbol("power", a=0.5)
    y = 0.7
    val = periodized_kernel_1d(s, y)
    assert_allclose(val, 2.04258775116, rtol=1e-9)
    direct = sum(s.m(abs(y + 2.0 * math.pi * n)) / abs(y + 2.0 * math.pi * n)
                 for n in range(-20000, 20001))
    # truncated lattice sum carries an O(R^-1/2) tail; Hurwitz route is exact
    assert val > direct
    assert_allclose(val, direct, rtol=2e-3)


def test_periodized_kernel_domain():
    s = make_symbol("power", a=0.5)
    with pytest.raises(ValueError):
        periodized_kernel_1d(s, 4.0)


def test_periodic_increment_multiplier_matches_fractional_law():
    s = make_symbol("power", a=0.5)
    v, _ = periodic_increment_multiplier_1d(s, 20)
    q = fractional_multiplier_constant(1, 0.5)
    assert v[0] == 0.0
    ks = np.arange(1, 21, dtype=float)
    assert_allclose(v[1:], q * np.sqrt(ks), rtol=1e-10)


_TABLE_RADII = np.geomspace(1e-6, 2.0, 40)


@pytest.mark.parametrize("sym", [
    make_symbol("log", a=1.0),
    make_symbol("log", a=0.3),
    symbol_from_multiplier(make_multiplier("log-damped", a=1.0)),
    symbol_from_table(_TABLE_RADII, _TABLE_RADII ** -0.8),
    symbol_from_callable(lambda r: np.asarray(r) ** -0.6, core_radius=2.0,
                         alpha=0.6, r0=1.0, C0=1.0, sqg_admissible=False),
], ids=["log1", "log0.3", "multiplier", "tabulated", "callable-core2"])
def test_physical_route_is_the_reference_for_the_symbol_multiplier(sym):
    # two independent quadratures of the same multiplier; the physical one
    # must pin the core radius, where m jumps in slope for the log family
    ks = np.arange(1, 257, dtype=float)
    v, _ = periodic_increment_multiplier_1d(sym, 256)
    assert_allclose(multiplier_of_symbol_1d(sym, ks), v[1:], rtol=1e-12)


def test_increment_multiplier_2d_critical():
    s = make_symbol("power", a=1.0)
    kap = np.array([0.0, 1.0, 8.0])
    v = increment_multiplier_2d(s, kap)
    # kernel m(r)/r^2 = r^-3 has multiplier 2 pi |k| in two dimensions
    assert v[0] == 0.0
    assert_allclose(v[1:], 2.0 * math.pi * kap[1:], rtol=1e-9)


# ---------------------------------------------------------------------------
# physical application vs the spectral route
# ---------------------------------------------------------------------------

def test_apply_dissipation_physical_matches_spectral_1d():
    s = make_symbol("power", a=0.5)
    f = ScalarField1D.random_band_limited(128, kmax=20, amplitude=1.0, seed=2)
    v, _ = periodic_increment_multiplier_1d(s, 20)
    ks = np.abs(np.fft.fftfreq(128, d=1.0 / 128)).astype(int)
    pk = np.where(ks <= 20, v[np.minimum(ks, 20)], 0.0)
    spec = np.real(np.fft.ifft(pk * np.fft.fft(f.values)))
    phys = apply_dissipation_physical(s, f)
    assert np.max(np.abs(phys.values - spec)) < 1e-12


def test_dissipation_direct_cross_checks_factored_route():
    s = make_symbol("power", a=0.5)
    f = ScalarField1D.from_function(128, np.sin)
    x = 0.7
    direct = dissipation_direct_1d(s, f, x)
    factored = apply_dissipation_physical(s, f).evaluate_at(np.array([x]))
    assert_allclose(direct, factored[0], rtol=1e-8)


def test_apply_dissipation_physical_2d_single_mode():
    s = make_symbol("power", a=1.0)
    f = ScalarField2D.from_function(32, lambda x, y: np.sin(x + 2.0 * y))
    phys = apply_dissipation_physical(s, f)
    lam = increment_multiplier_2d(s, np.array([math.sqrt(5.0)]))[0]
    assert np.max(np.abs(phys.values - lam * f.values)) < 1e-8 * lam
