"""Kernels and multipliers.

The exact correspondence between power-law symbols and fractional
multipliers (normalization constants C_{d,a} and their inverses), and the
multiplier of every symbol, in 1-D and in 2-D, by one formula: its power
tail continued to 0 in closed form, plus a Gauss-Legendre correction over
the core (``multiplier_of_symbol_1d``, ``multiplier_of_symbol_2d``). The
solvers apply L to a field through this multiplier alone; the exact
integral that pins it lives with the tests.

``scipy.special`` (J0 in ``one_minus_j0``) is imported where it is called,
so importing this module, a symbol's 1-D multiplier and a power symbol's
2-D multiplier load no scipy module.
"""
from __future__ import annotations

import math

import numpy as np

from .fields import TWO_PI
from .quadrature import graded_edges, panel_nodes
from .symbols import DissipationSymbol

# every panel rule here is Gauss-Legendre of this order
_ORDER = 16


# ---------------------------------------------------------------------------
# fractional normalization constants
# ---------------------------------------------------------------------------

def fractional_multiplier_constant(d: int, a: float) -> float:
    """Multiplier magnitude of the unit power kernel: the operator with
    kernel |y|^(-d-a) has symbol Q * |k|^a; returns Q."""
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if not 0.0 < a < 2.0:
        raise ValueError("exponent must lie in (0, 2)")
    return math.pi ** (0.5 * d) * abs(math.gamma(-0.5 * a)) \
        / (2.0 ** a * math.gamma(0.5 * (d + a)))


def fractional_normalization(d: int, a: float) -> float:
    """C_{d,a}: the symbol m(r) = C_{d,a} r^(-a) has multiplier exactly |k|^a."""
    return 1.0 / fractional_multiplier_constant(d, a)


# ---------------------------------------------------------------------------
# the multiplier of a symbol, in one and in two dimensions
# ---------------------------------------------------------------------------

def one_minus_j0(x):
    """1 - J0(x) without cancellation at small argument."""
    from scipy.special import j0

    x = np.asarray(x, dtype=float)
    u = 0.25 * x * x
    series = u * (1.0 - u / 4.0 * (1.0 - u / 9.0 * (1.0 - u / 16.0)))
    return np.where(x < 0.1, series, 1.0 - j0(x))


def _sin2_half(k: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sin^2(k y / 2) for each (k, y): a quarter of the 1-D double
    difference 2 - e^{iky} - e^{-iky} of a mode."""
    return np.sin(np.outer(k, 0.5 * y)) ** 2


def _graded_osc_edges(hi: float, freq: float, eps: float) -> np.ndarray:
    """Panel edges on [eps, hi]: geometric toward 0, each panel further split
    to at most a quarter oscillation period of frequency ``freq``."""
    levels = max(4, math.ceil(math.log2(hi / eps)))
    base = graded_edges(hi, levels)
    base[0] = eps
    width = math.pi / (2.0 * max(freq, 1e-12))
    parts = [np.array([eps])]
    for lo, b in zip(base[:-1], base[1:]):
        n = int(min(4096, max(1, math.ceil((b - lo) / width))))
        parts.append(np.linspace(lo, b, n + 1)[1:])
    return np.concatenate(parts)


def _multiplier_of_symbol(sym: DissipationSymbol, k, d: int, factor: float,
                          weight):
    """T Q(d, alpha) |k|^alpha plus the core correction
    factor * integral_0^Rc weight(k, y) (m(y) - T y^-alpha) / y dy, the
    core on graded Gauss-Legendre panels from Rc 2^-48 to Rc = core_radius,
    summed over k in chunks that bound the weight matrix at 4e6 entries;
    a float for a scalar k, else an array of k's shape."""
    kabs = np.abs(np.asarray(k, dtype=float))
    Q = fractional_multiplier_constant(d, sym.alpha)
    out = sym.tail_coeff * Q * kabs ** sym.alpha
    Rc = sym.core_radius
    if Rc > 0.0 and kabs.size:
        edges = _graded_osc_edges(Rc, float(kabs.max()), eps=Rc * 2.0 ** -48)
        y, w = panel_nodes(edges, _ORDER)
        kerw = w * (sym.m(y) - sym.tail_coeff * y ** -sym.alpha) / y
        ks = kabs.ravel()
        core = np.empty_like(ks)
        size = max(1, int(4e6 // y.size))
        for a in range(0, ks.size, size):
            core[a:a + size] = weight(ks[a:a + size], y) @ kerw
        out = out + factor * core.reshape(kabs.shape)
    return float(out) if np.ndim(k) == 0 else out


def multiplier_of_symbol_1d(sym: DissipationSymbol, k):
    """Fourier multiplier of the symbol's operator in one dimension:

        P_m(k) = integral_0^inf 4 sin^2(k y / 2) m(y) / y dy
               = T Q |k|^alpha
                 + integral_0^Rc 4 sin^2(k y / 2) (m(y) - T y^-alpha) / y dy,

    with T = tail_coeff, Rc = core_radius and Q that of
    ``fractional_multiplier_constant(1, alpha)``: the power tail continued
    down to 0 in closed form, plus a finite core correction on graded
    Gauss-Legendre panels (from Rc 2^-48). A power symbol has Rc = 0 and no
    correction. Folding the integral over the period lattice leaves mode
    identities unchanged, so this is also the multiplier of the periodic
    operator.
    """
    return _multiplier_of_symbol(sym, k, 1, 4.0, _sin2_half)


def multiplier_of_symbol_2d(sym: DissipationSymbol, K):
    """Fourier multiplier of the symbol's operator in two dimensions, at
    radial wavenumbers ``K``:

        P_m(K) = T Q |K|^alpha
                 + integral_0^Rc 2 pi (1 - J0(K r)) (m(r) - T r^-alpha) / r dr,

    the formula of ``multiplier_of_symbol_1d`` with Q that of
    ``fractional_multiplier_constant(2, alpha)``: averaging the double
    difference of a mode over the directions of the increment leaves
    2 pi (1 - J0). A power symbol's is the closed form alone.
    """
    return _multiplier_of_symbol(sym, K, 2, TWO_PI,
                                 lambda k, r: one_minus_j0(np.outer(k, r)))
