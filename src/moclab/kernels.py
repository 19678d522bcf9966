"""Kernels, multipliers, and the nonlocal operator in physical form.

Two jobs live here:

1. The exact correspondence between power-law symbols and fractional
   multipliers (normalization constants C_{d,a} and their inverses), and
   the multiplier of every symbol, in 1-D and in 2-D, by one formula: its
   power tail continued to 0 in closed form, plus a Gauss-Legendre
   correction over the core (``multiplier_of_symbol_1d``,
   ``multiplier_of_symbol_2d``).
2. Application of L to periodic 1-D fields through quadrature of the
   lattice-periodized kernel against symmetrized double differences. The
   lattice sum has a closed Hurwitz-zeta form, so the only error is the
   quadrature's. This route is the reference that pins the core
   correction.

Translation invariance lets the double-difference quadrature factor
exactly through Fourier modes: the physical route computes a quadrature
multiplier v(k) and applies it diagonally, which reproduces the pointwise
quadrature to rounding while staying a genuinely independent computation
from the closed-form spectral multiplier.

``scipy.special`` (J0 in ``one_minus_j0``, the Hurwitz zeta in
``periodized_kernel_1d``) is imported where it is called, so importing
this module, a symbol's 1-D multiplier and a power symbol's 2-D
multiplier load no scipy module.
"""
from __future__ import annotations

import math

import numpy as np

from .fields import TWO_PI, ScalarField1D, _in_chunks
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


def _graded_osc_edges(hi: float, freq: float, eps: float,
                      kinks=()) -> np.ndarray:
    """Panel edges on [eps, hi]: geometric toward 0, each panel further split
    to at most a quarter oscillation period of frequency ``freq``, plus the
    ``kinks`` inside, where the integrand may jump in slope."""
    levels = max(4, math.ceil(math.log2(hi / eps)))
    base = graded_edges(hi, levels)
    base[0] = eps
    width = math.pi / (2.0 * max(freq, 1e-12))
    parts = [np.array([eps])]
    for lo, b in zip(base[:-1], base[1:]):
        n = int(min(4096, max(1, math.ceil((b - lo) / width))))
        parts.append(np.linspace(lo, b, n + 1)[1:])
    inside = [k for k in kinks if eps < k < hi]
    return np.union1d(np.concatenate(parts), inside)


def _accumulate(weight, ks: np.ndarray, y: np.ndarray,
                kerw: np.ndarray) -> np.ndarray:
    """sum_q weight(k, y_q) kerw_q for each k, chunked to bound memory."""
    return _in_chunks(lambda k: weight(k, y) @ kerw, ks,
                      max(1, int(4e6 // max(y.size, 1))))


def _multiplier_of_symbol(sym: DissipationSymbol, k, d: int, factor: float,
                          weight):
    """T Q(d, alpha) |k|^alpha plus the core correction
    factor * integral_0^Rc weight(k, y) (m(y) - T y^-alpha) / y dy, the
    core on graded Gauss-Legendre panels from Rc 2^-48 to Rc = core_radius;
    a float for a scalar k, else an array of k's shape."""
    kabs = np.abs(np.asarray(k, dtype=float))
    Q = fractional_multiplier_constant(d, sym.alpha)
    out = sym.tail_coeff * Q * kabs ** sym.alpha
    Rc = sym.core_radius
    if Rc > 0.0 and kabs.size:
        edges = _graded_osc_edges(Rc, float(kabs.max()), eps=Rc * 2.0 ** -48)
        y, w = panel_nodes(edges, _ORDER)
        excess = sym.m(y) - sym.tail_coeff * y ** -sym.alpha
        core = _accumulate(weight, kabs.ravel(), y, w * excess / y)
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


# ---------------------------------------------------------------------------
# periodized kernel and physical application
# ---------------------------------------------------------------------------

def _physical_panels(sym: DissipationSymbol, kmax: float):
    """Nodes and weights of the physical route on [eps, pi], eps = pi 2^-50
    (a scale where the discarded core is negligible), resolving
    wavenumbers up to kmax with the core radius pinned."""
    edges = _graded_osc_edges(math.pi, float(kmax), math.pi * 2.0 ** -50,
                              (sym.core_radius,))
    return panel_nodes(edges, _ORDER)


def periodized_kernel_1d(sym: DissipationSymbol, y):
    """K_per(y) = sum over lattice images of m(|y + 2 pi n|)/|y + 2 pi n|,
    for y in (0, pi]. All off-origin images sit in the symbol's exact power
    tail, so the image sum is a pair of Hurwitz zeta values: the lattice
    summation carries no truncation error at all."""
    from scipy.special import zeta

    if sym.core_radius > math.pi:
        raise ValueError("periodization needs the power tail to start by pi")
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or np.any(y > math.pi + 1e-12):
        raise ValueError("periodized kernel defined on (0, pi]")
    t = y / TWO_PI
    s = 1.0 + sym.alpha
    images = sym.tail_coeff * TWO_PI ** (-s) * (zeta(s, 1.0 + t) + zeta(s, 1.0 - t))
    return sym.m(y) / y + images


def periodic_increment_multiplier_1d(sym: DissipationSymbol, kmax: int):
    """Quadrature multiplier of the physical route in 1-D:

        v_k = integral_eps^pi 4 sin^2(k y / 2) K_per(y) dy,  k = 0..kmax,

    with eps that of ``_physical_panels``. sin^2(k y / 2) is the exact double
    difference of the mode e^{ikx}, so applying v_k diagonally equals the
    pointwise periodized quadrature."""
    y, w = _physical_panels(sym, kmax)
    kerw = w * periodized_kernel_1d(sym, y)
    v = 4.0 * _accumulate(_sin2_half, np.arange(kmax + 1, dtype=float),
                           y, kerw)
    return v, y.size


def apply_dissipation_physical(sym: DissipationSymbol, fld: ScalarField1D):
    """Apply L to a 1-D field by quadrature of the periodized kernel against
    the symmetrized double difference of the field; returns a new field.

    Its inner cutoff is that of the multipliers (``_physical_panels``).
    There is no 2-D physical route: a 2-D field's multiplier is
    ``multiplier_of_symbol_2d``.
    """
    if not isinstance(fld, ScalarField1D):
        raise TypeError("the physical route is 1-D only; got "
                        f"{type(fld).__name__}")
    v, _ = periodic_increment_multiplier_1d(sym, fld.N // 2)
    return ScalarField1D.from_spectrum(fld.spec * v, fld.N)


def dissipation_direct_1d(sym: DissipationSymbol, fld: ScalarField1D, x):
    """Literal pointwise quadrature: int_eps^pi (2 th(x) - th(x+y) - th(x-y))
    K_per(y) dy with eps that of ``_physical_panels``, the field
    differences formed by naive subtraction.

    Exists to cross-check the factored route; subtraction noise limits it
    to ~1e-9 relative, which is ample for that purpose."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    y, w = _physical_panels(sym, fld.N // 2)
    kerw = w * periodized_kernel_1d(sym, y)
    out = np.empty(pts.size)
    for i, xv in enumerate(pts):
        g = 2.0 * fld.evaluate_at(xv) - fld.evaluate_at(xv + y) \
            - fld.evaluate_at(xv - y)
        out[i] = float(np.dot(g, kerw))
    return float(out[0]) if np.ndim(x) == 0 else out
