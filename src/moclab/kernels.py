"""Kernels, multipliers, and the nonlocal operator in physical form.

Two jobs live here:

1. The exact correspondence between power-law symbols and fractional
   multipliers (normalization constants C_{d,a} and their inverses).
2. Application of L to periodic fields through quadrature of the
   lattice-periodized kernel against symmetrized double differences. In
   1-D the lattice sum has a closed Hurwitz-zeta form; in 2-D the far
   field is handled by exact radial Bessel quadrature. Neither route
   truncates the periodization, so the only error is the quadrature's.

Translation invariance lets the double-difference quadrature factor
exactly through Fourier modes: the physical route computes a quadrature
multiplier v(k) and applies it diagonally, which reproduces the pointwise
quadrature to rounding while staying a genuinely independent computation
from the closed-form spectral multiplier.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import j0, zeta

from .fields import TWO_PI, ScalarField1D, ScalarField2D
from .quadrature import (graded_edges, oscillation_resolved_edges,
                         panel_nodes)
from .symbols import DissipationSymbol

# beyond this argument the large-x Bessel expansion is used (7 terms each
# series; truncation error ~ 1e-16 relative at x = 35)
X_ASYM = 35.0
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
# large-argument Bessel J0 in oscillatory form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _hankel_coeffs(nterms: int = 7) -> tuple[tuple, tuple]:
    # Hankel symbols (0, m), built by the ratio recurrence
    sym = [1.0]
    for mm in range(1, 2 * nterms):
        sym.append(sym[-1] * (-((2 * mm - 1) ** 2)) / (8.0 * mm))
    p = tuple((-1.0) ** j * sym[2 * j] for j in range(nterms))
    q = tuple((-1.0) ** j * sym[2 * j + 1] for j in range(nterms))
    return p, q


def bessel_j0_osc_parts(x):
    """A, B with J0(x) = A(x) cos x + B(x) sin x; accurate for x >= X_ASYM."""
    x = np.asarray(x, dtype=float)
    p, q = _hankel_coeffs()
    xi2 = 1.0 / (x * x)
    P0 = np.polynomial.polynomial.polyval(xi2, p)
    Q0 = np.polynomial.polynomial.polyval(xi2, q) / x
    s = 1.0 / np.sqrt(np.pi * x)
    return s * (P0 + Q0), s * (P0 - Q0)


def one_minus_j0(x):
    """1 - J0(x) without cancellation at small argument."""
    x = np.asarray(x, dtype=float)
    u = 0.25 * x * x
    series = u * (1.0 - u / 4.0 * (1.0 - u / 9.0 * (1.0 - u / 16.0)))
    return np.where(x < 0.1, series, 1.0 - j0(x))


# ---------------------------------------------------------------------------
# whole-line multiplier of a symbol (1-D)
# ---------------------------------------------------------------------------

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


def _sin2_accumulate(ks: np.ndarray, y: np.ndarray, kerw: np.ndarray) -> np.ndarray:
    """sum_q 4 sin^2(k y_q / 2) kerw_q for each k, chunked to bound memory."""
    out = np.empty(ks.size)
    chunk = max(1, int(4e6 // max(y.size, 1)))
    for lo in range(0, ks.size, chunk):
        sl = slice(lo, lo + chunk)
        S = np.sin(np.outer(ks[sl], 0.5 * y)) ** 2
        out[sl] = 4.0 * (S @ kerw)
    return out


def multiplier_of_symbol_1d(sym: DissipationSymbol, k):
    """Fourier multiplier of the symbol's operator in one dimension:

        P_m(k) = 2 * integral_0^inf (1 - cos(k y)) m(y) / y dy.

    Exact closed form for the power family; otherwise graded Gauss-Legendre
    over the core plus analytic + cosine quadrature over the power tail.
    Folding the integral over the period lattice leaves mode identities
    unchanged, so this is also the multiplier of the periodic operator.
    """
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    scalar = np.ndim(k) == 0
    if sym.family == "power":
        Q = fractional_multiplier_constant(1, sym.alpha)
        out = sym.tail_coeff * Q * np.abs(karr) ** sym.alpha
        return float(out[0]) if scalar else out

    from scipy.integrate import quad

    out = np.zeros_like(karr)
    kabs = np.abs(karr)
    nz = kabs > 0.0
    if nz.any():
        ks = kabs[nz]
        Rc = sym.core_radius
        edges = _graded_osc_edges(Rc, float(ks.max()), eps=Rc * 2.0 ** -48)
        y, w = panel_nodes(edges, _ORDER)
        core = _sin2_accumulate(ks, y, w * sym.m(y) / y)
        T, al = sym.tail_coeff, sym.alpha
        tail_full = 2.0 * T * Rc ** (-al) / al
        osc = np.empty(ks.size)
        for i, kk in enumerate(ks):
            val, _ = quad(lambda r: r ** (-1.0 - al), Rc, np.inf,
                          weight="cos", wvar=kk, epsabs=1e-12)
            osc[i] = 2.0 * T * val
        out[nz] = core + tail_full - osc
    return float(out[0]) if scalar else out


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
    v = _sin2_accumulate(np.arange(kmax + 1, dtype=float), y, kerw)
    return v, y.size


def increment_multiplier_2d(sym: DissipationSymbol,
                            kappas: np.ndarray) -> np.ndarray:
    """Physical-route multiplier in 2-D at radial wavenumbers ``kappas``:

        v(K) = 2 pi [ integral_eps^pi (1 - J0(K r)) m(r)/r dr        (near)
                      + integral_pi^inf m(r)/r dr                    (mass)
                      - integral_pi^inf J0(K r) m(r)/r dr ]          (osc)

    with eps that of ``_physical_panels``. The angular integral over
    directions of y is J0 in closed form, so the 2-D double-difference
    quadrature reduces to radial integrals. The far field is exact (power
    tail), evaluated by Bessel-asymptotic cosine/sine quadrature: no
    lattice truncation anywhere."""
    if sym.core_radius > math.pi:
        raise ValueError("far-field split needs the power tail to start by pi")
    kappas = np.asarray(kappas, dtype=float)
    T, al = sym.tail_coeff, sym.alpha
    mass = TWO_PI * sym.tail_integral_over_r(math.pi)

    y, w = _physical_panels(sym, kappas.max() if kappas.size else 1.0)
    kerw = TWO_PI * w * sym.m(y) / y

    out = np.empty(kappas.size)
    chunk = max(1, int(4e6 // max(y.size, 1)))
    for lo in range(0, kappas.size, chunk):
        sl = slice(lo, lo + chunk)
        near = one_minus_j0(np.outer(kappas[sl], y)) @ kerw
        out[sl] = near
    for i, kap in enumerate(kappas):
        if kap == 0.0:
            out[i] = 0.0  # near term vanishes and osc tail equals the mass
            continue
        out[i] += mass - TWO_PI * _bessel_tail(T, al, kap)
    return out


def _bessel_tail(T: float, al: float, kap: float) -> float:
    """integral_pi^inf J0(kap r) T r^(-1-al) dr, split at the Bessel
    asymptotic threshold."""
    from scipy.integrate import quad

    split = max(math.pi, X_ASYM / kap)
    total = 0.0
    if split > math.pi:
        r, w = panel_nodes(oscillation_resolved_edges(math.pi, split, kap),
                           _ORDER)
        total += float(np.dot(w, j0(kap * r) * T * r ** (-1.0 - al)))

    def fa(r):
        return bessel_j0_osc_parts(kap * r)[0] * T * r ** (-1.0 - al)

    def fb(r):
        return bessel_j0_osc_parts(kap * r)[1] * T * r ** (-1.0 - al)

    ca, _ = quad(fa, split, np.inf, weight="cos", wvar=kap)
    cb, _ = quad(fb, split, np.inf, weight="sin", wvar=kap)
    return total + ca + cb


def apply_dissipation_physical(sym: DissipationSymbol, fld):
    """Apply L by quadrature of the periodized kernel against the
    symmetrized double difference of the field; returns a new field.

    Its inner cutoff is that of the multipliers (``_physical_panels``).
    """
    if isinstance(fld, ScalarField1D):
        v, _ = periodic_increment_multiplier_1d(sym, fld.N // 2)
        result = ScalarField1D.from_spectrum(fld.spec * v, fld.N)
    elif isinstance(fld, ScalarField2D):
        kmod = fld.wavenumber_modulus()
        uniq, inv = np.unique(np.round(kmod, 9), return_inverse=True)
        v = increment_multiplier_2d(sym, uniq)
        result = ScalarField2D.from_spectrum(
            fld.spec * v[inv].reshape(kmod.shape), fld.N)
    else:
        raise TypeError("expected a 1-D or 2-D scalar field")
    return result


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
