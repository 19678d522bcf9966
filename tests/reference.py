"""Exact references for the library's numbers, in mpmath (test-only)."""
import mpmath


def multiplier_1d(sym, k):
    """The 1-D multiplier integral_0^inf 4 sin^2(k y / 2) m(y) / y dy at 20
    digits, m read in float64: ``mpmath.quad`` on the core [0, R], split at
    every half period pi/k and at the symbol's breakpoints, plus the power
    tail past R in closed form,
    T (2 R^-a / a - 2 k^a Re[e^(-i pi a / 2) Gamma(-a, -i k R)]),
    with T = tail_coeff, a = alpha and R = core_radius (1 for a power
    symbol)."""
    with mpmath.workdps(20):
        k, a, T = mpmath.mpf(k), mpmath.mpf(sym.alpha), sym.tail_coeff
        R = mpmath.mpf(sym.core_radius or 1.0)
        cuts = sorted({mpmath.mpf(0), R}
                      | {mpmath.mpf(b) for b in sym.breakpoints if b < R}
                      | {j * mpmath.pi / k
                         for j in range(1, int(k * R / mpmath.pi) + 1)})
        core = mpmath.quad(lambda y: 4 * mpmath.sin(k * y / 2) ** 2
                           * sym.m(float(y)) / y, cuts)
        tail = 2 * R ** -a / a - 2 * k ** a * mpmath.re(
            mpmath.expjpi(-a / 2) * mpmath.gammainc(-a, -1j * k * R))
        return core + T * tail
