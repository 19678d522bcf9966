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


def far_dissipation(mem, xi):
    """The dissipation's far piece past R1 = max(2 xi, 2 delta, tail_start)
    at 30 digits: the integral over (R1, inf) of
    (2 w(xi) - w(2e+xi) + w(2e-xi)) m(2e)/e, w(xi) the member's float64
    omega. Past R1 the symbol and the envelope are c r^-a, so with
    p = 1 - a and t = xi/(2e) the increment is
    (gamma/2) c (4e)^p (expm1(p log1p(t)) - expm1(p log1p(-t))) / p, which
    cancels nowhere (gamma c atanh(t) at a = 1). In v = (R1/e)^a the
    integral is c (2 R1)^-a / a times that of 2 w(xi) - increment over
    (0, 1], a smooth integrand that ``mpmath.quad`` reads by
    Gauss-Legendre."""
    with mpmath.workdps(30):
        c, a = mpmath.mpf(mem.sym.tail_coeff), mpmath.mpf(mem.sym.alpha)
        gamma, x = mpmath.mpf(mem.gamma), mpmath.mpf(xi)
        w = mpmath.mpf(float(mem.omega(xi)))
        R1 = mpmath.mpf(max(2.0 * xi, 2.0 * mem.delta, mem.sym.tail_start))
        p = 1 - a

        def increment(eta):
            t = x / (2 * eta)
            if p == 0:
                return gamma * c * mpmath.atanh(t)
            return (gamma / 2 * c * (4 * eta) ** p
                    * (mpmath.expm1(p * mpmath.log1p(t))
                       - mpmath.expm1(p * mpmath.log1p(-t))) / p)

        integral = mpmath.quad(lambda v: 2 * w - increment(R1 / v ** (1 / a)),
                               [0, 1], method="gauss-legendre")
        return c * (2 * R1) ** -a / a * integral
