"""Exact references for the library's numbers, in mpmath (test-only)."""
import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre


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


def _gauss_log(f, lo, hi, cuts=(), degree=4):
    """The integral of f(t) over (lo, hi) by Gauss-Legendre in ln t, at
    working precision: (lo, hi) is cut at every cut inside it, each piece
    is split into decades, and each decade gets mpmath's rule of degree
    ``degree`` (3 * 2^(degree - 1) nodes). f is called once, on the
    float64 array of every node, and returns float64 values or mpf."""
    rule = GaussLegendre(mpmath.mp)
    edges = [lo] + sorted(c for c in set(cuts) if lo < c < hi) + [hi]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        la, lb = mpmath.log(a), mpmath.log(b)
        n = int(mpmath.ceil((lb - la) / mpmath.ln10))
        for i in range(n):
            for s, w in rule.get_nodes(la + (lb - la) * i / n,
                                       la + (lb - la) * (i + 1) / n,
                                       degree, mpmath.mp.prec):
                t = mpmath.exp(s)
                nodes.append(t)
                weights.append(w * t)
    values = f(np.array([float(t) for t in nodes]))
    return mpmath.fsum(w * v for w, v in zip(weights, values))


def _omega_kinks(mem):
    # where omega may lose smoothness: the crossover scale, and half of
    # each symbol breakpoint past it
    return [mem.delta] + [0.5 * b for b in mem.sym.breakpoints]


def riesz(mem, xi):
    """(Omega, OmegaTilde) of a member at xi at 30 digits, omega in
    float64: Omega = integral of omega/eta over (0, xi) + T and OmegaTilde
    = omega(xi) + T, with T = xi * integral of omega/eta^2 over (xi, inf).
    Both integrals are ``_gauss_log``, cut at every kink. Below
    1e-20 min(xi, delta) omega/eta is B to 20 digits, so that stub is
    omega there. Past R = 100 max(xi, delta, tail_start/2) omega is
    omega(R) + (gamma/2) c ((2 eta)^p - (2R)^p)/p with p = 1 - a (its
    power tail, a log at a = 1), whose integral against 1/eta^2 is
    omega(R)/R + (gamma/2) c (2R)^p / (a R)."""
    with mpmath.workdps(30):
        omega = lambda eta: [mpmath.mpf(v) for v in mem.omega(eta)]
        w_xi = mpmath.mpf(float(mem.omega(xi)))
        kinks = _omega_kinks(mem)
        floor = 1e-20 * min(xi, mem.delta)
        low = mpmath.mpf(float(mem.omega(floor))) + _gauss_log(
            lambda eta: [v / e for v, e in zip(omega(eta), eta)],
            floor, xi, kinks)
        R = 100.0 * max(xi, mem.delta, 0.5 * mem.sym.tail_start)
        mid = _gauss_log(
            lambda eta: [v / e ** 2 for v, e in zip(omega(eta), eta)],
            xi, R, kinks)
        c, a = mpmath.mpf(mem.sym.tail_coeff), mpmath.mpf(mem.sym.alpha)
        R_ = mpmath.mpf(R)
        past = (mpmath.mpf(float(mem.omega(R))) / R_
                + mem.gamma / 2 * c * (2 * R_) ** (1 - a) / (a * R_))
        tail = xi * (mid + past)
        return low + tail, w_xi + tail


def dissipation(mem, xi):
    """The raw dissipation D of a member at xi at 20 digits, omega in
    float64: the near piece over (0, xi/2) and the window over
    (xi/2, R1), R1 = max(2 xi, 2 delta, tail_start), by ``_gauss_log``,
    plus ``far_dissipation`` past R1. Second differences are formed at
    working precision from float64 omega. Each piece is read in the log of
    its distance to the endpoint where omega(t) is taken at t -> 0: the
    near piece in eta on (1e-4 xi, xi/4) and in v = xi/2 - eta on
    (1e-18 xi, xi/4), the window in u = eta - xi/2 on (1e-18 xi,
    R1 - xi/2), each cut at every kink of omega and m mapped into it.
    Below eta = 1e-4 xi the near integrand is its Taylor stub
    -4 omega''(xi) eta^2 m(2 eta)/eta; the dropped ends are bounded
    integrands over 1e-18 xi."""
    with mpmath.workdps(20):
        sym = mem.sym
        two_w = 2 * mpmath.mpf(float(mem.omega(xi)))
        omega = lambda t: [mpmath.mpf(v) for v in mem.omega(t)]
        kinks = _omega_kinks(mem)
        m_kinks = [0.5 * b for b in sym.breakpoints] + [0.5 * sym.core_radius]

        def near(eta):
            # (2 w(xi) - w(xi + 2 eta) - w(xi - 2 eta)) m(2 eta)/eta
            kern = sym.m(2.0 * eta) / eta
            return [(two_w - u - d) * k for u, d, k in zip(
                omega(xi + 2.0 * eta), omega(xi - 2.0 * eta), kern)]

        def near_v(v):
            # the near integrand at eta = xi/2 - v, with xi - 2 eta = 2 v
            eta = 0.5 * xi - v
            kern = sym.m(xi - 2.0 * v) / eta
            return [(two_w - u - d) * k for u, d, k in zip(
                omega(2.0 * xi - 2.0 * v), omega(2.0 * v), kern)]

        def window(u):
            # (2 w(xi) - w(2 eta + xi) + w(2 eta - xi)) m(2 eta)/eta at
            # eta = xi/2 + u, with 2 eta - xi = 2 u
            kern = sym.m(xi + 2.0 * u) / (0.5 * xi + u)
            return [(two_w - p + q) * k for p, q, k in zip(
                omega(2.0 * xi + 2.0 * u), omega(2.0 * u), kern)]

        eta0, end = 1e-4 * xi, 1e-18 * xi
        stub = -4 * mpmath.mpf(float(mem.omega_second(xi))) * _gauss_log(
            lambda eta: eta * sym.m(2.0 * eta), 1e-18 * eta0, eta0, m_kinks)
        piece_eta = _gauss_log(
            near, eta0, 0.25 * xi,
            [0.5 * (k - xi) for k in kinks] + [0.5 * (xi - k) for k in kinks]
            + m_kinks)
        piece_v = _gauss_log(
            near_v, end, 0.25 * xi,
            [xi - 0.5 * k for k in kinks] + [0.5 * k for k in kinks]
            + [0.5 * xi - k for k in m_kinks])
        R1 = max(2.0 * xi, 2.0 * mem.delta, sym.tail_start)
        piece_u = _gauss_log(
            window, end, R1 - 0.5 * xi,
            [0.5 * k - xi for k in kinks] + [0.5 * k for k in kinks]
            + [k - 0.5 * xi for k in m_kinks])
        return (stub + piece_eta + piece_v + piece_u
                + far_dissipation(mem, xi))
