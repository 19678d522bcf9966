"""Periodic scalar fields on uniform grids, 1-D and 2-D.

Fields pair grid values with their FFT and are treated as immutable:
operations hand back new instances. Wavenumbers are integers (domain is the
2 pi torus), so band-limited fields are evaluated exactly at arbitrary
points through their trigonometric interpolant.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.fft import irfft, irfft2, rfft, rfft2

TWO_PI = 2.0 * math.pi


def dealias_cutoff(N: int) -> int:
    """Largest retained wavenumber under the 2/3 rule."""
    return N // 3


def wavenumber_grids_2d(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumbers of the N x N rfft2 half-plane: kx as a column, ky as a
    row, so ``np.hypot(kx, ky)`` is |k| on the spectrum's shape."""
    kx = np.fft.fftfreq(N, d=1.0 / N)[:, None]
    ky = np.arange(N // 2 + 1, dtype=float)[None, :]
    return kx, ky


def velocity_multipliers(N: int, law: str, P=None):
    """Spectral factors (mx, my) with u_hat = (mx, my) * theta_hat.

    ``law`` is "sqg" (stream function Lambda^{-1} theta, the perpendicular
    Riesz transform) or "p_euler" (stream function Lambda^{-2} P(Lambda)
    theta).
    """
    kx, ky = wavenumber_grids_2d(N)
    kmod = np.hypot(kx, ky)
    safe = np.where(kmod == 0.0, np.inf, kmod)
    if law == "sqg":
        w = 1.0 / safe
    elif law == "p_euler":
        w = np.asarray(P(kmod), dtype=float) / safe ** 2
    else:
        raise ValueError(f"unknown velocity law: {law!r}")
    _refuse_bad_input("velocity multiplier", w)
    return -1j * ky * w, 1j * kx * w


# the float64 machine epsilon and smallest normal number
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def max_hypot(x: np.ndarray, y: np.ndarray) -> float:
    """``np.max(np.hypot(x, y))``, bitwise, with hypot evaluated only on
    the entries whose x*x + y*y lies within 16 ulps of the largest.

    The squares carry at most a few ulps of rounding and hypot at most one,
    so every entry whose hypot can reach the maximum passes that screen.
    Where the largest square overflows, is NaN or lies below the normal
    range, the squares say nothing and every entry is evaluated.
    """
    with np.errstate(over="ignore", under="ignore"):
        sq = x * x + y * y
    top = float(np.max(sq))
    if math.isfinite(top) and top >= _TINY:
        near = sq >= top * (1.0 - 16.0 * _EPS)
        x, y = x[near], y[near]
    return float(np.max(np.hypot(x, y)))


def spectral_tail_1d(spec: np.ndarray, N: int) -> float:
    """Enstrophy fraction of the top 1/8 of the active band 1 <= k <= N/3,
    for the rfft spectrum ``spec`` of an N-point grid."""
    kcut = dealias_cutoff(N)
    k = np.arange(kcut + 1, dtype=float)
    ens = k ** 2 * np.abs(spec[:kcut + 1]) ** 2
    active = ens[1:].sum()
    shell = ens[k >= 0.875 * kcut].sum()
    return float(shell / active) if active > 0.0 else 0.0


def _refuse_bad_input(name: str, values, *, nonnegative: bool = True):
    """ValueError naming ``name`` unless every value is finite (and, with
    ``nonnegative``, >= 0)."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} has non-finite values")
    if nonnegative and np.any(values < 0.0):
        raise ValueError(f"{name} must be nonnegative")


# the advective step restriction of every solver, dt <= _CFL h / speed,
# and the solvers' default floor on a step short of the horizon
_CFL = 0.4
_DT_FLOOR = 1e-10


class _IntegratingFactorRK4:
    """The time loop of the spectral solvers, for spec_t = -Pk spec + N(spec).

    The stiff diagonal part is applied exactly through E = exp(-dt Pk / 2)
    and the nonlinear term ``nonlinear(spec, aux=None)`` explicitly, in RK4.
    A step from state ``spec`` first takes ``aux, speed = grid(spec)``, a
    grid quantity of the state and the advecting speed; stage 1 reuses
    ``aux``. The step is min(dt_max, _CFL h / speed, T - t), with the CFL
    bound only when there is a nonlinear term (``nonlinear=None`` runs the
    linear flow and never calls ``grid``); ``dt_max`` None caps it at T/64,
    the solvers' default. A step below ``dt_floor`` that
    falls short of the horizon ends the run as "dt-floor". No transform is
    made here: ``grid`` and ``nonlinear`` own every FFT.

    Iterating yields (t, dt, spec) after each step, from t = ``t0``.
    ``steps``, ``termination`` and ``spec`` hold what the run reached; a
    caller that stops on its own rule sets ``termination`` before it
    breaks. A loop built from a yielded (t, spec) with ``t0=t``, the same
    horizon and the same ``dt_max`` continues the run bit for bit.
    """

    def __init__(self, spec, T, Pk, *, h, dt_max, dt_floor, nonlinear, grid,
                 t0=0.0):
        if T <= 0.0:
            raise ValueError("horizon must be positive")
        _refuse_bad_input("theta0", spec, nonnegative=False)
        _refuse_bad_input("dissipation multiplier", Pk)
        self.spec = np.array(spec, dtype=complex)
        self.T, self.Pk, self.h = T, Pk, h
        self.dt_max = T / 64.0 if dt_max is None else dt_max
        self.dt_floor, self.t0 = dt_floor, t0
        self.nonlinear, self.grid = nonlinear, grid
        self.steps = 0
        self.termination = "completed"

    def reached(self, t) -> bool:
        """True once t is on the horizon, up to rounding."""
        return t >= self.T * (1.0 - 1e-14)

    def step_size(self, t, speed) -> float:
        dt = self.dt_max
        if self.nonlinear is not None:
            dt = min(dt, _CFL * self.h / max(speed, 1e-300))
        return min(dt, self.T - t)

    def __iter__(self):
        t, spec, nl = self.t0, self.spec, self.nonlinear
        while not self.reached(t):
            aux, speed = (None, 0.0) if nl is None else self.grid(spec)
            dt = self.step_size(t, speed)
            if dt < self.dt_floor and (self.T - t) > self.dt_floor:
                self.termination = "dt-floor"
                return
            # stored complex: numpy would cast it on every product, to the
            # same values
            E = np.exp(-0.5 * dt * self.Pk).astype(complex)
            E2 = E * E
            if nl is None:
                spec = E2 * spec
            else:
                a = nl(spec, aux)
                b = nl(E * (spec + 0.5 * dt * a))
                c = nl(E * spec + 0.5 * dt * b)
                d = nl(E2 * spec + dt * E * c)
                spec = E2 * spec + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c)
                                                 + d)
            t += dt
            self.steps += 1
            self.spec = spec
            yield t, dt, spec


class ScalarField1D:
    """Real scalar on x_j = 2 pi j / N, j = 0..N-1."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 4 or values.size % 2:
            raise ValueError("need a 1-D array of even length >= 4")
        self.values = values
        self.N = values.size
        self._spec: np.ndarray | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_function(cls, N: int, fn: Callable) -> "ScalarField1D":
        return cls(fn(cls.grid_of(N)))

    @classmethod
    def from_spectrum(cls, spec: np.ndarray, N: int) -> "ScalarField1D":
        fld = cls(irfft(spec, n=N))
        fld._spec = np.asarray(spec, dtype=complex)
        return fld

    @classmethod
    def random_band_limited(cls, N: int, kmax: int, amplitude: float,
                            seed: int) -> "ScalarField1D":
        """Zero-mean random field with modes 1..kmax, scaled to the requested
        sup norm."""
        rng = np.random.default_rng(seed)
        kmax = min(kmax, dealias_cutoff(N))
        x = cls.grid_of(N)
        v = np.zeros(N)
        for k in range(1, kmax + 1):
            b = rng.standard_normal() / k
            v += b * np.sin(k * x)
            v += (rng.standard_normal() / k) * np.cos(k * x)
        sup = np.max(np.abs(v))
        if sup == 0.0:
            raise ValueError("degenerate random draw")
        return cls(v * (amplitude / sup))

    @staticmethod
    def grid_of(N: int) -> np.ndarray:
        return TWO_PI * np.arange(N) / N

    # -- spectral access ---------------------------------------------------

    @property
    def grid(self) -> np.ndarray:
        return self.grid_of(self.N)

    @property
    def spec(self) -> np.ndarray:
        """Unnormalized rfft of the values."""
        if self._spec is None:
            self._spec = rfft(self.values)
        return self._spec

    def coeffs(self) -> np.ndarray:
        """Normalized coefficients c_k = rfft/N, k = 0..N/2."""
        return self.spec / self.N

    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.N // 2 + 1, dtype=float)

    # -- operations --------------------------------------------------------

    def apply_multiplier(self, P) -> "ScalarField1D":
        newspec = self.spec * P(self.wavenumbers())
        return ScalarField1D.from_spectrum(newspec, self.N)

    def derivative(self) -> "ScalarField1D":
        k = self.wavenumbers()
        return ScalarField1D.from_spectrum(1j * k * self.spec, self.N)

    def evaluate_at(self, points) -> np.ndarray:
        """Trigonometric interpolant at arbitrary points (exact for
        band-limited data; the Nyquist mode is read as a cosine)."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        c = self.coeffs()
        w = np.full(c.size, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        k = self.wavenumbers()
        phase = np.exp(1j * pts[:, None] * k[None, :])
        return np.real(phase @ (w * c))

    # -- diagnostics -------------------------------------------------------

    def mean(self) -> float:
        return float(np.mean(self.values))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2(self) -> float:
        return float(math.sqrt(TWO_PI * np.mean(self.values ** 2)))

    def grad_linf(self) -> float:
        return self.derivative().linf()

    def is_odd(self) -> bool:
        """theta(-x) = -theta(x) on the grid, to 1e-10 max(1, sup|theta|)."""
        v = self.values
        mirrored = np.concatenate(([v[0]], v[-1:0:-1]))
        return bool(np.max(np.abs(v + mirrored))
                    <= 1e-10 * max(1.0, self.linf()))

    def spectral_tail_fraction(self) -> float:
        """Enstrophy fraction carried by the top 1/8 of the active band."""
        return spectral_tail_1d(self.spec, self.N)


class ScalarField2D:
    """Real scalar on the N x N grid of the 2 pi x 2 pi torus."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1] \
                or values.shape[0] % 2:
            raise ValueError("need a square array of even size")
        self.values = values
        self.N = values.shape[0]
        self._spec: np.ndarray | None = None
        self._coef: np.ndarray | None = None

    @classmethod
    def from_function(cls, N: int, fn: Callable) -> "ScalarField2D":
        x = ScalarField1D.grid_of(N)
        X, Y = np.meshgrid(x, x, indexing="ij")
        return cls(fn(X, Y))

    @classmethod
    def from_spectrum(cls, spec: np.ndarray, N: int) -> "ScalarField2D":
        fld = cls(irfft2(spec, s=(N, N)))
        fld._spec = np.asarray(spec, dtype=complex)
        return fld

    @classmethod
    def random_band_limited(cls, N: int, kmax: int, amplitude: float,
                            seed: int) -> "ScalarField2D":
        rng = np.random.default_rng(seed)
        kmax = min(kmax, dealias_cutoff(N))
        spec = np.zeros((N, N // 2 + 1), dtype=complex)
        kx = np.fft.fftfreq(N, d=1.0 / N)
        for i in range(N):
            for ky in range(0, kmax + 1):
                kmag2 = kx[i] ** 2 + ky ** 2
                if 1.0 <= kmag2 <= kmax ** 2:
                    amp = rng.standard_normal(2) / kmag2 ** 0.5
                    spec[i, ky] = amp[0] + 1j * amp[1]
        vals = irfft2(spec, s=(N, N))
        sup = np.max(np.abs(vals))
        if sup == 0.0:
            raise ValueError("degenerate random draw")
        return cls(vals * (amplitude / sup))

    # -- spectral access ---------------------------------------------------

    @property
    def spec(self) -> np.ndarray:
        if self._spec is None:
            self._spec = rfft2(self.values)
        return self._spec

    def wavenumber_grids(self) -> tuple[np.ndarray, np.ndarray]:
        return wavenumber_grids_2d(self.N)

    def wavenumber_modulus(self) -> np.ndarray:
        kx, ky = self.wavenumber_grids()
        return np.hypot(kx, ky)

    # -- operations --------------------------------------------------------

    def apply_multiplier(self, P) -> "ScalarField2D":
        newspec = self.spec * P(self.wavenumber_modulus())
        return ScalarField2D.from_spectrum(newspec, self.N)

    def gradient(self) -> tuple["ScalarField2D", "ScalarField2D"]:
        kx, ky = self.wavenumber_grids()
        gx = ScalarField2D.from_spectrum(1j * kx * self.spec, self.N)
        gy = ScalarField2D.from_spectrum(1j * ky * self.spec, self.N)
        return gx, gy

    def _interp_coeffs(self) -> np.ndarray:
        # full-plane c[a, b] = fft2/N^2 of the interpolant
        # theta(x, y) = Re sum_{a,b} c[a, b] e^{i a x} e^{i b y}
        if self._coef is None:
            # numpy's fft2: scipy's differs in the last bits, which would
            # move the obedience-monitor margins
            self._coef = np.fft.fft2(self.values) / self.N ** 2
        return self._coef

    def _phases(self, coords) -> np.ndarray:
        # np.exp(1j * x * k) over the fftfreq wavenumbers, bitwise. Only
        # k = 0..N/2-1 and -N/2 are exponentiated: the phase at -k is the
        # conjugate of the one at k (cos is even and sin odd), except at
        # x = +0, where the direct route gives the imaginary part +0 at
        # every k and the conjugate -0
        half = self.N // 2
        k1 = np.fft.fftfreq(self.N, d=1.0 / self.N)[:half + 1]
        x = np.asarray(coords, dtype=float)
        out = np.empty((x.size, self.N), dtype=complex)
        out[:, :half + 1] = np.exp(1j * x[:, None] * k1[None, :])
        np.conjugate(out[:, half - 1:0:-1], out=out[:, half + 1:])
        out[(x == 0.0) & ~np.signbit(x), half + 1:] = 1.0
        return out

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Interpolant at an (M, 2) array of points; cost O(M N^2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.real(np.einsum("ma,ab,mb->m", self._phases(pts[:, 0]),
                                 self._interp_coeffs(),
                                 self._phases(pts[:, 1]), optimize=True))

    def evaluate_on_grid(self, xs, ys) -> np.ndarray:
        """Interpolant on the tensor product of 1-D coordinate arrays:
        out[i, j] = theta(xs[i], ys[j]); cost O((len(xs) + len(ys)) N^2)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return np.real(self._phases(xs) @ self._interp_coeffs()
                       @ self._phases(ys).T)

    # -- diagnostics -------------------------------------------------------

    def mean(self) -> float:
        return float(np.mean(self.values))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2(self) -> float:
        return float(math.sqrt(TWO_PI ** 2 * np.mean(self.values ** 2)))

    def grad_linf(self) -> float:
        gx, gy = self.gradient()
        return max_hypot(gx.values, gy.values)

    def spectral_tail_fraction(self) -> float:
        kmod = self.wavenumber_modulus()
        kcut = dealias_cutoff(self.N)
        # N is even: the last column is the Nyquist one, counted once
        weight = np.full(kmod.shape, 2.0)
        weight[:, 0] = 1.0
        weight[:, -1] = 1.0
        ens = weight * kmod ** 2 * np.abs(self.spec) ** 2
        active = ens[(kmod >= 1.0) & (kmod <= kcut)].sum()
        shell = ens[(kmod >= 0.875 * kcut) & (kmod <= kcut)].sum()
        return float(shell / active) if active > 0.0 else 0.0
