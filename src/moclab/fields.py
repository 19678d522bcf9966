"""Periodic scalar fields on uniform grids, 1-D and 2-D.

Fields pair grid values with their FFT and are treated as immutable:
operations hand back new instances. Wavenumbers are integers (domain is the
2 pi torus), so band-limited fields are evaluated exactly at arbitrary
points through their trigonometric interpolant.

This is the one module that names ``scipy.fft``. It imports it at the
first transform, not on import, so that importing moclab or certifying a
member (which transforms nothing) loads no scipy module; ``burgers`` and
``sqg_euler`` take ``rfft``, ``irfft``, ``rfft2`` and ``irfft2`` from here.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# scipy.fft once the first transform has imported it. numpy.fft would keep
# the bits (its irfft2(x, s, norm="forward") / (N0 N1) is scipy's), but its
# 1-D transforms cost ~10-30% more at the 4096-8192 points of the Burgers runs
_scipy_fft = None


def _fft():
    global _scipy_fft
    if _scipy_fft is None:
        import scipy.fft
        _scipy_fft = scipy.fft
    return _scipy_fft


def rfft(x: np.ndarray) -> np.ndarray:
    """``scipy.fft.rfft`` along the last axis."""
    return _fft().rfft(x)


def irfft(x: np.ndarray, n: int) -> np.ndarray:
    """``scipy.fft.irfft`` to n points along the last axis."""
    return _fft().irfft(x, n)


def rfft2(x: np.ndarray) -> np.ndarray:
    """``scipy.fft.rfft2`` over the last two axes."""
    return _fft().rfft2(x)


def irfft2(x: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    """``scipy.fft.irfft2`` to the shape s over the last two axes, so a
    stack of spectra is inverted in one call."""
    return _fft().irfft2(x, s)


def dealias_cutoff(N: int) -> int:
    """Largest retained wavenumber under the 2/3 rule."""
    return N // 3


def wavenumber_grids_2d(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumbers of the N x N rfft2 half-plane: kx as a column, ky as a
    row, so ``np.hypot(kx, ky)`` is |k| on the spectrum's shape."""
    kx = np.arange(N, dtype=float)
    kx[(N + 1) // 2:] -= N
    return kx[:, None], np.arange(N // 2 + 1, dtype=float)[None, :]


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
        w = _multiplier_values(P, kmod, "velocity multiplier") / safe ** 2
    else:
        raise ValueError(f"unknown velocity law: {law!r}")
    return -1j * ky * w, 1j * kx * w


def _wavenumber_modulus(N: int, ndim: int) -> np.ndarray:
    """|k| on the rfft spectrum of an N-point line (ndim 1) or of the
    N x N grid (ndim 2)."""
    if ndim == 1:
        return np.arange(N // 2 + 1, dtype=float)
    return np.hypot(*wavenumber_grids_2d(N))


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


def _refuse_bad_input(name: str, values, *, nonnegative: bool = True):
    """ValueError naming ``name`` unless every value is finite (and, with
    ``nonnegative``, >= 0)."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} has non-finite values")
    if nonnegative and np.any(values < 0.0):
        raise ValueError(f"{name} must be nonnegative")


def _refuse_bad_cadence(name: str, every):
    """ValueError naming ``name`` unless ``every`` is an int >= 1."""
    if isinstance(every, bool) or not isinstance(every, (int, np.integer)) \
            or every < 1:
        raise ValueError(f"{name} must be an int >= 1, got {every!r}")


def _array_call(fn, x: np.ndarray, name: str, of: str, contract: str):
    """``fn`` on the array ``x`` in one call, as floats of its shape. A
    ``fn`` that raises TypeError on the array, or returns another shape, is
    refused with a TypeError naming ``name`` and stating ``contract``."""
    try:
        out = np.asarray(fn(x), dtype=float)
    except TypeError as err:
        raise TypeError(f"{name} is not array-native ({err}); "
                        f"{contract}") from err
    if out.shape != x.shape:
        raise TypeError(f"{name} is not array-native: it returned shape "
                        f"{out.shape} for {of} of shape {x.shape}; {contract}")
    return out


def _multiplier_values(P, k: np.ndarray, name: str) -> np.ndarray:
    """The multiplier ``P`` on the wavenumber moduli ``k``, with the mean
    mode's entry 0: the mean is never damped and never advects. A ``P``
    that is not array-native, or has a non-finite or negative value, is
    refused by ``name``."""
    values = _array_call(P, k, name, "wavenumbers", "a multiplier maps an "
                         "array of |k| to an array of its shape").copy()
    values.flat[0] = 0.0
    _refuse_bad_input(name, values)
    return values


# the advective step restriction of every solver, dt <= _CFL h / speed,
# and the solvers' default floor on a step short of the horizon
_CFL = 0.4
_DT_FLOOR = 1e-10


# The stage rules of every run: the first stage is the coarsest N / 2^i of
# at least _MIN_STAGE_N points per axis whose modes above the dealias
# cutoff carry at most _DROP_RTOL of the l2 norm, and a stage below the
# data's N doubles once the enstrophy share of the top eighth of its active
# band passes _REFINE_TAIL.
_REFINE_TAIL = 1e-8
_MIN_STAGE_N = 64
_DROP_RTOL = 1e-13


def _tail_band(N: int, ndim: int):
    """What ``_spectral_tail`` reads on N points per axis, on the columns up
    to N/3: |k|^2 times the half-plane count (2 past the first column, so
    in 1-D on every active mode, where it cancels), the active band
    1 <= |k| <= N/3 and its top eighth."""
    kcut = dealias_cutoff(N)
    kmod = _wavenumber_modulus(N, ndim)[..., :kcut + 1]
    weight = kmod ** 2
    weight[..., 1:] *= 2.0
    inside = kmod <= kcut
    return weight, inside & (kmod >= 1.0), inside & (kmod >= 0.875 * kcut)


def _spectral_tail(spec: np.ndarray, band) -> float:
    """Enstrophy fraction of the top 1/8 of the active band of an rfft
    spectrum, ``band`` the ``_tail_band`` of its grid."""
    weight, active, shell = band
    ens = weight * np.abs(spec[..., :weight.shape[-1]]) ** 2
    total = ens[active].sum()
    return float(ens[shell].sum() / total) if total > 0.0 else 0.0


def _regrid(spec: np.ndarray, n: int, m: int) -> np.ndarray:
    """An rfft spectrum on n points per axis carried to m (m / n a power of
    two), exactly. A coarse Nyquist mode is a cosine, two halves on the
    finer grid: padding splits the Nyquist row and halves the Hermitian part
    of the Nyquist column (the real part in 1-D), restricting adds up what
    folds onto them, and so undoes padding bit for bit."""
    if m == n:
        return spec
    j = min(n, m) // 2
    part = spec[..., :j + 1] * (m / n) ** spec.ndim
    out = np.zeros((m,) * (spec.ndim - 1) + (m // 2 + 1,), dtype=complex)
    if spec.ndim == 1:
        out[:j + 1] = part
    else:
        out[:j, :j + 1] = part[:j]
        out[m - j + 1:, :j + 1] = part[n - j + 1:]
        if m > n:
            out[j, :j + 1] = out[m - j, :j + 1] = 0.5 * part[j]
        else:
            out[j, :j + 1] = part[j] + part[n - j]
    nyq = out[..., j]
    fold = nyq + np.conj(nyq if nyq.ndim == 0 else np.roll(nyq[::-1], 1))
    out[..., j] = 0.25 * fold if m > n else fold
    return out


def _start_grid(spec: np.ndarray, N: int) -> int:
    """The first stage of data with rfft spectrum ``spec`` on N points per
    axis (see the stage rules above)."""
    power = np.abs(spec) ** 2
    kmod = _wavenumber_modulus(N, spec.ndim)
    n = N
    while n % 4 == 0 and n // 2 >= _MIN_STAGE_N:
        m = n // 2
        dropped = power[kmod > dealias_cutoff(m)].sum()
        if dropped > _DROP_RTOL ** 2 * power.sum() or \
                _spectral_tail(_regrid(spec, N, m),
                               _tail_band(m, spec.ndim)) > _REFINE_TAIL:
            break
        n = m
    return n


class _StagedRun:
    """The run loop of every spectral solver: RK4 for spec_t = -P spec +
    N(spec), the diagonal part exact through exp(-dt P / 2), in stages
    N0 < 2 N0 < ... <= N of the data's N per axis by the stage rules.

    The data and ``P`` (None for none) are refused at N, where ``P`` is
    evaluated once. ``physics(n, index)`` builds a stage's
    ``nonlinear(spec, aux=None)`` (None for the linear flow) and
    ``grid(spec)``, the (aux, speed) a step reuses in its first RK4 stage
    and limits its size by; the two own every FFT. ``index`` picks the
    stage's modes out of an array on the N grid. ``T`` must be finite and
    > 0, ``dt_max`` > 0 or None for T/64, else no step would end the run. A
    step below ``dt_floor`` short of the horizon ends the run "dt-floor".

    Iterating yields (t, dt, spec) after each step, on the stage of ``n``
    and ``physics``. A caller that stops on its own rule sets
    ``termination`` before it breaks. ``stages`` lists each stage's start
    t, N and steps; ``cap_unresolved_t`` is the first t the stage at N
    failed the refine rule (None if never). A one-stage run rebuilt from a
    yielded (t, spec) with ``t0=t`` continues it bit for bit.
    """

    def __init__(self, spec, N, T, P, physics, *, dt_max, dt_floor,
                 t0=0.0):
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"horizon T must be finite and > 0, got {T!r}")
        if dt_max is not None and not dt_max > 0.0:
            raise ValueError(f"dt_max must be > 0, got {dt_max!r}")
        _refuse_bad_input("theta0", spec, nonnegative=False)
        kmod = _wavenumber_modulus(N, spec.ndim)
        self.Pk_N = (np.zeros_like(kmod) if P is None else
                     _multiplier_values(P, kmod, "dissipation multiplier"))
        self.N, self.T, self.t0, self.physics_of = N, T, t0, physics
        self.dt_max = T / 64.0 if dt_max is None else dt_max
        self.dt_floor, self.steps, self.stages = dt_floor, 0, []
        self.termination = "completed"
        n = _start_grid(spec, N)
        self.spec = np.array(_regrid(spec, N, n), dtype=complex)
        self._enter(n, t0)
        self.cap_unresolved_t = (t0 if n == N and _spectral_tail(
            self.spec, self.band) > _REFINE_TAIL else None)

    def _enter(self, n, t):
        index = slice(0, n // 2 + 1)
        if self.spec.ndim == 2:
            index = np.r_[0:n // 2, self.N - n // 2:self.N], index
        self.n, self.physics = n, self.physics_of(n, index)
        self.Pk, self.h = self.Pk_N[index], TWO_PI / n
        self.band = _tail_band(n, self.spec.ndim)
        self.stages.append({"t": t, "N": n, "steps": 0})

    def meta(self) -> dict:
        """The run record's entries of the loop."""
        return {"N": self.N, "T": self.T, "cfl": _CFL, "dt_max": self.dt_max,
                "dt_floor": self.dt_floor, "steps": self.steps,
                "stages": self.stages,
                "cap_unresolved_t": self.cap_unresolved_t,
                "final_tail": _spectral_tail(self.spec, self.band)}

    def reached(self, t) -> bool:
        """True once t is on the horizon, up to rounding."""
        return t >= self.T * (1.0 - 1e-14)

    def step_size(self, t, speed) -> float:
        dt = self.dt_max
        if self.physics.nonlinear is not None:
            dt = min(dt, _CFL * self.h / max(speed, 1e-300))
        return min(dt, self.T - t)

    def __iter__(self):
        t = self.t0
        while not self.reached(t):
            spec, nl = self.spec, self.physics.nonlinear
            aux, speed = (None, 0.0) if nl is None else self.physics.grid(spec)
            dt = self.step_size(t, speed)
            if dt < self.dt_floor and (self.T - t) > self.dt_floor:
                self.termination = "dt-floor"
                return
            # stored complex: numpy would cast it on every product, to the
            # same values
            E = np.exp(-0.5 * dt * self.Pk).astype(complex)
            E2 = E * E
            E2_spec = E2 * spec
            if nl is None:
                spec = E2_spec
            else:
                a = nl(spec, aux)
                b = nl(E * (spec + 0.5 * dt * a))
                c = nl(E * spec + 0.5 * dt * b)
                d = nl(E2_spec + dt * E * c)
                spec = E2_spec + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c)
                                               + d)
            t += dt
            self.steps += 1
            self.stages[-1]["steps"] += 1
            if (self.n < self.N or self.cap_unresolved_t is None) and \
                    _spectral_tail(spec, self.band) > _REFINE_TAIL:
                if self.n == self.N:
                    self.cap_unresolved_t = t
                else:
                    spec = _regrid(spec, self.n, 2 * self.n)
                    self._enter(2 * self.n, t)
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
        """The field of an rfft spectrum on n <= N points, padded to N."""
        spec = _regrid(np.asarray(spec, dtype=complex), 2 * (len(spec) - 1), N)
        fld = cls(irfft(spec, n=N))
        fld._spec = spec
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
        return _wavenumber_modulus(self.N, 1)

    # -- operations --------------------------------------------------------

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

    def spectral_tail_fraction(self) -> float:
        """Enstrophy fraction carried by the top 1/8 of the active band."""
        return _spectral_tail(self.spec, _tail_band(self.N, 1))


class ScalarField2D:
    """Real scalar on the N x N grid of the 2 pi x 2 pi torus.

    A field keeps the rfft2 spectrum it was built from, on its own n x n
    grid: a run's stage spectrum (``from_spectrum``, n <= N) or the rfft2
    of its values (n = N). Its interpolant, which ``evaluate_at`` and
    ``evaluate_on_grid`` read, sums that spectrum's (n + 1) x (n/2 + 1)
    half-plane modes over n^2: rows kx = 0..n/2, -n/2..-1 with the Nyquist
    row split into halves, and columns ky = 0..n/2, doubled between the
    first and the Nyquist one for their conjugates. That is ``_regrid``'s
    padding rule, so a stage's interpolant is that of its padding, and a
    Nyquist mode reads as a cosine.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1] \
                or values.shape[0] % 2:
            raise ValueError("need a square array of even size")
        self.values = values
        self.N = values.shape[0]
        self._spec: np.ndarray | None = None
        self._stage: np.ndarray | None = None
        self._band: np.ndarray | None = None

    @classmethod
    def from_function(cls, N: int, fn: Callable) -> "ScalarField2D":
        x = ScalarField1D.grid_of(N)
        X, Y = np.meshgrid(x, x, indexing="ij")
        return cls(fn(X, Y))

    @classmethod
    def from_spectrum(cls, spec: np.ndarray, N: int) -> "ScalarField2D":
        """The field of an rfft2 spectrum on n x n points, n <= N, padded
        to N; the field keeps ``spec`` for its interpolant."""
        spec = np.asarray(spec, dtype=complex)
        padded = _regrid(spec, spec.shape[0], N)
        fld = cls(irfft2(padded, s=(N, N)))
        fld._spec, fld._stage = padded, spec
        return fld

    @classmethod
    def random_band_limited(cls, N: int, kmax: int, amplitude: float,
                            seed: int) -> "ScalarField2D":
        rng = np.random.default_rng(seed)
        kmax = min(kmax, dealias_cutoff(N))
        spec = np.zeros((N, N // 2 + 1), dtype=complex)
        kx = wavenumber_grids_2d(N)[0][:, 0]
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

    # -- operations --------------------------------------------------------

    def gradient(self) -> tuple["ScalarField2D", "ScalarField2D"]:
        kx, ky = self.wavenumber_grids()
        gx = ScalarField2D.from_spectrum(1j * kx * self.spec, self.N)
        gy = ScalarField2D.from_spectrum(1j * ky * self.spec, self.N)
        return gx, gy

    def _phased_band(self, xs, ys):
        # (e^{i kx x} @ band, e^{i ky y}), the band of the class docstring:
        # theta(x, y) is the real part of their product summed over ky
        if self._band is None:
            spec = self.spec if self._stage is None else self._stage
            half = spec.shape[0] // 2
            c = np.insert(spec, half, spec[half], axis=0)
            c[half:half + 2] *= 0.5
            c[:, 1:half] *= 2.0
            self._band = c / (2 * half) ** 2
        half = self._band.shape[1] - 1
        k = np.arange(half + 1.0)
        ex, ey = (np.exp(1j * np.asarray(z, dtype=float).reshape(-1, 1) * k)
                  for z in (xs, ys))
        ex = np.concatenate((ex, np.conj(ex[:, half:0:-1])), axis=1)
        return ex @ self._band, ey

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Interpolant at an (M, 2) array of points; cost O(M n^2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rows, ey = self._phased_band(pts[:, 0], pts[:, 1])
        return np.real(np.sum(rows * ey, axis=1))

    def evaluate_on_grid(self, xs, ys) -> np.ndarray:
        """Interpolant on the tensor product of 1-D coordinate arrays,
        out[i, j] = theta(xs[i], ys[j]), in O(len(xs) (n + len(ys)) n)."""
        rows, ey = self._phased_band(xs, ys)
        return np.real(rows @ ey.T)

    # -- diagnostics -------------------------------------------------------

    def mean(self) -> float:
        return float(np.mean(self.values))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2(self) -> float:
        return float(math.sqrt(TWO_PI ** 2 * np.mean(self.values ** 2)))

    def grad_linf(self) -> float:
        """sup |grad theta| on the grid: ``gradient``'s two fields, inverted
        straight from the spectrum."""
        kx, ky = self.wavenumber_grids()
        n = self.N
        return max_hypot(irfft2(1j * kx * self.spec, s=(n, n)),
                         irfft2(1j * ky * self.spec, s=(n, n)))

    def spectral_tail_fraction(self) -> float:
        """Enstrophy fraction carried by the top 1/8 of the active band."""
        return _spectral_tail(self.spec, _tail_band(self.N, 2))
