import gc
import math
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from moclab import fields
from moclab.burgers import simulate_burgers
from moclab.fields import (ScalarField1D, ScalarField2D, _StagedRun,
                           dealias_cutoff, max_hypot, velocity_multipliers)
from moclab.sqg_euler import _AdvectionCore, simulate_p_euler, simulate_sqg
from moclab.symbols import make_multiplier


def test_from_function_and_norms():
    f = ScalarField1D.from_function(256, np.sin)
    assert f.linf() == 1.0  # N divisible by 4 puts a node at pi/2
    assert_allclose(f.l2(), math.sqrt(math.pi), rtol=1e-12)
    assert abs(f.mean()) < 1e-15
    assert_allclose(f.grad_linf(), 1.0, rtol=1e-10)


def test_derivative_is_spectral():
    f = ScalarField1D.from_function(128, np.sin)
    assert_allclose(f.derivative().values, np.cos(f.grid), atol=1e-12)


def test_evaluate_at_is_trig_interpolation():
    f = ScalarField1D.from_function(64, lambda x: np.sin(3.0 * x))
    pts = np.array([0.1234, 2.5, 6.0])
    assert_allclose(f.evaluate_at(pts), np.sin(3.0 * pts), atol=1e-12)


def test_apply_multiplier_pure_mode():
    f = ScalarField1D.from_function(64, lambda x: np.sin(3.0 * x))
    g = ScalarField1D.from_spectrum(f.spec * f.wavenumbers(), f.N)
    assert_allclose(g.values, 3.0 * f.values, atol=1e-12)


def test_random_band_limited_contract():
    f = ScalarField1D.random_band_limited(256, kmax=20, amplitude=0.7, seed=5)
    assert_allclose(f.linf(), 0.7, rtol=1e-14)  # sup normalized to amplitude
    k = np.abs(np.fft.fftfreq(256, d=1.0 / 256))
    spec = np.fft.fft(f.values)
    assert np.max(np.abs(spec[k > 20])) < 1e-12 * np.max(np.abs(spec))
    again = ScalarField1D.random_band_limited(256, kmax=20, amplitude=0.7, seed=5)
    assert np.array_equal(f.values, again.values)
    other = ScalarField1D.random_band_limited(256, kmax=20, amplitude=0.7, seed=6)
    assert not np.array_equal(f.values, other.values)


def test_spectral_tail_fraction_band_limited():
    f = ScalarField1D.random_band_limited(256, kmax=10, amplitude=1.0, seed=3)
    assert f.spectral_tail_fraction() < 1e-12


def test_spectral_tail_fraction_is_the_top_eighth_enstrophy_share():
    f = ScalarField1D.random_band_limited(96, 32, 1.0, seed=4)
    k = f.wavenumbers()
    ens = k ** 2 * np.abs(f.spec) ** 2
    shell = ens[(k >= 28.0) & (k <= 32.0)].sum()
    assert_allclose(f.spectral_tail_fraction(),
                    shell / ens[(k >= 1.0) & (k <= 32.0)].sum(), rtol=1e-14)
    assert f.spectral_tail_fraction() > 1e-3


def test_dealias_cutoff():
    assert dealias_cutoff(768) == 256
    assert dealias_cutoff(64) == 21


@pytest.mark.parametrize("N", [64, 4096])
def test_the_deferred_1d_transforms_are_scipys_bitwise(N):
    # fields binds scipy.fft at the first transform; what it hands back is
    # scipy's own result, not numpy.fft's
    import scipy.fft
    values = np.random.default_rng(N).standard_normal(N)
    spec = fields.rfft(values)
    assert np.array_equal(spec, scipy.fft.rfft(values))
    assert np.array_equal(fields.irfft(spec, n=N), scipy.fft.irfft(spec, n=N))


@pytest.mark.parametrize("n", [32, 98, 128])
def test_the_deferred_2d_transforms_are_scipys_bitwise(n):
    # a stack of four spectra, as the advection core inverts them; numpy's
    # irfft2 differs from scipy's at n = 98
    import scipy.fft
    rng = np.random.default_rng(n)
    values = rng.standard_normal((4, n, n))
    spec = fields.rfft2(values)
    assert np.array_equal(spec, scipy.fft.rfft2(values))
    stack = spec + 1j * rng.standard_normal((4, n, n // 2 + 1))
    assert np.array_equal(fields.irfft2(stack, s=(n, n)),
                          scipy.fft.irfft2(stack, s=(n, n), axes=(-2, -1)))


def test_2d_basics():
    f = ScalarField2D.from_function(
        64, lambda x, y: np.sin(x) * np.cos(2.0 * y))
    assert_allclose(f.linf(), 1.0, rtol=1e-12)
    g = ScalarField1D.grid_of(64)
    gx, gy = f.gradient()
    assert_allclose(gx.values, np.cos(g)[:, None] * np.cos(2.0 * g)[None, :],
                    atol=1e-12)
    # grad_linf reads the gradient's two fields off the spectrum directly
    assert f.grad_linf() == np.max(np.hypot(gx.values, gy.values))
    pts = np.array([[0.3, 1.1], [4.0, 0.2]])
    assert_allclose(f.evaluate_at(pts),
                    np.sin(pts[:, 0]) * np.cos(2.0 * pts[:, 1]), atol=1e-12)


def test_2d_random_band_limited():
    f = ScalarField2D.random_band_limited(32, kmax=8, amplitude=0.7, seed=1)
    assert_allclose(f.linf(), 0.7, rtol=1e-14)
    assert f.spectral_tail_fraction() < 1e-12
    kk = np.hypot(*f.wavenumber_grids())
    spec = f.spec
    assert np.max(np.abs(spec[kk > 8.0 * math.sqrt(2.0) + 1e-9])) \
        < 1e-12 * np.max(np.abs(spec))


def test_evaluate_on_grid_matches_evaluate_at():
    # white noise: every mode up to Nyquist is present, so the interpolant
    # is not the field's own band-limited form
    rng = np.random.default_rng(2)
    f = ScalarField2D(rng.standard_normal((32, 32)))
    xs = np.array([0.0, 0.37, 1.9, 3.3, 6.1])
    ys = np.array([0.05, 2.2, 4.75, 6.28])
    grid = f.evaluate_on_grid(xs, ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    assert grid.shape == (5, 4)
    assert np.max(np.abs(grid.ravel() - f.evaluate_at(pts))) <= 1e-14
    nodes = ScalarField1D.grid_of(32)
    assert_allclose(f.evaluate_on_grid(nodes, nodes), f.values, atol=1e-13)


def _wave(k, z, N):
    # e^{i k z}, a Nyquist wavenumber read as the cosine its samples take
    return np.cos(k * z) if abs(k) == N // 2 else np.exp(1j * k * z)


@pytest.mark.parametrize("N", [8, 16])
def test_every_mode_reads_as_its_own_wave_off_the_grid(N):
    # samples of Re e^{i (phi + kx x + ky y)} read back as that wave at
    # off-grid points through both routes, for every mode of the rfft2
    # half-plane: the conjugate rows of negative kx, the doubled columns,
    # the split Nyquist row and the Nyquist column of weight 1
    rng = np.random.default_rng(N)
    pts = rng.uniform(-7.0, 7.0, (20, 2))
    for kx in range(-N // 2, N // 2):
        for ky in range(N // 2 + 1):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            f = ScalarField2D.from_function(
                N, lambda x, y: np.cos(phi + kx * x + ky * y))
            want = np.real(np.exp(1j * phi) * _wave(kx, pts[:, 0], N)
                           * _wave(ky, pts[:, 1], N))
            assert_allclose(f.evaluate_at(pts), want, rtol=0.0, atol=1e-13)
            assert_allclose(np.diagonal(f.evaluate_on_grid(*pts.T)), want,
                            rtol=0.0, atol=1e-13)


def test_the_nyquist_corner_reads_as_cos_cos():
    # the field whose only mode is kx = ky = -N/2 is
    # cos(N x / 2) cos(N y / 2) off the grid too, as its padding reads it
    N = 16
    spec = np.zeros((N, N // 2 + 1), dtype=complex)
    spec[N // 2, N // 2] = N ** 2
    f = ScalarField2D.from_spectrum(spec, N)
    g = ScalarField1D.grid_of(N)
    assert_allclose(f.values, np.outer(np.cos(N * g / 2), np.cos(N * g / 2)),
                    rtol=0.0, atol=1e-14)
    pts = np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, (30, 2))
    want = np.cos(N * pts[:, 0] / 2) * np.cos(N * pts[:, 1] / 2)
    assert_allclose(f.evaluate_at(pts), want, rtol=0.0, atol=1e-13)
    assert_allclose(np.diagonal(f.evaluate_on_grid(*pts.T)), want, rtol=0.0,
                    atol=1e-13)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_padded_stage_reads_as_the_n2_plane_of_its_values(seed):
    # the monitor's field: data on 128 x 128 run on its 64 x 64 stage. The
    # stage's half-plane band gives what the N^2 coefficient plane of the
    # padded values gives, to 1e-15 sup off the grid, and the values on it
    stage = fields._regrid(ScalarField2D.random_band_limited(
        128, kmax=4, amplitude=0.05, seed=seed).spec, 128, 64)
    f = ScalarField2D.from_spectrum(stage, 128)
    assert np.array_equal(f.values, ScalarField2D.from_spectrum(
        fields._regrid(stage, 64, 128), 128).values)
    plane = np.fft.fft2(f.values) / 128 ** 2
    k = np.fft.fftfreq(128, d=1.0 / 128)
    pts = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (40, 2))
    want = np.real(np.einsum("ma,ab,mb->m", np.exp(1j * pts[:, :1] * k),
                             plane, np.exp(1j * pts[:, 1:] * k)))
    tol = 1e-15 * f.linf()
    assert np.max(np.abs(f.evaluate_at(pts) - want)) <= tol
    assert np.max(np.abs(np.diagonal(f.evaluate_on_grid(*pts.T)) - want)) \
        <= tol
    nodes = ScalarField1D.grid_of(128)
    assert np.max(np.abs(f.evaluate_on_grid(nodes, nodes) - f.values)) \
        <= 10.0 * tol


def _near_ties(seed):
    # 50 vectors of one length up to rounding, in every direction
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2.0 * math.pi, 50)
    r = 3.0 * (1.0 + rng.integers(-3, 4, 50) * np.finfo(float).eps)
    return r * np.cos(th), r * np.sin(th)


MAX_HYPOT_CASES = {
    "near-ties": _near_ties(1),
    "near-ties-2": _near_ties(2),
    # the larger square belongs to the smaller hypot, by one ulp each
    "squares-out-of-order": ([-0.14175432228945012, 0.5081335890080602],
                             [-0.5985310431924191, 0.34660345248501867]),
    "equal-magnitudes": ([3.0, 4.0, -4.0, 0.0, -5.0], [4.0, 3.0, -3.0, 5.0,
                                                       0.0]),
    "zeros": (np.zeros(6), -np.zeros(6)),
    "subnormal-squares": ([1e-170, 2e-170, -3e-170], [1e-170, 0.0, 1e-171]),
    "overflowing-squares": ([1e200, -3e200, 2e200], [1e200, 0.0, -2.3e200]),
    "nan": ([1.0, math.nan, 2.0], [0.0, 1.0, 1.0]),
    "inf-and-nan": ([math.inf, math.nan], [0.0, 1.0]),
    "inf": ([math.inf, 1.0], [0.0, -math.inf]),
    "random-2d": tuple(np.random.default_rng(3).standard_normal((2, 32, 32))),
}


@pytest.mark.parametrize("case", sorted(MAX_HYPOT_CASES))
def test_max_hypot_equals_the_max_of_hypot_bitwise(case):
    x, y = (np.asarray(a, dtype=float) for a in MAX_HYPOT_CASES[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = max_hypot(x, y)
    assert got.hex() == float(np.max(np.hypot(x, y))).hex()


def test_random_2d_field_draws_exactly_its_band():
    # kx from np.fft.fftfreq is 8.000000000000002 at N = 98, which dropped
    # the (+-kmax, 0) modes and kept (0, kmax)
    N, kmax = 98, 8
    power = np.abs(ScalarField2D.random_band_limited(N, kmax, 1.0,
                                                     seed=1).spec)
    kx, ky = fields.wavenumber_grids_2d(N)
    k2 = kx ** 2 + ky ** 2
    band = (k2 >= 1.0) & (k2 <= kmax ** 2)
    assert np.array_equal(power > 1e-9 * power.max(), band)


# ---------------------------------------------------------------------------
# the shared time loop resumes where it left off
# ---------------------------------------------------------------------------

def _burgers_physics(nonlinear):
    # a 1-D Burgers right-hand side; the grid quantity is the state's
    # values, which the first RK4 stage reuses
    def physics(n, index):
        k = np.arange(n // 2 + 1, dtype=float)

        def nl(s, v=None):
            v = np.fft.irfft(s, n=n) if v is None else v
            return 0.5j * k * np.fft.rfft(v * v) * (k <= n // 3)

        def grid(s):
            v = np.fft.irfft(s, n=n)
            return v, float(np.max(np.abs(v)))

        return types.SimpleNamespace(nonlinear=nl if nonlinear else None,
                                     grid=grid)
    return physics


def _assert_resumes_bitwise(spec, P, physics):
    # a one-stage run, and the run rebuilt from its 18th yielded state
    def loop(s, t0):
        return _StagedRun(s, 2 * (s.shape[-1] - 1), 1.0, P, physics,
                          dt_max=0.02, dt_floor=1e-10, t0=t0)

    whole = [(t, dt, s.copy()) for t, dt, s in loop(spec, 0.0)]
    assert len(whole) >= 50
    j = 17
    t0, _, s0 = whole[j]
    resumed = loop(s0, t0)
    rest = list(resumed)
    assert len(resumed.stages) == 1
    assert resumed.steps == len(whole) - j - 1 == len(rest)
    assert resumed.termination == "completed"
    for (t, dt, s), (rt, rdt, rs) in zip(whole[j + 1:], rest):
        assert (t, dt) == (rt, rdt)
        assert np.array_equal(s, rs)


@pytest.mark.parametrize("nonlinear", [True, False])
def test_loop_resumed_from_a_yielded_state_continues_bitwise(nonlinear):
    # on 64 points, the smallest stage: the run is one stage
    fld = ScalarField1D.from_function(64, lambda x: 2.0 * np.sin(x))
    _assert_resumes_bitwise(fld.spec, np.sqrt, _burgers_physics(nonlinear))


def test_2d_loop_resumed_from_a_yielded_state_continues_bitwise():
    # SQG on one 32^2 stage
    N = 32
    mx, my = velocity_multipliers(N, "sqg")
    _assert_resumes_bitwise(
        ScalarField2D.random_band_limited(N, 4, 1.0, seed=1).spec,
        make_multiplier("power", s=1.0),
        lambda n, index: _AdvectionCore(n, mx[index], my[index]))


# ---------------------------------------------------------------------------
# the spectral solvers refuse what their time loop cannot integrate
# ---------------------------------------------------------------------------

SOLVERS = {
    "burgers": (lambda: ScalarField1D.from_function(64, np.sin),
                simulate_burgers),
    "sqg": (lambda: ScalarField2D.random_band_limited(16, 3, 0.3, seed=1),
            simulate_sqg),
    "p_euler": (lambda: ScalarField2D.random_band_limited(16, 3, 0.3,
                                                          seed=1),
                simulate_p_euler),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_refuse_non_finite_data_by_name(solver, bad):
    make, simulate = SOLVERS[solver]
    fld = make()
    values = fld.values.copy()
    values.flat[5] = bad
    with pytest.raises(ValueError, match="theta0 has non-finite values"):
        simulate(type(fld)(values), 0.1, P=make_multiplier("power", s=1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_refuse_a_non_finite_multiplier_by_name(solver, bad):
    # finite up to |k| = 3, then bad: no low-mode check can miss it
    make, simulate = SOLVERS[solver]

    def P(k):
        k = np.abs(np.asarray(k, dtype=float))
        return np.where(k > 3.0, bad, k)

    name = "velocity" if solver == "p_euler" else "dissipation"
    with pytest.raises(ValueError,
                       match=f"{name} multiplier has non-finite values"):
        simulate(make(), 0.1, P=P)


@pytest.mark.parametrize("P, says", [
    (lambda k: math.sqrt(k), r"is not array-native \("),
    (lambda k: 1.0, r"is not array-native: it returned shape \(\)"),
], ids=["scalar-only", "constant"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_refuse_a_multiplier_that_is_not_array_native(solver, P,
                                                               says):
    # a multiplier maps the array of wavenumbers to an array of its shape
    make, simulate = SOLVERS[solver]
    name = "velocity" if solver == "p_euler" else "dissipation"
    with pytest.raises(TypeError, match=f"{name} multiplier {says}"):
        simulate(make(), 0.1, P=P)


def test_a_constant_multiplier_conserves_the_2d_mean():
    # the mean mode is never damped: only the fluctuation decays
    theta0 = ScalarField2D(0.5 + ScalarField2D.random_band_limited(
        32, 3, 0.3, seed=1).values)
    rec = simulate_sqg(theta0, 0.5, P=make_multiplier("constant", c=2.0))
    assert rec.termination == "completed"
    assert abs(rec.final_state.mean() - 0.5) <= 1e-15
    # e^(-cT) = e^(-1) of the fluctuation is left, up to its advection
    left = np.max(np.abs(rec.final_state.values - 0.5)) / 0.3
    assert 0.3 < left < 0.45


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_run_leaves_no_reference_cycle(solver):
    # a cycle through a stage's arrays lives until the cyclic collector
    # runs, and repeated runs then hold many stages at once
    make, simulate = SOLVERS[solver]
    fld = make()
    gc.collect()
    gc.disable()
    try:
        simulate(fld, 0.1, P=make_multiplier("power", s=1.0))
        assert gc.collect() == 0
    finally:
        gc.enable()
