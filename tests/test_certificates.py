import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from moclab import certificates, records
from moclab.certificates import (
    DEFAULT_A,
    PlainModulus,
    TailDivergenceError,
    burgers_criterion,
    default_xi_grid,
    dissipation_lower,
    measured_curvature_constant,
    omega_riesz,
    omega_tilde,
    sqg_criterion,
)
from moclab.kernels import fractional_normalization
from moclab.moduli import ModulusMember, build_modulus
from moclab.symbols import make_symbol

CRITICAL = make_symbol("power", a=1.0)
COARSE = default_xi_grid(1e-4, 1e2, 4)


def base_member():
    return build_modulus(CRITICAL, 0.1, 0.01, 1.0)


def capped_linear(eta):
    return np.minimum(np.asarray(eta, dtype=float), 1.0)


# ---------------------------------------------------------------------------
# advective certificates, generic callables
# ---------------------------------------------------------------------------

def test_criteria_reach_separations_far_above_the_crossover():
    # at xi = 1e6 a far-direct panel pinned at (xi + delta)/2 is 2.4e-8
    # wide at xi/2; a node one ulp below xi/2 gave omega a negative
    # separation
    sym = make_symbol("power", a=1.0, scale=fractional_normalization(2, 1.0))
    mem = build_modulus(sym, 0.05, 0.01, 2.0 ** 20)
    for criterion in (sqg_criterion, burgers_criterion):
        rep = criterion(mem, xi_grid=[1e6])
        assert np.isfinite(rep.worst_margin)
        assert rep.passed



def test_riesz_capped_linear_closed_forms():
    # omega = min(eta, 1): low part integrates 1, tail integrates 1
    assert_allclose(omega_riesz(capped_linear, 1.0, kinks=(1.0,)), 2.0,
                    rtol=1e-9)
    # at xi = 1/2 the tail picks up an extra log: 1 + log(2)/2
    assert_allclose(omega_riesz(capped_linear, 0.5, kinks=(1.0,)),
                    1.0 + math.log(2.0) / 2.0, rtol=1e-9)


def test_tilde_capped_linear_closed_form():
    assert_allclose(omega_tilde(capped_linear, 1.0, kinks=(1.0,)), 2.0,
                    rtol=1e-9)


def test_sqrt_modulus_closed_forms():
    # int_0^1 eta^{-1/2} = 2 and xi * int_1^inf eta^{-3/2} = 2; the origin
    # floor truncates ~1e-6 of the low part for non-Lipschitz callables
    assert_allclose(omega_riesz(np.sqrt, 1.0), 4.0, rtol=1e-5)
    assert_allclose(omega_tilde(np.sqrt, 1.0), 3.0, rtol=1e-12)


def test_riesz_vanishes_with_separation():
    vals = [omega_riesz(capped_linear, xi, kinks=(1.0,))
            for xi in (1e-2, 1e-5, 1e-8)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6


def test_tilde_zero_at_zero_and_rejects_negative():
    assert omega_tilde(capped_linear, 0.0) == 0.0
    assert omega_riesz(capped_linear, 0.0) == 0.0
    for certificate in (omega_riesz, omega_tilde):
        with pytest.raises(ValueError, match="positive separation"):
            certificate(capped_linear, -1.0)


def test_linear_modulus_tail_diverges():
    lin = lambda e: np.asarray(e, dtype=float)
    with pytest.raises(TailDivergenceError):
        omega_riesz(lin, 1.0)
    with pytest.raises(TailDivergenceError):
        omega_tilde(lin, 1.0)


def test_riesz_dominates_tilde_for_concave():
    # omega(eta)/eta >= omega(xi)/xi on (0, xi) for concave omega
    for xi in (0.3, 1.0, 7.0):
        r = omega_riesz(np.sqrt, xi)
        t = omega_tilde(np.sqrt, xi)
        assert r >= t - 1e-12 * r


def test_riesz_monotone_in_omega():
    bigger = lambda e: 1.5 * capped_linear(e)
    for xi in (0.25, 1.0, 4.0):
        assert (omega_riesz(bigger, xi, kinks=(1.0,))
                > omega_riesz(capped_linear, xi, kinks=(1.0,)))


# ---------------------------------------------------------------------------
# advective certificates, family members
# ---------------------------------------------------------------------------

def test_member_tilde_closed_form_critical():
    # past the crossover the tail reduces to omega(xi) + gamma/2 exactly
    mem = base_member()
    for xi in (mem.delta, 0.3, 2.0, 50.0):
        assert_allclose(omega_tilde(mem, xi),
                        2.0 * float(mem.omega(xi)) + 0.005, rtol=1e-12)


def test_member_tilde_closed_form_subcritical_tail():
    # alpha = 1/2: tail integral of the envelope is a pure power
    mem = build_modulus(make_symbol("power", a=0.5), 0.1, 0.01, 1.0)
    for xi in (mem.delta, 1.0, 30.0):
        tail = 0.01 * float(mem.sym.m(1.0)) * (2.0 * xi) ** -0.5 / 0.5 * xi
        assert_allclose(omega_tilde(mem, xi),
                        2.0 * float(mem.omega(xi)) + tail, rtol=1e-12)


def test_member_and_callable_routes_agree():
    mem = base_member()
    kinks = (mem.delta,)
    for xi in (0.02, 0.5, 8.0):
        assert_allclose(omega_riesz(mem, xi),
                        omega_riesz(lambda x: mem.omega(x), xi,
                                    kinks=kinks),
                        rtol=1e-9)
        assert_allclose(omega_tilde(mem, xi),
                        omega_tilde(lambda x: mem.omega(x), xi,
                                    kinks=kinks),
                        rtol=1e-9)


def test_member_tilde_within_family_bound():
    for a in (1.0, 0.5):
        mem = build_modulus(make_symbol("power", a=a), 0.1, 0.01, 1.0)
        for xi in np.geomspace(mem.delta, 1e3, 9):
            bound = (2.0 + 2.0 / a) * float(mem.omega(xi))
            assert omega_tilde(mem, float(xi)) <= bound


# ---------------------------------------------------------------------------
# dissipative certificate
# ---------------------------------------------------------------------------

def test_dissipation_capped_linear_log3_oracle():
    # omega = min(eta, 1), m = 1/r, xi = 2: near piece log2 - 1/2, far
    # piece 1 - (1/2 - log3 + log2); the pieces sum to log(3)
    got = dissipation_lower(capped_linear, CRITICAL, 2.0, kinks=(1.0,))
    assert_allclose(got, math.log(3.0), rtol=1e-9)


def test_dissipation_linear_is_zero():
    # both second differences cancel algebraically for linear omega
    lin = lambda e: np.asarray(e, dtype=float)
    for xi in (0.1, 1.0, 10.0):
        assert abs(dissipation_lower(lin, CRITICAL, xi)) <= 1e-13 * xi


def test_dissipation_scales_linearly_in_multiplier():
    doubled = make_symbol("power", a=1.0, scale=2.0)
    one = dissipation_lower(capped_linear, CRITICAL, 2.0, kinks=(1.0,))
    two = dissipation_lower(capped_linear, doubled, 2.0, kinks=(1.0,))
    assert_allclose(two / one, 2.0, rtol=1e-12)


def test_dissipation_member_routes_agree():
    # the generic route swaps the exact far-field power law for dyadic
    # windows, so agreement is at quadrature accuracy, not machine epsilon
    mem = base_member()
    for xi in (0.03, 0.5, 20.0):
        fast = dissipation_lower(mem, mem.sym, xi)
        generic = dissipation_lower(lambda x: mem.omega(x), mem.sym,
                                    xi, kinks=(mem.delta,))
        assert_allclose(fast, generic, rtol=1e-6)


def test_dissipation_nonnegative_battery():
    syms = [CRITICAL, make_symbol("power", a=0.5), make_symbol("log", a=1.0)]
    for sym in syms:
        mem = build_modulus(sym, 0.05, 0.005, 1.0)
        for xi in np.geomspace(1e-4, 1e2, 7):
            assert dissipation_lower(mem, sym, float(xi)) >= 0.0


def test_far_window_beats_doubling_floor():
    # the single octave (xi/2, xi) of the far integral already carries the
    # analytic floor (2 - c_alpha) * omega(xi) * m(2 xi)
    mem = base_member()
    for xi in (mem.delta, 0.5, 2.0, 50.0):
        x = np.array([xi])
        window, _ = certificates._far_direct(
            mem.omega, mem.sym, x, mem.omega(x), x,
            certificates._omega_kinks(mem), 4.0, 12)
        floor = ((2.0 - mem.doubling_bound) * mem.omega(xi)
                 * mem.sym.m(2.0 * xi))
        assert window[0] >= floor * (1.0 - 1e-12)


def test_curvature_constant_below_crossover():
    mem = base_member()
    c_small = measured_curvature_constant(mem, 1e-5)
    c_mid = measured_curvature_constant(mem, 1e-3)
    assert c_small > c_mid > 1.0
    with pytest.raises(ValueError):
        measured_curvature_constant(mem, 2.0 * mem.delta)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_burgers_criterion_passes_critical_family():
    rep = burgers_criterion(base_member(), COARSE)
    assert rep.passed
    assert rep.worst_margin < 0.0
    assert np.all(np.isnan(rep.Omega))
    assert set(rep.regime) <= {"below-delta", "above-delta"}


def test_burgers_criterion_passes_log_symbol():
    sym = make_symbol("log", a=1.0)
    mem = build_modulus(sym, 0.05, 0.005, 1.0)
    assert burgers_criterion(mem, COARSE).passed


def test_burgers_rejects_linear_modulus():
    lin = PlainModulus(
        omega_fn=lambda r: np.asarray(r, dtype=float),
        omega_prime_fn=np.ones_like,
        sym=CRITICAL)
    rep = burgers_criterion(lin, default_xi_grid(1e-2, 1e2, 4))
    assert not rep.passed
    # dissipation vanishes, so the margin is omega * omega' = xi
    assert_allclose(rep.margin, rep.xi_grid, rtol=1e-6)
    assert rep.worst_margin > 0.0


def test_sqg_criterion_passes_critical_family():
    rep = sqg_criterion(base_member(), DEFAULT_A, COARSE)
    assert rep.passed
    assert rep.side_conditions["gate:perp_absorption"]
    assert rep.side_conditions["low_regime_envelope_bound"]
    assert rep.side_values["measured_curvature_constant"] > 0.0
    assert rep.side_values["curvature_sign_factor"] < 0.0
    # both regimes appear on a grid spanning the crossover
    assert "below-delta" in rep.regime and "above-delta" in rep.regime


def test_sqg_criterion_larger_data_certificate():
    rep = sqg_criterion(build_modulus(CRITICAL, 0.1, 0.01, 100.0),
                        DEFAULT_A, COARSE)
    assert rep.passed


def test_sqg_absorption_gate_fails_for_large_A():
    # gamma * A^2 > 1 breaks the perpendicular absorption
    rep = sqg_criterion(base_member(), 11.0, COARSE)
    assert not rep.side_conditions["gate:perp_absorption"]
    assert not rep.passed


def test_sqg_rejects_linear_modulus():
    lin = PlainModulus(
        omega_fn=lambda r: np.asarray(r, dtype=float),
        omega_prime_fn=np.ones_like,
        sym=CRITICAL)
    with pytest.raises(TailDivergenceError):
        sqg_criterion(lin, DEFAULT_A, default_xi_grid(1e-2, 1e2, 2))


def test_criteria_stable_under_halving():
    # shrinking (kappa, gamma) together moves every margin the passing way
    grid = default_xi_grid(1e-3, 1e2, 3)
    for k, g in ((0.1, 0.01), (0.05, 0.005)):
        mem = build_modulus(CRITICAL, k, g, 1.0)
        assert burgers_criterion(mem, grid).passed
        assert sqg_criterion(mem, DEFAULT_A, grid).passed


# ---------------------------------------------------------------------------
# the grid in one batch
# ---------------------------------------------------------------------------

BENCH_SYMBOL = make_symbol("power", a=1.0,
                           scale=fractional_normalization(2, 1.0))
BENCH_GRID = default_xi_grid(1e-5, 1e2, 16)
COLUMNS = ("Omega", "OmegaTilde", "D", "margin", "margin_err")


@pytest.mark.parametrize("B", [1.0, 2.0 ** 20], ids=["B=1", "B=2^20"])
@pytest.mark.parametrize("family", ["power1", "log1"])
def test_criteria_columns_are_the_one_point_functionals(family, B):
    sym = BENCH_SYMBOL if family == "power1" else make_symbol("log", a=1.0)
    mem = build_modulus(sym, 0.05, 0.005, B)
    grid = default_xi_grid(min(1e-5, 1e-2 * mem.delta), 1e2, 3)
    sqg = sqg_criterion(mem, DEFAULT_A, grid)
    bur = burgers_criterion(mem, grid)
    assert "below-delta" in sqg.regime and "above-delta" in sqg.regime
    # a public functional takes the grid as an array
    assert np.array_equal(omega_riesz(mem, grid), sqg.Omega)
    assert np.array_equal(omega_tilde(mem, grid), sqg.OmegaTilde)
    assert np.array_equal(dissipation_lower(mem, None, grid), sqg.D)
    for i, xi in enumerate(grid.tolist()):
        for rep, criterion in ((sqg, sqg_criterion),
                               (bur, burgers_criterion)):
            one = criterion(mem, xi_grid=grid[i:i + 1])
            for col in COLUMNS:
                assert np.array_equal(getattr(one, col),
                                      getattr(rep, col)[i:i + 1],
                                      equal_nan=True), (col, xi)
        assert type(omega_riesz(mem, xi)) is float
        assert sqg.Omega[i] == omega_riesz(mem, xi)
        assert sqg.OmegaTilde[i] == omega_tilde(mem, xi)
        d = dissipation_lower(mem, mem.sym, xi)
        assert sqg.D[i] == bur.D[i] == d
        assert bur.margin[i] == mem.omega(xi) * mem.omega_prime(xi) \
            - d / DEFAULT_A
    below = grid[grid < mem.delta]
    pick = below[:: max(1, below.size // 8)]
    assert sqg.side_values["measured_curvature_constant"] == \
        bur.side_values["measured_curvature_constant"] == \
        min(measured_curvature_constant(mem, x) for x in pick.tolist())


def test_criteria_evaluate_any_grid_in_a_fixed_number_of_batches(monkeypatch):
    # omega, omega' and omega'' are called a fixed number of times, however
    # long the grid, and a criterion on a grid other than the one its member
    # last evaluated runs the dissipation integrals once
    calls = []
    for name in ("omega", "omega_prime", "omega_second"):
        real = getattr(ModulusMember, name)

        def counted(self, xi, real=real, name=name):
            calls.append(name)
            return real(self, xi)
        monkeypatch.setattr(ModulusMember, name, counted)
    real_err = certificates._dissipation_err

    def counted_err(*args):
        calls.append("dissipation")
        return real_err(*args)
    monkeypatch.setattr(certificates, "_dissipation_err", counted_err)
    mem = build_modulus(BENCH_SYMBOL, 0.05, 0.01, 1.0)
    for criterion in (sqg_criterion, burgers_criterion):
        counts = []
        for grid in (default_xi_grid(1e-5, 1e2, 2), BENCH_GRID):
            calls.clear()
            criterion(mem, xi_grid=grid)
            counts.append(len(calls))
            assert calls.count("dissipation") == 1
        assert counts[0] == counts[1] <= 12


@pytest.mark.parametrize("criterion", [sqg_criterion, burgers_criterion])
def test_criterion_memory_stays_bounded_on_the_bench_grid(criterion):
    mem = build_modulus(BENCH_SYMBOL, 0.05, 0.01, 1.0)
    tracemalloc.start()
    try:
        criterion(mem, xi_grid=BENCH_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_criteria_share_one_dissipation_per_member_and_grid(monkeypatch):
    calls = []
    real_err = certificates._dissipation_err

    def counted_err(*args):
        calls.append("dissipation")
        return real_err(*args)
    monkeypatch.setattr(certificates, "_dissipation_err", counted_err)
    grid = default_xi_grid(1e-4, 1e2, 3)
    for first, second in ((sqg_criterion, burgers_criterion),
                          (burgers_criterion, sqg_criterion)):
        mem = base_member()
        calls.clear()
        first(mem, xi_grid=grid)
        second(mem, xi_grid=grid)
        assert len(calls) == 1
        # another grid or quadrature rule recomputes, then is shared again
        for change in ({"xi_grid": grid[1:]}, {"per_decade": 3.0},
                       {"order": 10}):
            first(mem, xi_grid=grid)
            calls.clear()
            kw = {"xi_grid": grid} | change
            first(mem, **kw)
            second(mem, **kw)
            assert len(calls) == 1, change
    # the callable route keeps nothing and recomputes on every call
    mem = base_member()
    plain = PlainModulus(omega_fn=mem.omega, omega_prime_fn=mem.omega_prime,
                         sym=mem.sym, delta=mem.delta)
    small = default_xi_grid(1e-2, 1e0, 1)
    calls.clear()
    for criterion in (sqg_criterion, burgers_criterion) * 2:
        criterion(plain, xi_grid=small)
    assert len(calls) == 4
    assert not hasattr(plain, "_grid_memo")


def _hex_report(rep):
    doc = {c: [float(v).hex() for v in getattr(rep, c)]
           for c in ("xi_grid",) + COLUMNS}
    doc["side_values"] = {k: float(v).hex()
                          for k, v in rep.side_values.items()}
    doc["side_conditions"] = rep.side_conditions
    doc["regime"] = rep.regime
    return doc


@pytest.mark.parametrize("family, B", [("power1", 1.0), ("power1", 2.0 ** 20),
                                       ("log1", 1.0)],
                         ids=["power1-B=1", "power1-B=2^20", "log1-B=1"])
def test_shared_reports_equal_fresh_members_bitwise(family, B):
    sym = BENCH_SYMBOL if family == "power1" else make_symbol("log", a=1.0)

    def member():
        return build_modulus(sym, 0.05, 0.005, B)
    grid = default_xi_grid(min(1e-5, 1e-2 * member().delta), 1e2, 8)
    fresh = {c: _hex_report(c(member(), xi_grid=grid))
             for c in (sqg_criterion, burgers_criterion)}
    assert "below-delta" in fresh[sqg_criterion]["regime"]
    for pair in ((sqg_criterion, burgers_criterion),
                 (burgers_criterion, sqg_criterion)):
        mem = member()
        for criterion in pair + pair:
            assert _hex_report(criterion(mem, xi_grid=grid)) == \
                fresh[criterion], criterion.__name__


def test_reports_own_their_arrays_and_the_memo_keeps_one_grid():
    grid = default_xi_grid(1e-4, 1e2, 3)
    fresh = {c: c(base_member(), xi_grid=grid)
             for c in (sqg_criterion, burgers_criterion)}
    for pair in ((sqg_criterion, burgers_criterion),
                 (burgers_criterion, sqg_criterion)):
        mem = base_member()
        first = pair[0](mem, xi_grid=grid)
        second = pair[1](mem, xi_grid=grid)
        for c in ("xi_grid", "D", "margin", "margin_err"):
            getattr(first, c)[:] = -1.0
        for rep, criterion in ((second, pair[1]),
                               (pair[0](mem, xi_grid=grid), pair[0]),
                               (pair[1](mem, xi_grid=grid), pair[1])):
            for c in ("xi_grid",) + COLUMNS:
                assert np.array_equal(getattr(rep, c),
                                      getattr(fresh[criterion], c),
                                      equal_nan=True), c
    # the caller's grid is neither the report's nor the memo's: an edit in
    # place leaves the report alone and is a new grid
    mem = base_member()
    moved = grid.copy()
    rep = burgers_criterion(mem, xi_grid=moved)
    moved *= 2.0
    assert np.array_equal(rep.xi_grid, grid)
    assert np.array_equal(burgers_criterion(mem, xi_grid=moved).D,
                          burgers_criterion(base_member(), xi_grid=moved).D)
    # three grids leave the evaluation of the last one only
    last = default_xi_grid(1e-3, 1e1, 2)
    for g in (grid, grid[::2], last):
        sqg_criterion(mem, xi_grid=g)
        burgers_criterion(mem, xi_grid=g)
    arrays = [a for a in mem._grid_memo if isinstance(a, np.ndarray)]
    assert len(arrays) == 5
    assert np.array_equal(arrays[0], last)
    assert all(a.shape == last.shape and not a.flags.writeable
               for a in arrays)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _strict_json(report):
    return json.loads(json.dumps(records.to_dict(report), allow_nan=False))


def test_report_csv_shape():
    rep = burgers_criterion(base_member(), default_xi_grid(1e-2, 1e1, 2))
    names = ("xi_grid", "regime", "Omega", "OmegaTilde", "D", "margin")
    lines = records.to_csv({k: getattr(rep, k) for k in names}).strip() \
        .split("\n")
    assert lines[0] == ",".join(names)
    assert len(lines) == 1 + len(rep.xi_grid)
    first = lines[1].split(",")
    assert float(first[0]) == rep.xi_grid[0]
    assert first[1] in ("below-delta", "above-delta")
    assert float(first[5]) == rep.margin[0]


def test_report_json_schema():
    rep = sqg_criterion(base_member(), DEFAULT_A, default_xi_grid(1e-2, 1e1, 2))
    doc = _strict_json(rep)
    assert {"passed", "worst_xi", "worst_margin", "A_used", "kappa",
            "gamma"} <= set(doc)
    assert doc["passed"] is True
    assert doc["worst_xi"] == rep.worst_xi
    assert doc["worst_margin"] == rep.worst_margin
    assert doc["A_used"] == DEFAULT_A
    assert doc["kappa"] == 0.1
    assert doc["margin"] == rep.margin.tolist()


def test_report_json_nan_metadata_is_null():
    lin = PlainModulus(
        omega_fn=lambda r: np.asarray(r, dtype=float),
        omega_prime_fn=np.ones_like,
        sym=CRITICAL)
    doc = _strict_json(burgers_criterion(lin, default_xi_grid(1e-1, 1e1, 2)))
    assert doc["kappa"] is None and doc["gamma"] is None
    assert doc["B"] is None and doc["delta"] is None
    assert set(doc["Omega"]) == {None}
