import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from moclab import burgers, quadrature, sqg_euler, symbols
from moclab.quadrature import (
    classify_decades,
    decade_increments,
    gauss_legendre,
    graded_edges,
    log_edges,
    log_panel_blocks,
    log_panel_rows,
    oscillation_resolved_edges,
    panel_nodes,
)
from moclab.symbols import (check_conditions, make_multiplier, make_symbol,
                            symbol_from_multiplier, symbol_from_table)


def test_gauss_legendre_polynomial_exactness():
    # order-n rule must integrate degree 2n-1 exactly
    x, w = gauss_legendre(8)
    for deg in range(0, 16):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert_allclose(np.dot(w, x ** deg), exact, atol=1e-14)


def test_gauss_legendre_cached_identity():
    assert gauss_legendre(12)[0] is gauss_legendre(12)[0]


def test_panel_nodes_sin():
    edges = np.array([0.0, 1.5, math.pi])
    x, w = panel_nodes(edges, 16)
    assert x.size == 32
    assert_allclose(np.dot(w, np.sin(x)), 2.0, rtol=1e-14)


def test_graded_edges_geometric_toward_left():
    e = graded_edges(1.0, 4)
    assert_allclose(e, [0.0625, 0.125, 0.25, 0.5, 1.0])
    # leftmost edge sits b/2^levels from 0; the open core is the caller's
    assert e[0] > 0.0


def test_oscillation_resolved_edges_resolve_period():
    freq = 10.0
    e = oscillation_resolved_edges(1.0, 5.0, freq)
    assert e[0] == 1.0 and e[-1] == pytest.approx(5.0)
    assert np.max(np.diff(e)) <= 2.0 * math.pi / freq / 6.0 + 1e-12


def test_log_edges_pin_kinks_and_keep_the_endpoints():
    e = log_edges(1e-4, 1.0, 2, kinks=(1e-5, 3e-3, 1.0, 2.0))
    assert e[0] == 1e-4 and e[-1] == 1.0
    assert 3e-3 in e and 1e-5 not in e and 2.0 not in e
    assert e.size == 8 + 1 + 1 and np.all(np.diff(e) > 0.0)
    # a span shorter than one panel still gets one
    assert_allclose(log_edges(1.0, 1.01, 4), [1.0, 1.01])


def _one_interval_log_edges(lo, hi, per_decade, kinks=()):
    # the single-interval builder whose edges the envelope tables store
    n = max(1, int(math.ceil(per_decade * math.log10(hi / lo))))
    e = np.geomspace(lo, hi, n + 1)
    inner = [k for k in kinks if lo < k < hi]
    if inner:
        e = np.unique(np.concatenate([e, inner]))
    return e


def test_log_edges_match_the_one_interval_builder():
    rng = np.random.default_rng(5)
    lo = 10.0 ** rng.uniform(-18.0, 2.0, 400)
    hi = lo * 10.0 ** rng.uniform(1e-3, 12.0, 400)
    # 10 is an interior edge of [1, 100] at 1, 4 and 8 panels per decade:
    # it is kept once, not added again
    lo[:2], hi[:2] = 1.0, 100.0
    kinks = (10.0, 1e-3, 1.0, 10.0)
    for per_decade in (1, 4, 8):
        for a, b in zip(lo, hi):
            assert np.array_equal(log_edges(a, b, per_decade, kinks),
                                  _one_interval_log_edges(a, b, per_decade,
                                                          kinks))


def test_panel_nodes_rows_match_one_row_at_a_time():
    edges = np.array([[0.1, 0.4, 1.0], [2.0, 2.5, 7.0]])
    nodes, weights = panel_nodes(edges, 6)
    assert nodes.shape == weights.shape == (2, 12)
    for row, n, w in zip(edges, nodes, weights):
        n1, w1 = panel_nodes(row, 6)
        assert np.array_equal(n, n1) and np.array_equal(w, w1)


def test_log_panel_rows_integrate_a_power_singularity():
    rows = log_panel_rows(1e-6, 1.0, 8.0, 12, kinks=(1e-3,))
    assert_allclose(np.dot(rows.weights, rows.nodes ** -0.5),
                    2.0 * (1.0 - 1e-3), rtol=1e-13)


def test_log_panel_rows_match_one_row_at_a_time():
    # per-row kinks, some outside their interval; every row's rule, its
    # integral and its spread values are those of a batch of one
    rng = np.random.default_rng(5)
    lo = np.exp(rng.uniform(-25.0, 0.0, 40))
    hi = lo * np.exp(rng.uniform(0.1, 25.0, 40))
    kinks = np.exp(rng.uniform(-26.0, 2.0, (40, 3)))
    kinks[0, 1] = kinks[0, 2] = math.sqrt(lo[0] * hi[0])  # a repeated kink
    rows = log_panel_rows(lo, hi, 3.0, 8, kinks)
    total = rows.integrate(np.sqrt(rows.nodes))
    spread = rows.spread(np.arange(40.0))
    for i in range(40):
        one = log_panel_rows(lo[i], hi[i], 3.0, 8, kinks[i:i + 1])
        flat = log_panel_rows(lo[i], hi[i], 3.0, 8, list(kinks[i]))
        eta = flat.nodes
        assert np.array_equal(one.nodes, eta)
        assert np.array_equal(one.weights, flat.weights)
        end = rows.starts[i + 1] if i < 39 else rows.nodes.size
        assert np.array_equal(rows.nodes[rows.starts[i]:end], eta)
        assert np.all(spread[rows.starts[i]:end] == i)
        assert one.integrate(np.sqrt(one.nodes))[0] == total[i]
    assert_allclose(total, (hi ** 1.5 - lo ** 1.5) / 1.5, rtol=1e-12)
    with pytest.raises(ValueError, match="0 < lo < hi"):
        log_panel_rows([1.0, 2.0], [3.0, 2.0], 3.0, 8)


@pytest.mark.parametrize("budget", [None, 64, 700])
@pytest.mark.parametrize("per_row", [True, False], ids=["row-kinks",
                                                         "shared-kinks"])
def test_log_panel_blocks_hold_each_row_once_as_a_batch_of_one(
        monkeypatch, budget, per_row):
    if budget is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
    rng = np.random.default_rng(7)
    lo = np.exp(rng.uniform(-25.0, 0.0, 60))
    hi = lo * np.exp(rng.uniform(0.1, 25.0, 60))
    kinks = np.exp(rng.uniform(-26.0, 2.0, (60, 3)))
    if not per_row:
        kinks = list(kinks[0])
    seen = []
    for at, rows in log_panel_blocks(lo, hi, 3.0, 8, kinks):
        index = np.arange(lo.size)[at]
        seen += index.tolist()
        # over the budget only as a row of its own
        assert rows.nodes.size <= quadrature._BLOCK_NODES or index.size == 1
        total = rows.integrate(np.sqrt(rows.nodes))
        for i, value in zip(index, total):
            one = log_panel_rows(lo[i], hi[i], 3.0, 8,
                                 kinks[i:i + 1] if per_row else kinks)
            assert one.integrate(np.sqrt(one.nodes))[0] == value
    assert seen == list(range(lo.size))


def test_log_panel_nodes_stay_inside_narrow_intervals():
    # intervals a few ulps wide: exp(ln lo) may round below lo, and a node
    # placed there fed omega a negative separation downstream
    eps = np.finfo(float).eps
    lo = np.geomspace(1e-3, 1e6, 400)
    for width in (6, 24, 200):
        hi = lo * (1.0 + width * eps)
        rows = log_panel_rows(lo, hi, 16.0, 20)
        row = rows.spread(np.arange(lo.size))
        assert np.all(rows.nodes >= lo[row]) and np.all(rows.nodes <= hi[row])


def test_log_panel_rows_skip_kinks_within_ulps_of_an_end():
    eps = np.finfo(float).eps
    plain = log_panel_rows(1.0, 2.0, 16.0, 20)
    near = log_panel_rows(1.0, 2.0, 16.0, 20,
                          [1.0 + 2.0 * eps, 2.0 * (1.0 - 2.0 * eps)])
    assert np.array_equal(near.nodes, plain.nodes)
    assert np.array_equal(near.weights, plain.weights)
    pinned = log_panel_rows(1.0, 2.0, 16.0, 20, [1.0 + 64.0 * eps])
    assert pinned.nodes.size == plain.nodes.size + 20
    assert np.all(pinned.nodes[:20] <= 1.0 + 64.0 * eps)


def test_decade_increments_of_inverse_square_root():
    inc, err = decade_increments(lambda r: r ** -0.5, 2.0, 5)
    k = np.arange(5)
    exact = 2.0 * np.sqrt(2.0) * (10.0 ** (-k / 2) - 10.0 ** (-(k + 1) / 2))
    assert_allclose(inc, exact, rtol=1e-13)
    assert 0.0 <= err < 1e-10


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9, 1.0])
def test_decade_increments_of_a_power_match_the_closed_form(a):
    # integral of r^-a over [10^-(k+1), 10^-k]: ln 10 at a = 1
    inc, err = decade_increments(lambda r: r ** -a, 1.0, 40)
    k = np.arange(40.0)
    if a == 1.0:
        exact = np.full(40, math.log(10.0))
    else:
        exact = (10.0 ** (-k * (1.0 - a))
                 - 10.0 ** (-(k + 1.0) * (1.0 - a))) / (1.0 - a)
    assert_allclose(inc, exact, rtol=1e-13)
    assert np.sum(np.abs(inc - exact)) <= err


def test_decade_increments_call_their_function_once_per_rule():
    shapes = []

    def fn(r):
        shapes.append(r.shape)
        return r ** -0.5

    decade_increments(fn, 1.0, 40)
    # every decade's nodes in one array, for the order-24 rule and its
    # embedded order-12 rule
    assert shapes == [(40 * 24,), (40 * 12,)]


_LOGLOG = make_multiplier("loglog", g=1.0)
DECADE_TESTS = {
    "kernel_mass": (burgers, lambda: burgers.kernel_mass(
        make_symbol("power", a=0.5))),
    "check_conditions": (symbols, lambda: check_conditions(
        make_symbol("log", a=1.0))),
    "trend-from-multiplier": (symbols, lambda: symbol_from_multiplier(
        _LOGLOG)),
    "trend-tabulated": (symbols, lambda: symbol_from_table(
        [1e-3, 1e-2, 1e-1, 1.0], [1e3, 1e2, 1e1, 1.0])),
    "osgood_check": (sqg_euler, lambda: sqg_euler.osgood_check(_LOGLOG)),
}


@pytest.mark.parametrize("name", sorted(DECADE_TESTS))
def test_each_decade_test_builds_its_increments_with_one_call(name,
                                                              monkeypatch):
    module, run = DECADE_TESTS[name]
    calls = []

    def counted(*args):
        calls.append(args)
        return decade_increments(*args)

    monkeypatch.setattr(module, "decade_increments", counted)
    run()
    assert len(calls) == 1


_RADII = np.geomspace(1e-8, 2.0, 30)
DECADE_INTEGRANDS = {
    "power0.5": lambda r: r ** -0.5,
    "log1": make_symbol("log", a=1.0),
    "iterated-log": lambda r: 1.0 / (r * np.log(2.0 / r) ** 2),
    "tabulated": symbol_from_table(
        _RADII, _RADII ** -0.7 * (1.0 + 0.05 * np.sin(np.log(_RADII)))),
    "osgood-loglog6": lambda u: 1.0 / (u * np.log(2.0 / u)
                                       * np.log1p(np.log1p(u ** -2.0)) ** 6),
}


@pytest.mark.parametrize("name", sorted(DECADE_INTEGRANDS))
def test_an_order_48_recomputation_lands_inside_the_reported_error(name):
    fn = DECADE_INTEGRANDS[name]
    inc, err = decade_increments(fn, 1.0, 40)
    edges = 10.0 ** -np.arange(41.0)
    rows = log_panel_rows(edges[1:], edges[:-1],
                          quadrature._DECADE_PER_DECADE, 48,
                          getattr(fn, "breakpoints", ()))
    assert np.sum(np.abs(rows.integrate(fn(rows.nodes)) - inc)) <= err


def test_decade_increments_pin_the_breakpoints_of_a_symbol():
    # the tabulated interpolant has kinks at its table radii: a decade's
    # one panel must stop at them to match a refined rule to rounding
    sym = DECADE_INTEGRANDS["tabulated"]
    inc, _ = decade_increments(sym, 1.0, 16)
    edges = 10.0 ** -np.arange(17.0)
    rows = log_panel_rows(edges[1:], edges[:-1], 16.0, 40, sym.breakpoints)
    assert_allclose(inc, rows.integrate(sym(rows.nodes)), rtol=1e-13)


_GEOMETRIC = [0.3 ** k for k in range(10)]
_DRIFTING = list(np.cumprod([1.0, 0.5, 0.6, 0.7, 0.8, 0.9, 0.94]))


@pytest.mark.parametrize("inc, window, drift, label, ratios", [
    (_GEOMETRIC, 6, 0.005, "convergent", [0.3] * 6),
    ([2.0] * 10, 6, 0.005, "divergent", [1.0] * 6),
    (_DRIFTING, 6, 0.005, "ambiguous", [0.5, 0.6, 0.7, 0.8, 0.9, 0.94]),
    (_DRIFTING, 6, math.inf, "convergent", [0.5, 0.6, 0.7, 0.8, 0.9, 0.94]),
    ([1.0, 0.97, 0.97 ** 2, 0.97 ** 3], 3, 0.005, "ambiguous", [0.97] * 3),
    # only the trailing window counts
    ([1.0, 1.0, 1.0, 0.1, 0.01], 2, 0.005, "convergent", [0.1, 0.1]),
    # short: fewer ratios than the window
    ([1.0, 0.5], 6, 0.005, "convergent", [0.5]),
    ([1.0], 6, 0.005, "convergent", []),
    # non-positive denominators are dropped; none left reads convergent
    ([1.0, 0.0, 0.0, 0.0], 3, 0.005, "convergent", [0.0]),
    ([0.0, 0.0, 0.0, 0.0], 3, 0.005, "convergent", []),
    ([-1.0, 2.0, 2.0], 2, 0.005, "divergent", [1.0]),
])
def test_classify_decades_table(inc, window, drift, label, ratios):
    got, r = classify_decades(inc, window, 0.95, 0.999, drift)
    assert got == label
    assert r.shape == (len(ratios),)
    assert_allclose(r, ratios, rtol=1e-12)
