import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from moclab import quadrature
from moclab.quadrature import (
    classify_decades,
    decade_increments,
    gauss_legendre,
    graded_edges,
    log_edge_groups,
    log_edges,
    log_panel_nodes,
    oscillation_resolved_edges,
    panel_nodes,
    quad_log,
)


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
    e = graded_edges(0.0, 1.0, 4)
    assert_allclose(e, [0.0625, 0.125, 0.25, 0.5, 1.0])
    # leftmost edge sits span/2^levels from a; the open core is the caller's
    assert e[0] > 0.0


def test_quad_log_endpoint_singularity():
    val, err = quad_log(lambda x: math.log(1.0 / x), 1e-30, 1.0)
    assert_allclose(val, 1.0, rtol=1e-12)
    assert err < 1e-10


def test_oscillation_resolved_edges_resolve_period():
    freq = 10.0
    e = oscillation_resolved_edges(1.0, 5.0, freq, panels_per_period=4.0)
    assert e[0] == 1.0 and e[-1] == pytest.approx(5.0)
    assert np.max(np.diff(e)) <= 2.0 * math.pi / freq / 4.0 + 1e-12


def test_log_edges_pin_kinks_and_keep_the_endpoints():
    e = log_edges(1e-4, 1.0, 2, kinks=(1e-5, 3e-3, 1.0, 2.0))
    assert e[0] == 1e-4 and e[-1] == 1.0
    assert 3e-3 in e and 1e-5 not in e and 2.0 not in e
    assert e.size == 8 + 1 + 1 and np.all(np.diff(e) > 0.0)
    # a span shorter than one panel still gets one
    assert_allclose(log_edges(1.0, 1.01, 4), [1.0, 1.01])


def _one_interval_log_edges(lo, hi, per_decade, kinks=()):
    # the single-interval builder, as written before the batched one
    n = max(1, int(math.ceil(per_decade * math.log10(hi / lo))))
    e = np.geomspace(lo, hi, n + 1)
    inner = [k for k in kinks if lo < k < hi]
    if inner:
        e = np.unique(np.concatenate([e, inner]))
    return e


def test_log_edge_groups_match_the_one_interval_builder():
    rng = np.random.default_rng(5)
    lo = 10.0 ** rng.uniform(-18.0, 2.0, 400)
    hi = lo * 10.0 ** rng.uniform(1e-3, 12.0, 400)
    # 10 is an interior edge of [1, 100] at 1, 4 and 8 panels per decade:
    # it is kept once, not added again
    lo[:2], hi[:2] = 1.0, 100.0
    kinks = (10.0, 1e-3, 1.0, 10.0)
    for per_decade in (1, 4, 8):
        seen = np.zeros(lo.size, dtype=int)
        for index, edges in log_edge_groups(lo, hi, per_decade, kinks):
            assert edges.shape[0] == index.size
            for i, row in zip(index, edges):
                assert np.array_equal(row, _one_interval_log_edges(
                    lo[i], hi[i], per_decade, kinks))
            seen[index] += 1
        assert np.all(seen == 1)


def test_log_edges_goes_through_the_batched_builder(monkeypatch):
    calls = []
    batched = quadrature.log_edge_groups

    def counted(*args, **kwargs):
        calls.append(args)
        return batched(*args, **kwargs)

    monkeypatch.setattr(quadrature, "log_edge_groups", counted)
    assert np.array_equal(quadrature.log_edges(1e-3, 2.0, 4, (0.5,)),
                          _one_interval_log_edges(1e-3, 2.0, 4, (0.5,)))
    assert len(calls) == 1


def test_panel_nodes_rows_match_one_row_at_a_time():
    edges = np.array([[0.1, 0.4, 1.0], [2.0, 2.5, 7.0]])
    nodes, weights = panel_nodes(edges, 6)
    assert nodes.shape == weights.shape == (2, 12)
    for row, n, w in zip(edges, nodes, weights):
        n1, w1 = panel_nodes(row, 6)
        assert np.array_equal(n, n1) and np.array_equal(w, w1)


def test_log_panel_nodes_integrate_a_power_singularity():
    eta, w = log_panel_nodes(1e-6, 1.0, 8.0, 12, kinks=(1e-3,))
    assert_allclose(np.dot(w, eta ** -0.5), 2.0 * (1.0 - 1e-3), rtol=1e-13)


def test_decade_increments_of_inverse_square_root():
    inc, err = decade_increments(lambda r: r ** -0.5, 2.0, 5)
    k = np.arange(5)
    exact = 2.0 * np.sqrt(2.0) * (10.0 ** (-k / 2) - 10.0 ** (-(k + 1) / 2))
    assert_allclose(inc, exact, rtol=1e-13)
    assert 0.0 <= err < 1e-10


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
