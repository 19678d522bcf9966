"""Shared quadrature helpers.

Thin wrappers around scipy.integrate.quad plus vectorized composite
Gauss-Legendre panels. The conventions used throughout the package:

* singular endpoints are handled by a log substitution so integrands decay
  exponentially in the transformed variable;
* oscillatory integrals go through QUADPACK's cos/sin weights (QAWO on a
  finite window, QAWF for convergent tails);
* every numerical value that feeds a pass/fail decision carries an error
  estimate alongside it.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for the panels defined by ``edges``.

    ``edges`` is an increasing 1-D array; panel i is [edges[i], edges[i+1]].
    Returns flat arrays of nodes and weights covering all panels.
    """
    x, w = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half * (x[None, :] + 1.0)).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def graded_edges(a: float, b: float, levels: int, toward: str = "left") -> np.ndarray:
    """Geometrically graded panel edges on [a, b].

    ``levels`` panels shrink by factors of 2 toward the singular endpoint.
    ``a`` may be 0 when grading toward the left; the innermost panel then
    starts at b * 2**-levels.
    """
    fracs = 2.0 ** -np.arange(levels + 1, dtype=float)
    if toward == "left":
        pts = a + (b - a) * fracs[::-1]
        if a > 0.0:
            pts = np.concatenate(([a], pts))
        return np.unique(pts)
    pts = b - (b - a) * fracs[::-1]
    return np.unique(np.concatenate((pts, [b])))


def integrate_panels(f, edges: np.ndarray, order: int = 16) -> float:
    """Composite Gauss-Legendre integral of a vectorized callable."""
    nodes, weights = panel_nodes(edges, order)
    return float(np.dot(weights, f(nodes)))


def quad_log(f, lo: float, hi: float, **kw) -> tuple[float, float]:
    """Integrate f on [lo, hi], 0 < lo < hi, in the variable s = log r.

    Suits integrands with power-law endpoint behaviour: in s they are
    smooth and the adaptive rule converges quickly.
    """
    slo, shi = math.log(lo), math.log(hi)

    def g(s: float) -> float:
        r = math.exp(s)
        return f(r) * r

    val, err = quad(g, slo, shi, limit=200, **kw)
    return val, err


def quad_decaying(f, lo: float, decade_span: float = 14.0, rate: float = 1.0,
                  **kw) -> tuple[float, float]:
    """Integrate f on [lo, inf) when f decays at least like r**-(1+rate).

    Log-substitutes and truncates where the transformed integrand has
    decayed by ``decade_span`` decades relative to its start.
    """
    smax = math.log(lo) + decade_span * math.log(10.0) / max(rate, 1e-3)

    def g(s: float) -> float:
        r = math.exp(s)
        return f(r) * r

    val, err = quad(g, math.log(lo), smax, limit=200, **kw)
    return val, err


class SmoothCutoff:
    """C-infinity transition: 1 on (-inf, a], 0 on [b, inf)."""

    def __init__(self, a: float, b: float):
        if not b > a:
            raise ValueError("cutoff needs b > a")
        self.a = float(a)
        self.b = float(b)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        t = np.clip((r - self.a) / (self.b - self.a), 0.0, 1.0)
        out = np.empty_like(t)
        inner = t <= 0.0
        outer = t >= 1.0
        mid = ~(inner | outer)
        out[inner] = 1.0
        out[outer] = 0.0
        tm = t[mid]
        # bump-function partition h(1-t)/(h(1-t)+h(t)) with h(s)=exp(-1/s)
        ha = np.exp(-1.0 / (1.0 - tm))
        hb = np.exp(-1.0 / tm)
        out[mid] = ha / (ha + hb)
        return out if out.ndim else float(out)


def oscillation_resolved_edges(a: float, b: float, freq: float,
                               min_panels: int = 4,
                               panels_per_period: float = 4.0,
                               max_panels: int = 4096) -> np.ndarray:
    """Panel edges on [a, b] fine enough for GL-16 against cos(freq * r)."""
    periods = abs(freq) * (b - a) / (2.0 * math.pi)
    n = int(min(max_panels, max(min_panels, math.ceil(panels_per_period * periods))))
    return np.linspace(a, b, n + 1)
