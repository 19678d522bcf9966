"""Shared quadrature helpers.

Thin wrappers around scipy.integrate.quad plus vectorized composite
Gauss-Legendre panels. The conventions used throughout the package:

* singular endpoints are handled by a log substitution so integrands decay
  exponentially in the transformed variable;
* oscillatory integrals go through QUADPACK's cos/sin weights (QAWO on a
  finite window, QAWF for convergent tails);
* every numerical value that feeds a pass/fail decision carries an error
  estimate alongside it;
* convergence of an integral toward an endpoint is read from the trailing
  ratios of its per-decade increments (``classify_decades``), each caller
  with its own thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

    ``edges`` is increasing along its last axis; panel i is
    [edges[..., i], edges[..., i+1]]. Returns nodes and weights covering all
    panels, flat along the last axis (one row per row of a 2-D ``edges``).
    """
    x, w = gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    lo = edges[..., :-1, None]
    hi = edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    shape = edges.shape[:-1] + (-1,)
    nodes = (lo + half * (x + 1.0)).reshape(shape)
    weights = (half * w).reshape(shape)
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


def log_edges(lo: float, hi: float, per_decade: float,
              kinks=()) -> np.ndarray:
    """Geometric panel edges on [lo, hi], ``per_decade`` panels per decade
    (at least one), with the kinks inside (lo, hi) pinned as extra edges."""
    ((_, edges),) = log_edge_groups([lo], [hi], per_decade, kinks)
    return edges[0]


def log_edge_groups(lo, hi, per_decade: float,
                    kinks=()) -> list[tuple[np.ndarray, np.ndarray]]:
    """``log_edges`` for many intervals [lo[i], hi[i]] at once.

    Rows with the same edge count share one 2-D array: returns a list of
    (index, edges) pairs, ``edges[j]`` being the edges of interval
    ``index[j]``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    # math.log10 per interval: the panel count must not hinge on an ulp
    bounds = list(zip(lo.tolist(), hi.tolist()))
    by_count = {}
    for i, (a, b) in enumerate(bounds):
        n = max(1, int(math.ceil(per_decade * math.log10(b / a))))
        by_count.setdefault(n, []).append(i)
    groups = []
    for n, rows in by_count.items():
        index = np.array(rows)
        # a lone interval takes the scalar form: the same edges, sooner
        ends = (lo[index], hi[index]) if len(rows) > 1 else bounds[rows[0]]
        groups.append((index, np.geomspace(*ends, n + 1).T
                       .reshape(len(rows), -1)))
    for k in sorted(set(kinks)):
        inside = (lo < k) & (k < hi)
        if not inside.any():
            continue
        split = []
        for index, edges in groups:
            add = inside[index] & ~np.any(edges == k, axis=1)
            if add.any():
                # k is on none of these rows' edges: sorting adds it once
                grown = np.concatenate(
                    [edges[add], np.full((np.count_nonzero(add), 1), k)],
                    axis=1)
                split.append((index[add], np.sort(grown, axis=1)))
            if not add.all():
                split.append((index[~add], edges[~add]))
        groups = split
    return groups


@dataclass(frozen=True)
class PanelRows:
    """Quadrature rules of many intervals, stored back to back.

    Row i owns ``nodes[starts[i]:starts[i + 1]]`` and the matching weights;
    no row is empty. Every value is computed elementwise and each row is
    summed on its own, so a row's integral does not depend on which other
    rows share the batch.
    """

    nodes: np.ndarray
    weights: np.ndarray
    starts: np.ndarray

    def spread(self, per_row) -> np.ndarray:
        """One value per row, repeated onto that row's nodes."""
        counts = np.diff(np.append(self.starts, self.nodes.size))
        return np.repeat(per_row, counts)

    def integrate(self, values) -> np.ndarray:
        """Per-row sums of weights * values (values given at the nodes)."""
        if self.starts.size == 0:
            return np.zeros(0)
        return np.add.reduceat(self.weights * values, self.starts)


def log_panel_rows(lo, hi, per_decade: float, order: int,
                   kinks=()) -> PanelRows:
    """``log_panel_nodes`` for many intervals [lo[i], hi[i]] at once.

    ``kinks`` is one list shared by every row, or a 2-D array with a row of
    candidates per interval; a candidate is pinned where it falls strictly
    inside its interval. Each gap between pinned points gets
    ceil(per_decade * decades) panels (at least one), uniform in s = ln(eta),
    and the rule is Gauss-Legendre of ``order`` points per panel.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    if not np.all((lo > 0.0) & (lo < hi)):
        raise ValueError("log panels need 0 < lo < hi")
    n = lo.size
    k = np.atleast_2d(np.asarray(kinks, dtype=float))
    k = np.broadcast_to(k, (n, k.shape[1]))
    lo_c, hi_c = lo[:, None], hi[:, None]
    pinned = np.where((lo_c < k) & (k < hi_c), k, np.nan)
    # NaN padding sorts last; repeated points and padding make no segment
    pts = np.sort(np.concatenate((lo_c, pinned, hi_c), axis=1), axis=1)
    live = pts[:, 1:] > pts[:, :-1]
    row = np.nonzero(live)[0]
    a, b = pts[:, :-1][live], pts[:, 1:][live]
    panels = np.maximum(1, np.ceil(per_decade * np.log10(b / a))).astype(int)
    # panel j of a segment spans s_a + [j, j + 1] * step, as np.linspace
    # places its points, with the segment's right end exact
    seg = np.repeat(np.arange(panels.size), panels)
    j = np.arange(seg.size) - np.repeat(np.cumsum(panels) - panels, panels)
    log_a, log_b = np.log(a), np.log(b)
    step = ((log_b - log_a) / panels)[seg]
    s_a = log_a[seg]
    left = j * step + s_a
    right = np.where(j + 1 == panels[seg], log_b[seg], (j + 1) * step + s_a)
    nodes_s, w_s = panel_nodes(np.stack((left, right), axis=1), order)
    eta = np.exp(nodes_s.ravel())
    per_row = np.bincount(row, weights=panels, minlength=n).astype(int)
    starts = order * np.concatenate(([0], np.cumsum(per_row)[:-1]))
    return PanelRows(eta, w_s.ravel() * eta, starts)


def log_panel_nodes(lo: float, hi: float, per_decade: float, order: int,
                    kinks=()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrating f(eta) d(eta) on log-spaced panels.

    The rule is Gauss-Legendre in s = ln(eta). Kink locations inside
    (lo, hi) are pinned as panel edges so each panel sees a smooth
    integrand. This is the one-row case of ``log_panel_rows``.
    """
    rows = log_panel_rows(lo, hi, per_decade, order,
                          [float(k) for k in kinks])
    return rows.nodes, rows.weights


def decade_increments(fn, hi: float, decades: int) -> tuple[list, float]:
    """Per-decade integrals of fn toward 0 over [hi/10^(k+1), hi/10^k].

    Returns the increments, nearest decade first, and the sum of their
    quadrature error estimates.
    """
    out = []
    err_sum = 0.0
    for k in range(decades):
        val, err = quad_log(fn, hi * 10.0 ** -(k + 1), hi * 10.0 ** -k)
        out.append(val)
        err_sum += err
    return out, err_sum


def classify_decades(increments, window: int, conv: float, div: float,
                     drift: float = math.inf) -> tuple[str, np.ndarray]:
    """Classify the sum of per-decade increments by its trailing ratios.

    The ratios are inc[k+1] / inc[k] over the last ``window`` + 1
    increments, dropping those with a non-positive denominator. All at or
    above ``div`` reads "divergent"; all at or below ``conv`` with a spread
    of at most ``drift`` reads "convergent"; anything else "ambiguous". No
    ratio at all reads "convergent". Returns (label, ratios).
    """
    tail = np.asarray(increments, dtype=float)[-(window + 1):]
    den = tail[:-1]
    ratios = tail[1:][den > 0.0] / den[den > 0.0]
    if ratios.size == 0:
        return "convergent", ratios
    if ratios.min() >= div:
        return "divergent", ratios
    if ratios.max() <= conv and ratios.max() - ratios.min() <= drift:
        return "convergent", ratios
    return "ambiguous", ratios


def oscillation_resolved_edges(a: float, b: float, freq: float,
                               min_panels: int = 4,
                               panels_per_period: float = 4.0,
                               max_panels: int = 4096) -> np.ndarray:
    """Panel edges on [a, b] fine enough for GL-16 against cos(freq * r)."""
    periods = abs(freq) * (b - a) / (2.0 * math.pi)
    n = int(min(max_panels, max(min_panels, math.ceil(panels_per_period * periods))))
    return np.linspace(a, b, n + 1)
