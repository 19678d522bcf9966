"""Shared quadrature helpers: vectorized composite Gauss-Legendre panels.

The conventions used throughout the package:

* singular endpoints are handled by one log-panel rule (``log_panel_rows``):
  Gauss-Legendre on panels uniform in s = ln r, on which power-law
  integrands are smooth, with every kink of the integrand pinned as an edge;
* many intervals are integrated in one batch, the integrand evaluated on
  one array of nodes and each interval's row summed on its own, so a row's
  value does not depend on its batch; long batches run in blocks of at
  most ``_BLOCK_NODES`` nodes (``log_panel_blocks``);
* oscillatory integrals go through QUADPACK's cos/sin weights (QAWO on a
  finite window, QAWF for convergent tails);
* every numerical value that feeds a pass/fail decision carries an error
  estimate alongside it;
* convergence of an integral toward an endpoint is read from the trailing
  ratios of its per-decade increments (``decade_increments`` builds them,
  ``classify_decades`` reads them), each caller with its own thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


def graded_edges(b: float, levels: int) -> np.ndarray:
    """Panel edges on [0, b] graded geometrically toward 0.

    ``levels`` panels shrink by factors of 2 toward the singular endpoint;
    the innermost panel starts at b * 2**-levels, and the open core below
    it is the caller's.
    """
    fracs = 2.0 ** -np.arange(levels + 1, dtype=float)
    return b * fracs[::-1]


def log_edges(lo: float, hi: float, per_decade: float,
              kinks=()) -> np.ndarray:
    """Geometric panel edges on [lo, hi], ``per_decade`` panels per decade
    (at least one), with the kinks inside (lo, hi) pinned as extra edges."""
    # math.log10: the panel count must not hinge on an ulp
    n = max(1, int(math.ceil(per_decade * math.log10(hi / lo))))
    edges = np.geomspace(lo, hi, n + 1)
    inner = [k for k in kinks if lo < k < hi]
    return np.unique(np.concatenate([edges, inner])) if inner else edges


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


# a kink candidate closer than this many ulps to an end of its interval is
# not pinned
_PIN_ULPS = 4


def log_panel_rows(lo, hi, per_decade: float, order: int,
                   kinks=()) -> PanelRows:
    """Log-panel rules for f(eta) d(eta) on many intervals [lo[i], hi[i]].

    ``kinks`` is one list shared by every row, or a 2-D array with a row of
    candidates per interval; a candidate is pinned where it falls inside
    its interval by more than _PIN_ULPS ulps of an end (a panel only a few
    ulps wide has no room for its nodes). Each gap between pinned points
    gets ceil(per_decade * decades) panels (at least one), uniform in
    s = ln(eta), and the rule is Gauss-Legendre of ``order`` points per
    panel. Every node lies inside its gap: exp(s) is clamped to the gap's
    ends.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    if not np.all((lo > 0.0) & (lo < hi)):
        raise ValueError("log panels need 0 < lo < hi")
    n = lo.size
    k = np.atleast_2d(np.asarray(kinks, dtype=float))
    k = np.broadcast_to(k, (n, k.shape[1]))
    lo_c, hi_c = lo[:, None], hi[:, None]
    room = _PIN_ULPS * np.finfo(float).eps
    pinned = np.where((lo_c * (1.0 + room) < k) & (k < hi_c * (1.0 - room)),
                      k, np.nan)
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
    # exp(ln a) need not be a: keep every node inside its gap
    eta = np.clip(np.exp(nodes_s), a[seg][:, None], b[seg][:, None]).ravel()
    per_row = np.bincount(row, weights=panels, minlength=n).astype(int)
    starts = order * np.concatenate(([0], np.cumsum(per_row)[:-1]))
    return PanelRows(eta, w_s.ravel() * eta, starts)


# nodes per block of log_panel_blocks: 64 kB per array over them
_BLOCK_NODES = 2 ** 13


def log_panel_blocks(lo, hi, per_decade: float, order: int, kinks=()):
    """``log_panel_rows`` of 1-D arrays ``lo``, ``hi`` in blocks of
    consecutive rows: yields (slice of row indices, PanelRows of those
    rows). A block is one row, or holds at most _BLOCK_NODES nodes by each
    row's bound of ceil(per_decade * decades) + 1 panels plus one per kink
    candidate."""
    k = np.atleast_2d(np.asarray(kinks, dtype=float))
    k = np.broadcast_to(k, (lo.size, k.shape[1]))
    cost = order * (np.ceil(per_decade * np.log10(hi / lo)) + k.shape[1] + 1)
    ends = np.cumsum(cost)
    start = 0
    while start < lo.size:
        budget = ends[start] - cost[start] + _BLOCK_NODES
        stop = max(start + 1, int(np.searchsorted(ends, budget, "right")))
        at = slice(start, stop)
        yield at, log_panel_rows(lo[at], hi[at], per_decade, order, k[at])
        start = stop


# the decade rule: one panel of order _DECADE_ORDER per decade (any gap of
# at most two decades gets one panel at this density), and the embedded
# rule of half the order on the same panels for the error
_DECADE_PER_DECADE = 0.5
_DECADE_ORDER = 24


def decade_increments(fn, hi: float, decades: int) -> tuple[np.ndarray, float]:
    """Per-decade integrals of fn toward 0 over [hi/10^(k+1), hi/10^k].

    Each decade is one row of a batched Gauss-Legendre rule in s = ln r,
    split where it holds one of ``fn.breakpoints`` (when fn has them, as a
    ``DissipationSymbol`` does). fn is called once per rule, on the array
    of all nodes. A row's error is its distance to the order-12 rule on the
    same panels plus the rounding bound of its order-24 sum.

    Returns the increments, nearest decade first, and the sum of their
    error estimates.
    """
    edges = hi * 10.0 ** -np.arange(decades + 1.0)
    kinks = getattr(fn, "breakpoints", ())

    def rule(order):
        rows = log_panel_rows(edges[1:], edges[:-1], _DECADE_PER_DECADE,
                              order, kinks)
        vals = fn(rows.nodes)
        return rows.integrate(vals), rows.integrate(np.abs(vals))

    fine, size = rule(_DECADE_ORDER)
    coarse, _ = rule(_DECADE_ORDER // 2)
    err = np.abs(fine - coarse) + _DECADE_ORDER * np.finfo(float).eps * size
    return fine, float(np.sum(err))


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


def oscillation_resolved_edges(a: float, b: float, freq: float) -> np.ndarray:
    """Panel edges on [a, b] fine enough for GL-16 against cos(freq * r):
    six panels per period, at least 4 and at most 4096."""
    periods = abs(freq) * (b - a) / (2.0 * math.pi)
    n = int(min(4096, max(4, math.ceil(6.0 * periods))))
    return np.linspace(a, b, n + 1)
