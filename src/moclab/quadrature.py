"""Shared quadrature helpers: vectorized composite Gauss-Legendre panels.

The conventions used throughout the package:

* singular endpoints are handled by one log-panel rule (``log_panel_rows``):
  Gauss-Legendre on panels uniform in s = ln r, on which power-law
  integrands are smooth, with every kink of the integrand pinned as an edge;
* every log-panel integral is one ``log_panel_integrals`` call over many
  intervals: the integrand is evaluated per block of at most
  ``_BLOCK_NODES`` nodes and each interval's row summed on its own, so a
  row's value does not depend on its block;
* every numerical value that feeds a pass/fail decision carries an error
  estimate alongside it;
* convergence of an integral toward an endpoint is read from the trailing
  ratios of its per-decade increments (``decade_increments`` builds them,
  ``classify_decades`` reads them, ``decade_sum`` closes a convergent sum),
  each caller with its own thresholds; a tail to infinity is read through
  r = R/u toward u = 0;
* every root without a closed form is found by one solver, ``brentq``:
  scipy's Brent iteration run elementwise over an array of brackets,
  bitwise scipy's per element (a power symbol's crossover scale is closed
  form and solves nothing).
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


# nodes per block of log_panel_integrals: 64 kB per array over them
_BLOCK_NODES = 2 ** 13


def log_panel_integrals(f, lo, hi, per_decade: float, order: int, kinks,
                        *per_row):
    """Integrals of f over the windows [lo[i], hi[i]] on the log-panel rule.

    ``lo``, ``hi`` and each ``per_row`` array broadcast to one value per
    window. f is called once per block of consecutive windows (one window,
    or at most _BLOCK_NODES nodes by each window's bound of
    ceil(per_decade * decades) + 1 panels plus one per kink candidate) on
    its nodes and its ``per_row`` values spread onto them. f returns an
    array, or a tuple of arrays for several integrals on the same nodes,
    and so does this, each window summed on its own. A window with
    lo == hi integrates to 0; when every window is empty f gets empty arrays.
    """
    lo, hi, *per_row = np.broadcast_arrays(*map(np.atleast_1d,
                                                (lo, hi) + per_row))
    k = np.atleast_2d(np.asarray(kinks, dtype=float))
    k = np.broadcast_to(k, (lo.size, k.shape[1]))
    live = np.flatnonzero(lo != hi)
    if not np.all((lo[live] > 0.0) & (lo[live] < hi[live])):
        raise ValueError("log panels need 0 < lo <= hi")
    cost = order * (np.ceil(per_decade * np.log10(hi[live] / lo[live]))
                    + k.shape[1] + 1)
    ends = np.cumsum(cost)
    stops = [0]
    while (start := stops[-1]) < live.size:
        budget = ends[start] - cost[start] + _BLOCK_NODES
        stops.append(max(start + 1, int(np.searchsorted(ends, budget,
                                                        "right"))))
    sums = None
    for i in np.split(live, stops[1:-1]):
        rows = (log_panel_rows(lo[i], hi[i], per_decade, order, k[i])
                if i.size else PanelRows(lo[i], lo[i], i))
        vals = f(rows.nodes, *(rows.spread(p[i]) for p in per_row))
        many = isinstance(vals, tuple)
        vals = vals if many else (vals,)
        if sums is None:
            sums = [np.zeros(lo.shape) for _ in vals]
        for total, v in zip(sums, vals):
            total[i] = rows.integrate(v)
    return tuple(sums) if many else sums[0]


# the decade rule: one panel of order _DECADE_ORDER per decade (any gap of
# at most two decades gets one panel at this density), and the embedded
# rule of half the order on the same panels for the error
_DECADE_PER_DECADE = 0.5
_DECADE_ORDER = 24


def decade_increments(fn, hi: float, decades: int) -> tuple[np.ndarray, float]:
    """Per-decade integrals of fn toward 0 over [hi/10^(k+1), hi/10^k].

    Each decade is one row of a batched Gauss-Legendre rule in s = ln r,
    split where it holds one of ``fn.breakpoints`` (when fn has them, as a
    ``DissipationSymbol`` does). fn is called per block of each rule. A
    row's error is its distance to the order-12 rule on the same panels
    plus the rounding bound of its order-24 sum.

    Returns the increments, nearest decade first, and the sum of their
    error estimates.
    """
    edges = hi * 10.0 ** -np.arange(decades + 1.0)
    kinks = getattr(fn, "breakpoints", ())

    def both(r):
        vals = fn(r)
        return vals, np.abs(vals)

    (fine, size), (coarse, _) = (
        log_panel_integrals(both, edges[1:], edges[:-1], _DECADE_PER_DECADE,
                            order, kinks)
        for order in (_DECADE_ORDER, _DECADE_ORDER // 2))
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


def decade_sum(increments, ratios) -> tuple[float, float]:
    """(sum, remainder) of convergent increments: the remainder continues
    the last at the largest of ``classify_decades``'s ratios (none: 0)."""
    r = float(np.max(ratios, initial=0.0))
    return (float(np.sum(increments)),
            float(np.asarray(increments)[-1]) * r / (1.0 - r))


# scipy.optimize.brentq's iteration cap
_BRENT_MAXITER = 100


def brentq(f, lo, hi, xtol: float, rtol: float) -> np.ndarray:
    """scipy.optimize.brentq run elementwise over the brackets [lo, hi].

    ``f(x, i)`` evaluates the function of element ``i[j]`` at ``x[j]``.
    Each branch of scipy's Zeros/brentq.c iteration is a per-lane
    ``np.where`` and converged lanes drop out, so an element's root and
    the x of its f calls are scipy's bitwise. Refuses as scipy does (ends
    of one sign or a NaN value of f raise ValueError); NaN where scipy's
    100 iterations run out. Empty brackets make no call of f.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out = np.full(lo.size, np.nan)
    if not lo.size:
        return out

    def value(x, i):
        fx = f(x, i)
        nan = np.flatnonzero(np.isnan(fx))
        if nan.size:
            raise ValueError(f"The function value at x={float(x[nan[0]])} "
                             "is NaN; solver cannot continue.")
        return fx

    every = np.arange(lo.size)
    fpre = value(lo, every)
    fcur = value(hi, every)
    out = np.where(fpre == 0.0, lo, np.where(fcur == 0.0, hi, out))
    live = np.flatnonzero((fpre != 0.0) & (fcur != 0.0))
    xpre, xcur, fpre, fcur = lo[live], hi[live], fpre[live], fcur[live]
    if np.any(np.signbit(fpre) == np.signbit(fcur)):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = np.zeros(live.size)
    for _ in range(_BRENT_MAXITER):
        new = (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        step = xcur - xpre
        xblk, fblk, spre, scur = np.where(new, [xpre, fpre, step, step],
                                          [xblk, fblk, spre, scur])
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk, fpre, fcur, fblk = np.where(
            swap, [xcur, xblk, xcur, fcur, fblk, fcur],
            [xpre, xcur, xblk, fpre, fcur, fblk])
        delta = (xtol + rtol * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if np.count_nonzero(done):
            out[live[done]] = xcur[done]
            keep = ~done
            (live, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (v[keep] for v in (live, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
        if not live.size:
            break
        with np.errstate(all="ignore"):  # lanes that take another branch
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk,
                            -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
        cap = 3.0 * np.abs(sbis) - delta
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2.0 * np.abs(stry)
                    < np.where(np.abs(spre) < cap, np.abs(spre), cap)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0.0, delta, -delta))
        fcur = value(xcur, live)
    return out
