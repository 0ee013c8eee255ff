"""Stacked bracket-and-bisect root finding.

Many independent scalar gaps are solved together: every bisection step
evaluates the midpoints of all open brackets in one call, so a caller
can answer it with one stacked eigensolve instead of one per bracket.
Row for row the arithmetic is that of the scalar loop

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (gap(mid) < 0) == (g_lo < 0): lo = mid
        else: hi = mid
    return 0.5 * (lo + hi)

so the roots are bit-identical to solving each bracket on its own.
"""

from __future__ import annotations

import numpy as np


def first_crossing(g) -> np.ndarray:
    """Per row of ``g`` (n, m), sampled on a common ascending grid: the
    first column k >= 1 where g is exactly zero or its sign (g < 0)
    differs from column 0; 0 where there is none."""
    g = np.asarray(g, dtype=float)
    hit = np.zeros(g.shape, dtype=bool)
    hit[:, 1:] = (g[:, 1:] == 0) | ((g[:, 1:] < 0) != (g[:, :1] < 0))
    return np.argmax(hit, axis=1)


def bisect(gap, lo, hi, g_lo, g_hi, tol: float) -> np.ndarray:
    """Roots of n scalar gaps, each bracketed by [lo, hi].

    ``gap(x, rows)`` evaluates the gaps of the given rows at the points x
    (two 1-d arrays of equal length) in one call.  An exact zero at an
    end returns that end, lo first; a bracket whose ends share a sign
    returns NaN; any other bracket is halved, keeping the end whose sign
    matches g_lo, until hi - lo <= tol, and its midpoint is returned.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    g_lo = np.asarray(g_lo, dtype=float)
    g_hi = np.asarray(g_hi, dtype=float)
    neg = g_lo < 0
    root = np.full(lo.shape, np.nan)
    at_lo = g_lo == 0
    at_hi = ~at_lo & (g_hi == 0)
    root[at_lo] = lo[at_lo]
    root[at_hi] = hi[at_hi]
    bracketed = ~at_lo & ~at_hi & (neg != (g_hi < 0))
    rows = np.flatnonzero(bracketed & (hi - lo > tol))
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        keep_lo = (np.asarray(gap(mid, rows)) < 0) == neg[rows]
        lo[rows] = np.where(keep_lo, mid, lo[rows])
        hi[rows] = np.where(keep_lo, hi[rows], mid)
        rows = rows[hi[rows] - lo[rows] > tol]
    root[bracketed] = 0.5 * (lo[bracketed] + hi[bracketed])
    return root
