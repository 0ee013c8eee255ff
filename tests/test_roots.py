"""Stacked bracket-and-bisect and stacked probe frequencies against the
scalar loops they replace: equal bit for bit, since the arithmetic per
row is unchanged."""

import numpy as np
import pytest

from crosspeak.roots import bisect, first_crossing
from crosspeak.spin import (
    Orientation,
    SpinSpecies,
    hamiltonian_parts,
    nv_probe_frequencies,
    probe_frequencies,
)


def scalar_bisect(gap, lo, hi, tol):
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo < 0) == (g_hi < 0):
        return float("nan")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (gap(mid) < 0) == (g_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bisect_matches_scalar_loop(rng):
    n = 64
    roots = rng.uniform(-3.0, 3.0, n)
    scale = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    lo, hi = rng.uniform(-4.0, -1.0, n), rng.uniform(1.0, 4.0, n)
    tol = 10.0 ** rng.integers(-9, 1, n)
    # exact zeros at either end, a bracket already narrower than tol, and
    # one without a sign change
    roots[0], roots[1] = lo[0], hi[1]
    lo[2], hi[2] = roots[2] - 1e-12, roots[2] + 1e-12
    roots[3] = hi[3] + 1.0

    def gap_of(i):
        return lambda x: scale[i] * (x - roots[i]) ** 3

    def gap(x, rows):
        return scale[rows] * (x - roots[rows]) ** 3

    g_lo = np.array([gap_of(i)(lo[i]) for i in range(n)])
    g_hi = np.array([gap_of(i)(hi[i]) for i in range(n)])
    expected = [scalar_bisect(gap_of(i), lo[i], hi[i], tol[i]) for i in range(n)]
    # bisect takes one tolerance; solve each tolerance class together
    got = np.empty(n)
    for t in np.unique(tol):
        rows = np.flatnonzero(tol == t)
        got[rows] = bisect(lambda x, r: gap(x, rows[r]), lo[rows], hi[rows],
                           g_lo[rows], g_hi[rows], t)
    assert np.array_equal(got, expected, equal_nan=True)
    assert got[0] == lo[0] and got[1] == hi[1] and np.isnan(got[3])


def test_first_crossing_matches_loop(rng):
    g = rng.normal(size=(40, 12))
    g[3, 5] = 0.0
    g[7] = np.abs(g[7]) + 0.1  # no sign change
    for row, k in zip(g, first_crossing(g)):
        expected = next((j for j in range(1, len(row))
                         if row[j] == 0 or (row[j] < 0) != (row[0] < 0)), 0)
        assert k == expected


def test_probe_frequencies_equal_single_matrix_solves(catalog, rng):
    species = [catalog[name] for name in ("NV", "VH-", "WAR1")]
    species.append(SpinSpecies(name="rhombic", S=1.0, D=2500.0, E=37.5, gamma_e=2.79))
    for sp in species:
        axes = rng.normal(size=(5, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        axis = axes[0]
        for ori in [*Orientation.all_classes(), Orientation.lab()]:
            fields = np.concatenate([[0.0], rng.uniform(0.0, 300.0, 9)])
            h0, h1 = hamiltonian_parts(sp, axis, ori)
            lower, upper = probe_frequencies(sp.D, sp.E, fields, h1[None])
            for b, lo, hi in zip(fields, lower, upper):
                vals = np.linalg.eigvalsh(h0 + b * h1)
                assert (lo, hi) == (vals[1] - vals[0], vals[2] - vals[0])
                assert (lo, hi) == nv_probe_frequencies(sp, b, axis, ori)
                # a stack of axes answers row for row as the single axes do
                stacked = nv_probe_frequencies(sp, b, axes, ori)
                assert all(s.shape == (len(axes),) for s in stacked)
                singles = [nv_probe_frequencies(sp, b, a, ori) for a in axes]
                assert np.array_equal(np.transpose(stacked), singles)


def test_hamiltonian_parts_stack_equals_single_axis_builds(catalog, rng):
    axes = rng.normal(size=(40, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    for sp in catalog.values():
        for ori in [*sp.orientations(), Orientation.lab()]:
            h0, stack = hamiltonian_parts(sp, axes, ori)
            assert stack.shape == (len(axes), sp.dim, sp.dim)
            for axis, row in zip(axes, stack):
                h0_k, h1_k = hamiltonian_parts(sp, axis, ori)
                assert np.array_equal(row, h1_k)
                assert np.array_equal(h0, h0_k)


def test_probe_frequencies_reject_other_than_bare_s1(catalog):
    for name in ("P1", "NV-13C"):
        h1 = hamiltonian_parts(catalog[name], np.array([1.0, 0.0, 0.0]),
                               Orientation.nv_class(1))[1]
        with pytest.raises(ValueError, match="bare S=1"):
            probe_frequencies(2870.0, 0.0, 10.0, h1[None])
