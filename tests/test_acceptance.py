"""Acceptance gate: the ten headline behaviours, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per criterion.  Stated runtime budgets are asserted with
wall-clock checks around the computation under test.
"""

import time

import numpy as np
import pytest

from crosspeak import kernels
from crosspeak.crossings import (
    SweepSpec,
    find_crossings,
    p1_three_body_fields,
    sweep_curves,
)
from crosspeak.angular import AngleGrid, _probe_freq_grid, plane_loci, simulate_map
from crosspeak.spectrum import AbscissaKind, Spectrum, analyze_scan
from crosspeak.spin import SpinSpecies, hamiltonian_parts
from crosspeak.zfs import infer_zfs

from oracles import eigvals_charpoly
from synth import DIPS, make_scan

AX_100 = np.array([1.0, 0.0, 0.0])
AX_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

P1_REFERENCE_FIELDS = [0.0, 3.89, 5.96, 6.58, 17.90, 28.93, 35.87, 49.44,
                       81.33, 83.28, 137.52, 154.20, 246.34]


def single_crossing(nv, other, budget_s):
    t0 = time.perf_counter()
    sweep = SweepSpec(axis=AX_100, b_min=15.0, b_max=145.0, step=0.1)
    events = find_crossings(sweep_curves(nv, sweep), sweep_curves(other, sweep))
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.2f} s over budget {budget_s} s"
    return events


def test_criterion_01_vh_crossing_near_56G(nv, vh):
    events = single_crossing(nv, vh, budget_s=1.0)
    assert len(events) == 1
    assert abs(events[0].B_star - 56.0) <= 2.0


def test_criterion_02_war1_crossing_near_122G(nv, war1):
    events = single_crossing(nv, war1, budget_s=1.0)
    assert len(events) == 1
    assert abs(events[0].B_star - 122.0) <= 2.0


def test_criterion_03_nv13c_cluster_around_20G(nv, nv13c):
    t0 = time.perf_counter()
    sweep = SweepSpec(axis=AX_100, b_min=0.0, b_max=60.0, step=0.1)
    events = find_crossings(sweep_curves(nv, sweep), sweep_curves(nv13c, sweep))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f} s over budget 5 s"
    assert len(events) == 4
    for e in events:
        assert 14.0 <= e.B_star <= 26.0
    assert len({e.transition_b for e in events}) == 4


def test_criterion_04_p1_three_body_field_list(nv, p1):
    t0 = time.perf_counter()
    sweep = SweepSpec(axis=AX_100, b_min=0.0, b_max=250.0, step=0.1)
    events = p1_three_body_fields(nv, p1, sweep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f} s over budget 10 s"
    fields = np.array(sorted({e.B_star for e in events}))
    residuals = {
        ref: float(np.min(np.abs(fields - ref))) for ref in P1_REFERENCE_FIELDS
    }
    # every reference field within 0.5 G; the worst residual is 0.381 G (246.34 G)
    matched = sum(1 for r in residuals.values() if r < 0.5)
    table = ", ".join(f"{k:g} G -> {v:+.4f}" for k, v in residuals.items())
    assert matched == 13, f"only {matched}/13 reference fields matched: {table}"


def test_criterion_05_inversion_round_trip(nv):
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    sweep = SweepSpec(axis=AX_100, b_min=5.0, b_max=200.0, step=0.5)
    nv_curves = sweep_curves(nv, sweep)
    worst = 0.0
    for d_true in rng.uniform(2400.0, 2800.0, size=50):
        target = SpinSpecies(name="target", S=1.0, D=float(d_true))
        events = find_crossings(nv_curves, sweep_curves(target, sweep))
        assert len(events) == 1
        est = infer_zfs(
            events[0].B_star, cal_uncertainty=0.0, angle_uncertainty=0.0,
            nv=nv, nv_d_sigma=0.0,
        )
        worst = max(worst, abs(est.D - d_true))
    elapsed = time.perf_counter() - t0
    assert worst < 0.05, f"worst round-trip error {worst:.4f} MHz"
    assert elapsed < 30.0, f"runtime {elapsed:.2f} s over budget 30 s"


def test_criterion_06_error_budget_scale(nv, vh, war1):
    # gauss-level calibration and fit knowledge, half-degree alignment
    for other, d_ref, sigma_ref in ((vh, 2694.0, 5.0), (war1, 2470.0, 10.0)):
        events = single_crossing(nv, other, budget_s=5.0)
        est = infer_zfs(
            events[0].B_star, cal_uncertainty=1.0, angle_uncertainty=0.5,
            nv=nv, fit_sigma=1.0,
        )
        assert abs(est.D - d_ref) < 1.0
        assert sigma_ref / 2.0 <= est.sigma_D <= sigma_ref * 2.0, (
            f"{other.name}: sigma_D {est.sigma_D:.2f} MHz vs quoted {sigma_ref}"
        )


def test_criterion_07_pipeline_recovery_rates():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    n_trials = 500
    detected_all = 0
    within = 0
    converged = 0
    for _ in range(n_trials):
        b, counts = make_scan(rng)
        report = analyze_scan(Spectrum(b, counts, AbscissaKind.FIELD))
        hits = {}
        for center, _, sigma in DIPS:
            for w, peak in zip(report.windows, report.peaks):
                if w.lo <= center <= w.hi:
                    hits[center] = (peak, sigma)
                    break
        if len(hits) == 3:
            detected_all += 1
        for center, (peak, sigma) in hits.items():
            if peak.converged:
                converged += 1
                if abs(peak.center - center) < sigma / 5.0:
                    within += 1
    elapsed = time.perf_counter() - t0
    detect_rate = detected_all / n_trials
    fit_rate = within / max(converged, 1)
    assert elapsed < 120.0, f"runtime {elapsed:.1f} s over budget 120 s"
    assert detect_rate >= 0.95, f"all-three detection rate {detect_rate:.3f}"
    assert fit_rate >= 0.95, f"center-within-sigma/5 rate {fit_rate:.3f}"


def test_criterion_08_angular_map_geometry(nv):
    t0 = time.perf_counter()
    grid = AngleGrid(phi_max=20.0, theta_max=20.0, n_phi=101, n_theta=101)
    deg_map = simulate_map(grid, 115.0, nv)
    pl = deg_map.pl_proxy
    i, j = np.unravel_index(np.argmin(pl), pl.shape)
    assert grid.phis[i] == 0.0 and grid.thetas[j] == 0.0

    # ridge extraction: line-scan local minima, checked both ways
    # against the analytic planes.  Within ~1 deg of the axis the four
    # ridges sit closer than the Lorentzian blur and merge into one
    # minimum, so coverage is asserted outside that core.
    loci = plane_loci(grid)
    cell = grid.phis[1] - grid.phis[0]
    core = 2.0  # deg

    def local_min_indices(values):
        v0, v1, v2 = values[:-2], values[1:-1], values[2:]
        keep = (v1 <= v0) & (v1 <= v2) & ((v1 < v0) | (v1 < v2))
        return np.flatnonzero(keep) + 1

    def plane_residuals(phi, theta):
        curve = np.rad2deg(np.arctan(np.sin(np.deg2rad(theta))))
        return {
            "010": theta,
            "001": phi,
            "011": phi - curve,
            "01-1": phi + curve,
        }

    # every extracted ridge point lies on some analytic plane
    for jj in range(grid.n_theta):
        for ii in local_min_indices(pl[:, jj]):
            res = plane_residuals(grid.phis[ii], grid.thetas[jj])
            assert min(abs(r) for r in res.values()) <= cell + 1e-9, (
                f"spurious ridge at ({grid.phis[ii]:.1f}, {grid.thetas[jj]:.1f})"
            )
    for ii in range(grid.n_phi):
        for jj in local_min_indices(pl[ii, :]):
            res = plane_residuals(grid.phis[ii], grid.thetas[jj])
            assert min(abs(r) for r in res.values()) <= cell + 1e-9, (
                f"spurious ridge at ({grid.phis[ii]:.1f}, {grid.thetas[jj]:.1f})"
            )

    # and every plane is traced by ridge points outside the merged core
    for name in ("001", "011", "01-1"):
        for jj in np.flatnonzero(np.abs(grid.thetas) >= core):
            phi_ref = loci[name][jj, 0]
            mins = grid.phis[local_min_indices(pl[:, jj])]
            assert np.min(np.abs(mins - phi_ref)) <= cell + 1e-9, (
                f"plane {name} at theta={grid.thetas[jj]:.1f}: no ridge "
                f"minimum within one cell of phi={phi_ref:.2f}"
            )
    for ii in np.flatnonzero(np.abs(grid.phis) >= core):
        mins = grid.thetas[local_min_indices(pl[ii, :])]
        assert np.min(np.abs(mins - 0.0)) <= cell + 1e-9, (
            f"plane 010 at phi={grid.phis[ii]:.1f}: no ridge minimum "
            "within one cell of theta=0"
        )

    # ODMR lines at phi, theta in {-3, 0, 3} deg; closer than 0.1 MHz is one line
    f = np.sort(_probe_freq_grid(nv, AngleGrid(3.0, 3.0, 3, 3), 115.0).reshape(3, 3, 8))
    breaks = np.diff(f) > 0.1
    assert np.count_nonzero(breaks[1, 1]) + 1 == 2
    lines_33 = np.split(f[2, 2], np.flatnonzero(breaks[2, 2]) + 1)
    assert sum(1 for line in lines_33 if len(line) == 2) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s over budget 60 s"


def test_criterion_09_oracle_equivalence(catalog):
    rng = np.random.default_rng(1234)
    species_list = list(catalog.values())
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        species = species_list[rng.integers(len(species_list))]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        amplitude = float(rng.uniform(0.0, 300.0))
        orientation = species.orientations()[rng.integers(4)]
        h0, h1 = hamiltonian_parts(species, axis, orientation)
        h = h0 + amplitude * h1
        vals, _ = kernels.eigh(h)
        oracle = eigvals_charpoly(h)
        err = np.max(np.abs(vals - oracle) / np.maximum(1.0, np.abs(oracle)))
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"worst relative eigenvalue deviation {worst:.2e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s over budget 60 s"


def test_criterion_10_111_multiplicity_regression(nv, vh, war1):
    counts = {}
    for axis_name, axis in (("100", AX_100), ("111", AX_111)):
        sweep = SweepSpec(axis=axis, b_min=15.0, b_max=250.0, step=0.1)
        nv_curves = sweep_curves(nv, sweep)
        for other in (vh, war1):
            events = find_crossings(nv_curves, sweep_curves(other, sweep))
            counts[(axis_name, other.name)] = len(events)
    assert counts[("100", "VH-")] == 1
    assert counts[("100", "WAR1")] == 1
    assert counts[("111", "VH-")] >= 4 * counts[("100", "VH-")], counts
    assert counts[("111", "WAR1")] >= 4 * counts[("100", "WAR1")], counts
