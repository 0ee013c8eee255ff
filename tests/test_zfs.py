"""Dip-position inversion to the target defect's zero-field splitting."""

import numpy as np
import pytest

from crosspeak.crossings import SweepSpec, find_crossings, sweep_curves
from crosspeak.spectrum import NoSolutionError, PeakFit
from crosspeak.zfs import ZfsEstimate, infer_zfs

AX_100 = np.array([1.0, 0.0, 0.0])


def crossing_field(nv, other, b_min=15.0, b_max=250.0):
    sweep = SweepSpec(axis=AX_100, b_min=b_min, b_max=b_max, step=0.5)
    events = find_crossings(sweep_curves(nv, sweep), sweep_curves(other, sweep))
    assert len(events) == 1
    return events[0].B_star


def test_round_trip_vh(nv, vh):
    b_star = crossing_field(nv, vh)
    est = infer_zfs(
        b_star, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv, nv_d_sigma=0.0
    )
    assert abs(est.D - 2694.0) < 0.05
    assert est.sigma_D == 0.0


def test_round_trip_war1(nv, war1):
    b_star = crossing_field(nv, war1)
    est = infer_zfs(b_star, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv)
    assert abs(est.D - 2470.0) < 0.05


def test_round_trip_random_targets(nv, rng):
    # forward crossing then inversion for targets across the search range
    from crosspeak.spin import SpinSpecies

    for d_true in rng.uniform(2450.0, 2850.0, size=5):
        target = SpinSpecies(name="t", S=1.0, D=float(d_true))
        b_star = crossing_field(nv, target, b_min=2.0)
        est = infer_zfs(b_star, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv)
        assert abs(est.D - d_true) < 0.05


def test_quadrature_combination():
    est = ZfsEstimate.combine(2694.0, {"a": 3.0, "b": 4.0})
    assert est.sigma_D == pytest.approx(5.0)
    assert est.contributions == {"a": 3.0, "b": 4.0}


def test_budget_scales_with_inputs(nv, vh):
    b_star = crossing_field(nv, vh)
    full = infer_zfs(
        b_star, cal_uncertainty=1.0, angle_uncertainty=0.5, nv=nv, fit_sigma=1.0
    )
    assert set(full.contributions) == {"fit", "calibration", "angle", "nv_reference"}
    assert all(v > 0 for v in full.contributions.values())
    # removing any one source must shrink the combined sigma
    for kw in (
        dict(cal_uncertainty=0.0, angle_uncertainty=0.5, fit_sigma=1.0),
        dict(cal_uncertainty=1.0, angle_uncertainty=0.0, fit_sigma=1.0),
        dict(cal_uncertainty=1.0, angle_uncertainty=0.5, fit_sigma=0.0),
    ):
        reduced = infer_zfs(b_star, nv=nv, **kw)
        assert reduced.sigma_D < full.sigma_D
    expect = np.sqrt(sum(v * v for v in full.contributions.values()))
    assert full.sigma_D == pytest.approx(expect)


def test_budget_few_mhz_scale(nv, vh):
    # with gauss-level field knowledge and half-degree alignment the
    # total uncertainty lands at a few MHz
    b_star = crossing_field(nv, vh)
    est = infer_zfs(
        b_star, cal_uncertainty=1.0, angle_uncertainty=0.5, nv=nv, fit_sigma=1.0
    )
    assert abs(est.D - 2694.0) < 0.1
    assert 2.0 < est.sigma_D < 10.0


def test_fit_sigma_from_peak_object(nv, vh):
    b_star = crossing_field(nv, vh)
    cov = np.zeros((3, 3))
    cov[0, 0] = 0.8**2
    peak = PeakFit(center=b_star, sigma=1.0, depth=5.0, covariance=cov)
    est = infer_zfs(peak, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv)
    explicit = infer_zfs(
        b_star, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv, fit_sigma=0.8
    )
    assert est.contributions["fit"] == pytest.approx(
        explicit.contributions["fit"], rel=1e-9
    )
    assert est.contributions["fit"] > 0


def test_no_solution_out_of_range(nv):
    with pytest.raises(NoSolutionError, match="no D in"):
        infer_zfs(999.0, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv)


def test_unknown_branch_label(nv):
    with pytest.raises(ValueError, match="unknown probe branch"):
        infer_zfs(
            50.0, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv,
            assumed_crossing=("ms=0>ms=-1", "ms=-1>ms=+1"),
        )


def test_inversion_monotone_in_field(nv):
    # later crossing of the same branch pair means the target started
    # further below the NV line
    d_at = [
        infer_zfs(b, cal_uncertainty=0.0, angle_uncertainty=0.0, nv=nv).D
        for b in (40.0, 60.0, 80.0)
    ]
    assert d_at[0] > d_at[1] > d_at[2]


def test_full_budget_is_a_few_stacked_solves(nv, monkeypatch):
    # every inversion of the budget is bisected together: no single-matrix
    # eigensolve, and one stacked solve per bisection step plus the ends
    from crosspeak import kernels

    calls = {"eigh": 0, "eigh_stack": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "eigh", counted("eigh", kernels.eigh))
    monkeypatch.setattr(kernels, "eigh_stack", counted("eigh_stack", kernels.eigh_stack))
    est = infer_zfs(54.2522, cal_uncertainty=1.0, angle_uncertainty=0.5, nv=nv,
                    fit_sigma=1.0)
    assert all(v > 0 for v in est.contributions.values())
    assert calls["eigh"] == 0
    assert 0 < calls["eigh_stack"] <= 25


def test_rejects_non_finite_or_negative_inputs(nv):
    good = dict(cal_uncertainty=1.0, angle_uncertainty=0.5, nv=nv, fit_sigma=1.0)
    for center in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="center must be finite"):
            infer_zfs(center, **good)
    for name in ("cal_uncertainty", "angle_uncertainty", "fit_sigma", "nv_d_sigma"):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                infer_zfs(54.2522, **{**good, name: bad})
