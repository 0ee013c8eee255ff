"""Scan pipeline: calibration, baseline, detection, dip fitting.

Monte Carlo rates use the shared seeded generator so every run sees the
same draws; the thresholds leave slack for estimator noise at the chosen
trial counts.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from crosspeak.spectrum import (
    AbscissaKind,
    CalibrationMap,
    NoSolutionError,
    PeakWindow,
    Spectrum,
    analyze_scan,
    calibrate,
    detect_peaks,
    field_for_frequency,
    fit_baseline,
    fit_gaussian,
)

from synth import BASE_LEVEL, DIPS, FIELD_SPAN, make_scan, quartic_envelope

AX_100 = np.array([1.0, 0.0, 0.0])
AX_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)


def flat_noise(rng, n=600, scale=1.0):
    x = np.linspace(0.0, 150.0, n)
    return Spectrum(x, rng.normal(0.0, scale, n), AbscissaKind.FIELD)


def dip_profile(x, center, sigma, depth):
    return -depth * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))


# --------------------------------------------------------------- spectrum

def test_spectrum_validation():
    x = np.linspace(0, 1, 16)
    with pytest.raises(ValueError):
        Spectrum(x[:10], np.zeros(10), AbscissaKind.FIELD)
    with pytest.raises(ValueError):
        Spectrum(x, np.zeros(15), AbscissaKind.FIELD)
    bad = x.copy()
    bad[7] = bad[6]
    with pytest.raises(ValueError):
        Spectrum(bad, np.zeros(16), AbscissaKind.FIELD)


def test_spectrum_flips_descending():
    x = np.linspace(0, 1, 16)
    y = np.arange(16.0)
    s = Spectrum(x[::-1], y, AbscissaKind.FIELD)
    assert s.metadata.get("flipped") is True
    assert np.all(np.diff(s.abscissa) > 0)
    assert s.counts[0] == 15.0
    assert s.span == (0.0, 1.0)


# ------------------------------------------------------------ calibration

def test_calibration_round_trip():
    m = CalibrationMap(np.array([[0.0, 10.0], [1.0, 55.0], [2.5, 130.0]]))
    v = np.linspace(0.0, 2.5, 40)
    assert np.max(np.abs(m.voltage_of(m.field_of(v)) - v)) < 1e-9


def test_calibration_extrapolates_end_segments():
    m = CalibrationMap(np.array([[0.0, 0.0], [1.0, 50.0], [2.0, 120.0]]))
    assert m.field_of(-1.0) == pytest.approx(-50.0)
    assert m.field_of(3.0) == pytest.approx(190.0)


def test_calibration_map_validation():
    with pytest.raises(ValueError):
        CalibrationMap(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        CalibrationMap(np.array([[0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        CalibrationMap(np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 2.0]]))


def test_apply_flags_extrapolated():
    m = CalibrationMap(np.array([[0.2, 10.0], [0.8, 40.0]]))
    x = np.linspace(0.0, 1.0, 32)
    out = m.apply(Spectrum(x, np.ones(32), AbscissaKind.VOLTAGE))
    assert out.kind is AbscissaKind.FIELD
    assert "extrapolated" in out.metadata["calibration_flags"]
    inside = m.apply(Spectrum(np.linspace(0.2, 0.8, 32), np.ones(32), AbscissaKind.VOLTAGE))
    assert "calibration_flags" not in inside.metadata
    with pytest.raises(ValueError):
        m.apply(out)


def test_field_for_frequency_zero_and_axial(nv):
    assert field_for_frequency(nv, AX_100, 2870.0) == 0.0
    ori = nv.orientations()[0]
    axis = ori.symmetry_axis
    b = field_for_frequency(nv, axis, 3150.25, orientation=ori)
    assert abs(b - 100.0) < 1e-5
    b = field_for_frequency(nv, axis, 2729.875, orientation=ori)
    assert abs(b - 50.0) < 1e-5


def test_field_for_frequency_vs_longhand_matrix(nv):
    # independent check: hand-built S=1 matrix on the [100] geometry,
    # root-refined with brentq
    target = 2700.0
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0)
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2.0)
    sz = np.diag([1.0, 0.0, -1.0])
    cos_t = 1.0 / np.sqrt(3.0)
    sin_t = np.sqrt(2.0 / 3.0)

    def lower_minus_target(b):
        h = 2870.0 * sz @ sz + 2.8025 * b * (cos_t * sz + sin_t * sx)
        e = np.linalg.eigvalsh(h)
        return (e[1] - e[0]) - target

    b_ref = brentq(lower_minus_target, 50.0, 150.0, xtol=1e-9)
    b_pkg = field_for_frequency(nv, AX_100, target)
    assert abs(b_pkg - b_ref) < 1e-4
    # same answer with sy standing in for sx (azimuth must not matter)
    def lower_y(b):
        h = 2870.0 * sz @ sz + 2.8025 * b * (cos_t * sz + sin_t * sy)
        return (np.linalg.eigvalsh(h)[1] - np.linalg.eigvalsh(h)[0]) - target

    assert abs(brentq(lower_y, 50.0, 150.0, xtol=1e-9) - b_ref) < 1e-9


def test_field_for_frequency_no_solution(nv):
    with pytest.raises(NoSolutionError):
        field_for_frequency(nv, AX_100, 9999.0, b_max=500.0)


def test_calibrate_100_clean(nv):
    # true map: B = 60 V, fiducials generated through the forward model
    volts = np.array([0.25, 0.75, 1.5])
    x = np.linspace(0.0, 2.0, 64)
    spec = Spectrum(x, np.ones(64), AbscissaKind.VOLTAGE)
    from crosspeak.spin import MagneticField, nv_probe_frequencies

    ori = nv.orientations()[0]
    fids = [
        (v, nv_probe_frequencies(nv, MagneticField(60.0 * v, AX_100), ori)[1])
        for v in volts
    ]
    m = calibrate(spec, fids, nv, AX_100)
    assert m.flags == ()
    assert np.max(np.abs(m.field_of(volts) - 60.0 * volts)) < 1e-4


def test_calibrate_111_flags_class_split(nv):
    # off the [100] axis the four classes disagree at the anchor fields
    from crosspeak.spin import MagneticField, nv_probe_frequencies

    ori = nv.orientations()[0]
    x = np.linspace(0.0, 2.0, 64)
    spec = Spectrum(x, np.ones(64), AbscissaKind.VOLTAGE)
    fids = [
        (v, nv_probe_frequencies(nv, MagneticField(60.0 * v, AX_111), ori)[1])
        for v in (0.5, 1.0)
    ]
    m = calibrate(spec, fids, nv, AX_111)
    assert "class-ambiguous" in m.flags


def test_calibrate_input_validation(nv):
    x = np.linspace(0.0, 1.0, 32)
    field_scan = Spectrum(x, np.ones(32), AbscissaKind.FIELD)
    with pytest.raises(ValueError):
        calibrate(field_scan, [(0.0, 2800.0), (1.0, 2900.0)], nv, AX_100)
    volt_scan = Spectrum(x, np.ones(32), AbscissaKind.VOLTAGE)
    with pytest.raises(ValueError):
        calibrate(volt_scan, [(0.5, 2900.0)], nv, AX_100)


# --------------------------------------------------------------- baseline

def test_baseline_recovers_exact_quartic():
    x = np.linspace(0.0, 145.0, 300)
    coef = np.array([1e6, 120.0, -0.9, 0.004, -1.1e-5])
    y = np.polynomial.polynomial.polyval(x, coef)
    fit = fit_baseline(Spectrum(x, y, AbscissaKind.FIELD))
    assert np.max(np.abs(fit.evaluate(x) - y)) < 1e-9 * np.max(np.abs(y))
    assert fit.rms < 1e-6


def test_baseline_ignores_windowed_dip():
    x = np.linspace(0.0, 145.0, 400)
    y = quartic_envelope(x) + BASE_LEVEL * dip_profile(x, 60.0, 1.2, 0.02)
    fit = fit_baseline(Spectrum(x, y, AbscissaKind.FIELD), [(52.0, 68.0)])
    clean = quartic_envelope(x)
    assert np.max(np.abs(fit.evaluate(x) - clean)) < 1e-6 * BASE_LEVEL


def test_baseline_underdetermined():
    x = np.linspace(0.0, 10.0, 20)
    with pytest.raises(ValueError, match="fewer than 6"):
        fit_baseline(Spectrum(x, np.ones(20), AbscissaKind.FIELD), [(-1.0, 9.0)])


def test_baseline_rms_not_worse_than_low_order(rng):
    x = np.linspace(0.0, 145.0, 350)
    y = quartic_envelope(x) + rng.normal(0.0, 50.0, len(x))
    fit = fit_baseline(Spectrum(x, y, AbscissaKind.FIELD))
    r2 = y - np.polyval(np.polyfit(x, y, 2), x)
    assert fit.rms <= np.sqrt(np.mean(r2**2)) + 1e-9


def test_baseline_noise_estimate_unbiased(rng):
    # mean of rms^2 over trials estimates the injected variance
    x = np.linspace(0.0, 145.0, 200)
    clean = quartic_envelope(x)
    ratios = []
    for _ in range(100):
        y = clean + rng.normal(0.0, 40.0, len(x))
        fit = fit_baseline(Spectrum(x, y, AbscissaKind.FIELD))
        ratios.append(fit.rms**2 / 40.0**2)
    # OLS absorbs 5 degrees of freedom: expect (n-5)/n with sampling slack
    assert 0.9 < np.mean(ratios) < 1.05


def test_baseline_idempotent():
    x = np.linspace(0.0, 145.0, 300)
    y = quartic_envelope(x)
    fit = fit_baseline(Spectrum(x, y, AbscissaKind.FIELD))
    resid = y - fit.evaluate(x)
    fit2 = fit_baseline(Spectrum(x, resid, AbscissaKind.FIELD))
    assert np.max(np.abs(fit2.evaluate(x))) < 1e-9 * np.max(np.abs(y))


# -------------------------------------------------------------- detection

def test_detection_false_positive_rate(rng):
    # the depth + prominence gate holds the flat-noise window rate under
    # 1 percent of scans
    hits = 0
    for _ in range(1000):
        if detect_peaks(flat_noise(rng)):
            hits += 1
    assert hits / 1000.0 < 0.01


def test_detection_finds_three_dips(rng):
    x = np.linspace(0.0, 145.0, 1200)
    r = rng.normal(0.0, 1.0, len(x))
    for center, sigma in ((20.0, 1.0), (56.0, 1.2), (122.0, 1.5)):
        r += dip_profile(x, center, sigma, 12.0)
    windows = detect_peaks(Spectrum(x, r, AbscissaKind.FIELD))
    assert len(windows) == 3
    for w, center in zip(windows, (20.0, 56.0, 122.0)):
        assert w.lo <= center <= w.hi
        assert abs(w.center_guess - center) < 1.0
        assert w.prominence > 5.0


def test_detection_edge_truncation(rng):
    x = np.linspace(0.0, 100.0, 800)
    r = rng.normal(0.0, 1.0, len(x)) + dip_profile(x, 1.5, 1.0, 15.0)
    windows = detect_peaks(Spectrum(x, r, AbscissaKind.FIELD))
    assert len(windows) == 1
    assert "edge-truncated" in windows[0].flags
    assert windows[0].lo >= x[0]


def test_detection_shallow_dip_ignored(rng):
    x = np.linspace(0.0, 100.0, 800)
    r = rng.normal(0.0, 1.0, len(x)) + dip_profile(x, 50.0, 1.5, 2.0)
    assert detect_peaks(Spectrum(x, r, AbscissaKind.FIELD)) == []


# ------------------------------------------------------------ dip fitting

def test_gaussian_fit_noiseless_exact():
    x = np.linspace(0.0, 40.0, 400)
    y = dip_profile(x, 21.3, 1.7, 9.0)
    fit = fit_gaussian(Spectrum(x, y, AbscissaKind.FIELD), (14.0, 28.0))
    assert fit.converged
    assert abs(fit.center - 21.3) < 1e-6
    assert abs(fit.sigma - 1.7) < 1e-6
    assert abs(fit.depth - 9.0) < 1e-6


def test_gaussian_fit_center_error_tracks_reported_sigma(rng):
    x = np.linspace(0.0, 40.0, 500)
    clean = dip_profile(x, 20.0, 1.4, 10.0)
    good = 0
    for _ in range(50):
        y = clean + rng.normal(0.0, 1.0, len(x))
        fit = fit_gaussian(Spectrum(x, y, AbscissaKind.FIELD), (14.0, 26.0))
        if fit.converged and abs(fit.center - 20.0) < 5.0 * fit.center_sigma:
            good += 1
    assert good >= 45


def test_gaussian_fit_two_dips_flagged_poor(rng):
    x = np.linspace(0.0, 40.0, 600)
    y = dip_profile(x, 17.0, 1.0, 12.0) + dip_profile(x, 23.0, 1.0, 12.0)
    y += rng.normal(0.0, 0.05, len(x))
    fit = fit_gaussian(Spectrum(x, y, AbscissaKind.FIELD), (12.0, 28.0))
    assert fit.poor_fit


def test_gaussian_fit_window_too_small():
    x = np.linspace(0.0, 40.0, 40)
    y = dip_profile(x, 20.0, 1.0, 5.0)
    with pytest.raises(ValueError, match="fewer than 7"):
        fit_gaussian(Spectrum(x, y, AbscissaKind.FIELD), (19.0, 21.0))


def test_peak_fit_validation():
    from crosspeak.spectrum import PeakFit

    with pytest.raises(ValueError):
        PeakFit(center=1.0, sigma=-1.0, depth=1.0, covariance=np.eye(3))
    with pytest.raises(ValueError):
        PeakFit(center=1.0, sigma=1.0, depth=1.0, covariance=np.eye(2))


# ------------------------------------------------------------- end-to-end

def test_analyze_scan_field_input(rng):
    b, counts = make_scan(rng)
    report = analyze_scan(Spectrum(b, counts, AbscissaKind.FIELD))
    assert report.calibration is None
    assert len(report.peaks) == 3
    for peak, (center, _, sigma) in zip(report.peaks, DIPS):
        assert peak.converged
        assert abs(peak.center - center) < 3.0 * max(peak.center_sigma, 0.02)
        assert abs(peak.sigma - sigma) < 0.3
        assert 0.004 < peak.contrast < 0.02
    assert report.baseline.rms < 2.0 * np.sqrt(BASE_LEVEL)


def test_analyze_scan_voltage_input(rng, nv):
    from crosspeak.spin import MagneticField, nv_probe_frequencies

    b, counts = make_scan(rng)
    volts = b / 140.0  # linear drive: 140 G per volt
    ori = nv.orientations()[0]
    fids = [
        (v, nv_probe_frequencies(nv, MagneticField(140.0 * v, AX_100), ori)[1])
        for v in (0.2, 0.6, 1.0)
    ]
    report = analyze_scan(
        Spectrum(volts, counts, AbscissaKind.VOLTAGE), fids, nv, AX_100
    )
    assert report.calibration is not None
    assert report.spectrum.kind is AbscissaKind.FIELD
    assert len(report.peaks) == 3
    for peak, (center, _, _) in zip(report.peaks, DIPS):
        assert abs(peak.center - center) < 0.5


def test_analyze_scan_voltage_needs_fiducials(rng):
    b, counts = make_scan(rng)
    with pytest.raises(ValueError, match="fiducials"):
        analyze_scan(Spectrum(b / 140.0, counts, AbscissaKind.VOLTAGE))


def test_analyze_scan_explicit_windows(rng):
    b, counts = make_scan(rng)
    report = analyze_scan(
        Spectrum(b, counts, AbscissaKind.FIELD),
        windows=[(16.0, 24.0), (52.0, 60.0), (117.0, 127.0)],
    )
    assert [w.bounds for w in report.windows] != []
    assert len(report.peaks) == 3


def test_floor_width_window_keeps_seven_samples():
    # a window at the width floor spans +-3 samples; rounding of its
    # bounds must not leave fewer than 7 for the fit
    x = np.linspace(0.0, 145.0, 1200)
    dx = float(np.mean(np.diff(x)))
    y = dip_profile(x, x[600], 0.3 * dx, 5.0)
    window = PeakWindow(x[600] - 3 * dx * (1 + 1e-12), x[600] + 3 * dx * (1 - 1e-12),
                        float(x[600]), dx, 5.0)
    assert np.count_nonzero((x >= window.lo) & (x <= window.hi)) < 7
    fit = fit_gaussian(Spectrum(x, y, AbscissaKind.FIELD), window)
    assert abs(fit.center - x[600]) < dx


def test_voltage_scan_with_narrow_noise_candidate(nv):
    # A 1,200-point voltage scan whose baseline residual has a noise
    # wiggle inside the third dip that is detected, at threshold 5, as a
    # window at the width floor; float rounding of that window's bounds
    # used to drop both end samples and abort the scan with "window holds
    # fewer than 7 points".
    rng = np.random.default_rng([7, 4431])
    offset, slope = rng.uniform(-2.0, 2.0), rng.uniform(18.0, 24.0)
    dips = [(rng.uniform(lo, hi), depth, sigma) for (lo, hi), (depth, sigma) in zip(
        ((18.0, 30.0), (45.0, 75.0), (95.0, 128.0)),
        ((0.015, 1.0), (0.012, 1.2), (0.010, 1.5)))]
    rng.uniform(0.2, 1.8, size=4)  # the fiducial draws, fixed below
    volts = np.linspace(-offset / slope, (145.0 - offset) / slope, 1200)
    b = offset + slope * volts
    u = b / 145.0
    model = 1.0e6 * (1.0 + 0.02 * u - 0.015 * u**2 + 0.004 * u**4)
    for center, depth, sigma in dips:
        model *= 1.0 - depth * np.exp(-((b - center) ** 2) / (2 * sigma**2))
    counts = rng.poisson(model).astype(float)
    fiducials = [
        (0.46134448418643786, 2887.1685415396364),
        (2.375215824538673, 2960.2189341300245),
        (4.2624890457402165, 3041.0433375674465),
        (6.128083759837629, 3129.329029148267),
    ]
    report = analyze_scan(
        Spectrum(volts, counts, AbscissaKind.VOLTAGE), fiducials, nv, AX_100, k=5.0
    )
    def matches(peak):
        return any(abs(peak.center - c) < sigma / 5.0 for c, _, sigma in dips)

    for center, _, sigma in dips:
        assert any(abs(p.center - center) < sigma / 5.0 for p in report.peaks)
    # a reported dip that is none of the true ones must carry a flag
    assert all(p.flags for p in report.peaks if not matches(p))
