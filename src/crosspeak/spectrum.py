"""PL-scan analysis: calibration, baseline removal, dip detection, fitting.

The pipeline mirrors the measurement chain: a raw photoluminescence scan
arrives against coil voltage, microwave fiducials pin the voltage-to-field
map, a 4th-order polynomial models the slowly varying PL envelope, and
the cross-relaxation dips left in the residual are detected and fitted
with Gaussians.  Fields in gauss, frequencies in MHz throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np
from numpy.polynomial import Polynomial

from .roots import bisect, first_crossing
from .spin import SpinSpecies, _unit, hamiltonian_parts, probe_frequencies

# robust sigma from the median absolute deviation of a normal sample
MAD_SIGMA = 1.4826
DETECT_K = 5.0
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
# z-score of the residual runs test below which a fit is flagged as poor
RUNS_Z_POOR = -3.0
# fewest samples a Gaussian dip fit takes (three parameters)
MIN_FIT_POINTS = 7
# probe-field inversion: bracketing scan step and the calibration search
FIELD_SCAN_STEP = 2.0  # G
CALIBRATION_B_MAX = 1000.0  # G
CALIBRATION_TOL = 1e-6  # G


class AbscissaKind(str, Enum):
    VOLTAGE = "voltage"
    FIELD = "field"


class NoSolutionError(ValueError):
    """No value in the searched domain satisfies the condition."""


@dataclass(eq=False)
class Spectrum:
    """One scan: counts against a strictly monotone abscissa.

    Stored ascending; a descending input is flipped on construction and
    noted in the metadata.
    """

    abscissa: np.ndarray
    counts: np.ndarray
    kind: AbscissaKind
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.abscissa, dtype=float)
        y = np.asarray(self.counts, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("abscissa and counts must be equal-length 1-d arrays")
        if len(x) < 16:
            raise ValueError("a scan needs at least 16 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("abscissa and counts must be finite")
        dx = np.diff(x)
        if np.all(dx < 0):
            x, y = x[::-1].copy(), y[::-1].copy()
            self.metadata = {**self.metadata, "flipped": True}
        elif not np.all(dx > 0):
            raise ValueError("abscissa must be strictly monotone")
        self.abscissa, self.counts = x, y
        self.kind = AbscissaKind(self.kind)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.abscissa[0]), float(self.abscissa[-1])


@dataclass(eq=False)
class CalibrationMap:
    """Piecewise-linear voltage-to-field map through fiducial anchors."""

    anchors: np.ndarray  # (n, 2): voltage, field in gauss
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.anchors, dtype=float)
        if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 2:
            raise ValueError("need at least 2 (voltage, field) anchors")
        a = a[np.argsort(a[:, 0])]
        if np.any(np.diff(a[:, 0]) <= 0):
            raise ValueError("anchor voltages must be distinct")
        df = np.diff(a[:, 1])
        if not (np.all(df > 0) or np.all(df < 0)):
            raise ValueError("anchor fields must be strictly monotone in voltage")
        self.anchors = a

    def field_of(self, voltage) -> np.ndarray:
        v = np.asarray(voltage, dtype=float)
        va, fa = self.anchors[:, 0], self.anchors[:, 1]
        out = np.interp(v, va, fa)
        # np.interp clamps; extend the end segments linearly instead
        lo = v < va[0]
        hi = v > va[-1]
        if np.any(lo):
            s = (fa[1] - fa[0]) / (va[1] - va[0])
            out = np.where(lo, fa[0] + s * (v - va[0]), out)
        if np.any(hi):
            s = (fa[-1] - fa[-2]) / (va[-1] - va[-2])
            out = np.where(hi, fa[-1] + s * (v - va[-1]), out)
        return out

    def apply(self, spectrum: Spectrum) -> Spectrum:
        if spectrum.kind is not AbscissaKind.VOLTAGE:
            raise ValueError("calibration applies to voltage scans")
        fields = self.field_of(spectrum.abscissa)
        meta = dict(spectrum.metadata)
        va = self.anchors[:, 0]
        if spectrum.abscissa[0] < va[0] - 1e-12 or spectrum.abscissa[-1] > va[-1] + 1e-12:
            meta["calibration_flags"] = meta.get("calibration_flags", ()) + ("extrapolated",)
        return Spectrum(fields, spectrum.counts, AbscissaKind.FIELD, meta)


def field_for_frequency(nv: SpinSpecies, axis, frequency):
    """Field amplitude at which an NV probe branch of the first
    orientation class equals ``frequency``: a float for one frequency,
    an array of the input's shape for an array of them.

    The branch is picked by the sign of frequency - f(0): below the
    zero-field line the lower branch, above it the upper.  One stacked
    scan over 0..CALIBRATION_B_MAX in FIELD_SCAN_STEP steps brackets every
    frequency at once, and one stacked bisection on the exact Hamiltonian
    refines all brackets to CALIBRATION_TOL.  Raises NoSolutionError for
    the first frequency that neither branch reaches.
    """
    freqs = np.ravel(np.asarray(frequency, dtype=float))
    h1 = hamiltonian_parts(nv, _unit(axis), nv.orientations()[0])[1]
    grid = FIELD_SCAN_STEP * np.arange(int(CALIBRATION_B_MAX // FIELD_SCAN_STEP) + 1)
    lower, upper = probe_frequencies(nv.D, nv.E, grid, h1[None])
    # below the zero-field line the lower branch, above it the upper
    use_upper = freqs > upper[0]
    g = np.where(use_upper[:, None], upper, lower) - freqs[:, None]
    k = first_crossing(g)
    j = np.maximum(k - 1, 0)
    every = np.arange(len(freqs))

    def gap(b, rows):
        lower, upper = probe_frequencies(nv.D, nv.E, b, h1[None])
        return np.where(use_upper[rows], upper, lower) - freqs[rows]

    fields = bisect(gap, grid[j], grid[k], g[every, j], g[every, k], CALIBRATION_TOL)
    at_zero = (np.abs(freqs - lower[0]) < 1e-9) | (np.abs(freqs - upper[0]) < 1e-9)
    fields[at_zero] = 0.0
    missed = np.flatnonzero(np.isnan(fields))
    if missed.size:
        raise NoSolutionError(f"{freqs[missed[0]]} MHz is not reached by either NV "
                              f"probe branch below {CALIBRATION_B_MAX} G")
    fields = fields.reshape(np.shape(frequency))
    return float(fields) if fields.ndim == 0 else fields


def calibrate(
    spectrum: Spectrum, fiducials, nv: SpinSpecies, axis
) -> CalibrationMap:
    """Build the voltage-to-field map from microwave fiducials.

    All (voltage, frequency MHz) fiducials are inverted together by one
    ``field_for_frequency`` call, through the NV Hamiltonian of the first
    orientation class.  The resulting anchors must be monotone.  Classes
    are assumed degenerate along the sweep axis (true for [100]); a
    spread above 0.1 MHz across classes at an anchor, checked in one more
    stacked solve, sets the "class-ambiguous" flag instead of failing.
    """
    if spectrum.kind is not AbscissaKind.VOLTAGE:
        raise ValueError("fiducial calibration starts from a voltage scan")
    fid = np.asarray(fiducials, dtype=float)
    if fid.ndim != 2 or fid.shape[1] != 2 or fid.shape[0] < 2:
        raise ValueError("need at least 2 (voltage, frequency) fiducials")
    if not np.all(np.isfinite(fid)):
        raise ValueError("fiducial voltages and frequencies must be finite")
    volts, freqs = fid[:, 0], fid[:, 1]
    fields = field_for_frequency(nv, axis, freqs)
    axis = _unit(axis)
    h1 = np.array([hamiltonian_parts(nv, axis, o)[1] for o in nv.orientations()])
    # every anchor field under every orientation class, in one stack
    n_cls = len(h1)
    lower, upper = probe_frequencies(
        nv.D, nv.E, np.repeat(fields, n_cls), np.tile(h1, (len(fields), 1, 1))
    )
    f_ref = np.repeat(freqs, n_cls)
    spread = np.minimum(np.abs(lower - f_ref), np.abs(upper - f_ref))
    flags = ("class-ambiguous",) if np.any(spread > 0.1) else ()
    return CalibrationMap(np.column_stack([volts, fields]), flags)


@dataclass(eq=False)
class BaselineFit:
    """4th-order polynomial envelope fitted outside excluded windows."""

    coefficients: np.ndarray  # ascending powers, length 5
    excluded_windows: tuple[tuple[float, float], ...]
    rms: float

    def evaluate(self, x) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coefficients)


def _outside_mask(x: np.ndarray, windows) -> np.ndarray:
    mask = np.ones(len(x), dtype=bool)
    for lo, hi in windows:
        mask &= ~((x >= min(lo, hi)) & (x <= max(lo, hi)))
    return mask


def fit_baseline(spectrum: Spectrum, excluded_windows=()) -> BaselineFit:
    """Ordinary least squares, order fixed at 4, on points outside the
    excluded windows."""
    windows = tuple((float(lo), float(hi)) for lo, hi in excluded_windows)
    for lo, hi in windows:
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"excluded window {lo}:{hi} must have finite bounds")
    x, y = spectrum.abscissa, spectrum.counts
    mask = _outside_mask(x, windows)
    if int(mask.sum()) < 6:
        raise ValueError("underdetermined baseline: fewer than 6 points outside windows")
    # fit in a scaled domain for conditioning, report raw-power coefficients
    poly = Polynomial.fit(x[mask], y[mask], 4).convert()
    coef = np.zeros(5)
    coef[: len(poly.coef)] = poly.coef
    resid = y[mask] - np.polynomial.polynomial.polyval(x[mask], coef)
    return BaselineFit(coef, windows, float(np.sqrt(np.mean(resid**2))))


@dataclass(frozen=True)
class PeakWindow:
    """Candidate dip region from detection, in abscissa units."""

    lo: float
    hi: float
    center_guess: float
    width_guess: float
    prominence: float
    flags: tuple[str, ...] = ()

    @property
    def bounds(self) -> tuple[float, float]:
        return self.lo, self.hi


def detect_peaks(residual: Spectrum, k: float = DETECT_K) -> list[PeakWindow]:
    """Dip candidates in a baseline-subtracted scan.

    A dip qualifies when both its depth below the residual zero line and
    its prominence exceed k times the robust noise scale 1.4826*MAD (so k
    is in units of the Gaussian-equivalent sigma).  Prominence alone is
    not enough: the deepest trough of pure noise has prominence near the
    full peak-to-trough span, which fires on almost every flat scan; the
    depth condition restores the near-zero false-positive rate, and the
    prominence condition keeps noise wiggles inside a deep dip from
    spawning extra windows.  Windows span +-3 estimated widths; windows
    cut short by the scan edge carry the "edge-truncated" flag.  A
    candidate whose centre lies inside the window of a more prominent one
    is a noise wiggle on that dip and is dropped.
    """
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"detection threshold must be finite and > 0, not {k}")
    # imported here, not at module level: only `fit` needs scipy.signal,
    # and it costs more at startup than the rest of the package
    from scipy.signal import find_peaks

    x, r = residual.abscissa, residual.counts
    sigma = MAD_SIGMA * float(np.median(np.abs(r - np.median(r))))
    if sigma == 0.0:
        sigma = max(1e-12, 1e-15 * float(np.max(np.abs(r)) or 1.0))
    idx, props = find_peaks(
        -r, height=k * sigma, prominence=k * sigma, width=1, rel_height=0.5
    )
    dx = float(np.mean(np.diff(x)))
    out = []
    for i, p in enumerate(idx):
        width = max(float(props["widths"][i]) * dx * FWHM_TO_SIGMA, dx)
        center = float(x[p])
        lo, hi = center - 3 * width, center + 3 * width
        flags = ()
        if lo < x[0] or hi > x[-1]:
            flags = ("edge-truncated",)
            lo, hi = max(lo, float(x[0])), min(hi, float(x[-1]))
        out.append(
            PeakWindow(
                lo=lo,
                hi=hi,
                center_guess=center,
                width_guess=width,
                prominence=float(props["prominences"][i]),
                flags=flags,
            )
        )
    return [
        w for w in out
        if not any(o.prominence > w.prominence and o.lo <= w.center_guess <= o.hi for o in out)
    ]


@dataclass(eq=False)
class PeakFit:
    """Gaussian dip parameters: counts(x) = -depth * exp(-(x-c)^2/(2 s^2))."""

    center: float
    sigma: float
    depth: float
    covariance: np.ndarray
    contrast: float = float("nan")
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (3, 3):
            raise ValueError("covariance must be 3x3")
        self.covariance = 0.5 * (cov + cov.T)

    @property
    def center_sigma(self) -> float:
        return float(np.sqrt(max(self.covariance[0, 0], 0.0)))

    @property
    def converged(self) -> bool:
        return "no-convergence" not in self.flags


def _runs_z(residuals: np.ndarray) -> float:
    s = np.sign(residuals)
    s = s[s != 0]
    n = len(s)
    if n < 8:
        return 0.0
    npos = int(np.sum(s > 0))
    nneg = n - npos
    if npos == 0 or nneg == 0:
        return 0.0
    runs = 1 + int(np.sum(s[1:] != s[:-1]))
    mu = 1.0 + 2.0 * npos * nneg / n
    var = 2.0 * npos * nneg * (2.0 * npos * nneg - n) / (n * n * (n - 1.0))
    if var <= 0:
        return 0.0
    return (runs - mu) / np.sqrt(var)


def fit_gaussian(residual: Spectrum, window) -> PeakFit:
    """Damped least-squares Gaussian dip fit inside one window.

    Levenberg-Marquardt contract: the cost never increases, iteration
    stops at relative cost change < 1e-10 or 200 steps.  The covariance
    comes from the final Jacobian; systematic residual structure (two
    dips in one window, wrong model) is flagged by a runs test.
    """
    lo, hi = (window.bounds if isinstance(window, PeakWindow) else (window[0], window[1]))
    sel = (residual.abscissa >= lo) & (residual.abscissa <= hi)
    if isinstance(window, PeakWindow) and np.count_nonzero(sel) < MIN_FIT_POINTS:
        # a detected window at the width floor spans +-3 samples, but float
        # rounding of its bounds can drop both end samples: take the
        # MIN_FIT_POINTS samples around the candidate by index instead
        n = len(residual.abscissa)
        i = int(np.searchsorted(residual.abscissa, window.center_guess))
        start = min(max(i - MIN_FIT_POINTS // 2, 0), n - MIN_FIT_POINTS)
        sel = slice(start, start + MIN_FIT_POINTS)
    x, y = residual.abscissa[sel], residual.counts[sel]
    if len(x) < MIN_FIT_POINTS:
        raise ValueError(f"window holds fewer than {MIN_FIT_POINTS} points")

    i0 = int(np.argmin(y))
    depth = max(float(-y[i0]), 1e-12)
    center = float(x[i0])
    weights = np.clip(-y, 0.0, None)
    dx = float(np.mean(np.diff(x)))
    if weights.sum() > 0:
        sigma = float(np.sqrt(np.sum(weights * (x - center) ** 2) / weights.sum()))
    else:
        sigma = dx
    sigma = max(sigma, dx / 2)

    theta = np.array([center, sigma, depth])

    def model_jac(t):
        c, s, a = t
        g = np.exp(-((x - c) ** 2) / (2 * s * s))
        m = -a * g
        j = np.column_stack(
            [-a * g * (x - c) / (s * s), -a * g * (x - c) ** 2 / (s**3), -g]
        )
        return m, j

    m, j = model_jac(theta)
    r = y - m
    cost = float(r @ r)
    lam = 1e-3
    flags: list[str] = []
    converged = False
    for _ in range(200):
        jtj = j.T @ j
        step = None
        try:
            step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), j.T @ r)
        except np.linalg.LinAlgError:
            pass
        accepted = False
        if step is not None:
            cand = theta + step
            if cand[1] > 0 and cand[2] > 0:
                mc, jc = model_jac(cand)
                rc = y - mc
                cost_c = float(rc @ rc)
                if cost_c <= cost:
                    rel = (cost - cost_c) / max(cost, 1e-300)
                    theta, m, j, r, cost = cand, mc, jc, rc, cost_c
                    lam = max(lam / 10.0, 1e-12)
                    accepted = True
                    if rel < 1e-10:
                        converged = True
                        break
        if not accepted:
            lam *= 10.0
            if lam > 1e12:
                break
    if not converged:
        flags.append("no-convergence")

    dof = max(len(x) - 3, 1)
    noise = cost / dof
    try:
        cov = noise * np.linalg.inv(j.T @ j)
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.inf)
        flags.append("singular-jacobian")
    if _runs_z(r) < RUNS_Z_POOR:
        flags.append("poor-fit")
    if not (lo <= theta[0] <= hi):
        flags.append("center-outside-window")
    return PeakFit(
        center=float(theta[0]),
        sigma=float(theta[1]),
        depth=float(theta[2]),
        covariance=cov,
        flags=tuple(flags),
    )


@dataclass(eq=False)
class ScanReport:
    """Everything the pipeline extracted from one scan."""

    spectrum: Spectrum
    calibration: CalibrationMap | None
    baseline: BaselineFit
    windows: list[PeakWindow]
    peaks: list[PeakFit]


def analyze_scan(
    spectrum: Spectrum,
    fiducials=None,
    nv: SpinSpecies | None = None,
    axis=None,
    windows=None,
    k: float = DETECT_K,
) -> ScanReport:
    """Full pipeline: calibrate if needed, find the dip windows, fit the
    envelope outside them, then fit each dip in the residual.

    Without explicit windows a two-pass scheme is used: a median-filtered
    first pass locates the bumps, the second pass refits the baseline
    with those regions excluded.
    """
    from scipy.ndimage import median_filter

    calibration = None
    if spectrum.kind is AbscissaKind.VOLTAGE:
        if fiducials is None or nv is None or axis is None:
            raise ValueError("voltage scans need fiducials, an NV species, and an axis")
        calibration = calibrate(spectrum, fiducials, nv, axis)
        spectrum = calibration.apply(spectrum)

    if windows is None:
        size = max(5, (len(spectrum.counts) // 16) | 1)
        smooth = median_filter(spectrum.counts, size=size, mode="nearest")
        first = fit_baseline(
            Spectrum(spectrum.abscissa, smooth, AbscissaKind(spectrum.kind))
        )
        residual0 = Spectrum(
            spectrum.abscissa,
            spectrum.counts - first.evaluate(spectrum.abscissa),
            AbscissaKind(spectrum.kind),
        )
        windows = [w.bounds for w in detect_peaks(residual0, k)]

    baseline = fit_baseline(spectrum, windows)
    residual = Spectrum(
        spectrum.abscissa,
        spectrum.counts - baseline.evaluate(spectrum.abscissa),
        AbscissaKind(spectrum.kind),
        spectrum.metadata,
    )
    found = detect_peaks(residual, k)
    peaks = []
    for w in found:
        fit = fit_gaussian(residual, w)
        base_here = float(baseline.evaluate(fit.center))
        fit.contrast = fit.depth / base_here if base_here > 0 else float("nan")
        fit.flags = tuple(fit.flags) + tuple(f for f in w.flags if f not in fit.flags)
        peaks.append(fit)
    return ScanReport(
        spectrum=spectrum,
        calibration=calibration,
        baseline=baseline,
        windows=found,
        peaks=peaks,
    )
