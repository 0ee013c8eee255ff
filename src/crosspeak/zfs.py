"""Zero-field-splitting inversion from a cross-relaxation dip position.

A dip at field B* is attributed to a crossing between an NV probe branch
and one branch of an unknown S=1 defect; the defect's D is the value that
makes the two branches meet exactly at B*.  The error budget propagates
four independent sources through the same inversion: the dip-center fit,
the field calibration, the residual field-axis misalignment, and the NV
reference D itself.

All inversions of one budget (the center, the perturbed fits,
calibrations and NV references, and every tilt azimuth and orientation
pair) are bisected together: the Zeeman parts are built in one stack
per (species, orientation) over every axis, and each bisection step is
one stacked eigensolve over every open bracket (``roots.bisect``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .roots import bisect
from .spectrum import NoSolutionError, PeakFit
from .spin import Orientation, SpinSpecies, _unit, hamiltonian_parts, probe_frequencies

D_SEARCH_RANGE = (2000.0, 3000.0)
D_BISECT_TOL = 1e-3  # MHz; well under the 0.01 MHz contract
DEFAULT_NV_D_SIGMA = 1.0  # MHz
N_TILT_AZIMUTHS = 8
# largest axis tilt, degrees: a tilt beyond a right angle reverses the axis
MAX_TILT_DEG = 90.0

_BRANCH_INDEX = {"ms=0>ms=-1": 0, "ms=0>ms=+1": 1}


@dataclass(frozen=True)
class ZfsEstimate:
    """Inverted D with its quadrature error budget (all MHz)."""

    D: float
    sigma_D: float
    contributions: dict[str, float]

    @classmethod
    def combine(cls, d: float, contributions: dict[str, float]) -> "ZfsEstimate":
        sigma = float(np.sqrt(sum(c * c for c in contributions.values())))
        return cls(D=d, sigma_D=sigma, contributions=dict(contributions))


def _tilted(axis: np.ndarray, tilt_rad: float, azimuth: float) -> np.ndarray:
    """Unit axis tilted away from ``axis`` by tilt_rad toward the given
    azimuth in the plane transverse to it."""
    ref = np.array([0.0, 0.0, 1.0])
    if abs(axis @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - (ref @ axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    t = np.cos(tilt_rad) * axis + np.sin(tilt_rad) * (
        np.cos(azimuth) * e1 + np.sin(azimuth) * e2
    )
    return t / np.linalg.norm(t)


def _non_negative(name: str, value) -> float:
    value = float(value)
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def infer_zfs(
    peak,
    cal_uncertainty: float,
    angle_uncertainty: float,
    nv: SpinSpecies,
    assumed_crossing: tuple[str, str] = ("ms=0>ms=-1", "ms=0>ms=+1"),
    axis=(1.0, 0.0, 0.0),
    fit_sigma: float | None = None,
    nv_d_sigma: float = DEFAULT_NV_D_SIGMA,
) -> ZfsEstimate:
    """Invert a dip center into the target defect's D.

    ``peak`` is a PeakFit or a bare center in gauss; ``assumed_crossing``
    names the NV probe branch and the target branch forming the crossing.
    Each uncertainty source (fit center sigma, calibration offset in
    gauss, axis tilt in degrees over the worst azimuth and orientation
    pair, NV reference D) is propagated by re-solving the inversion at
    the perturbed input; the four resulting shifts combine in quadrature.

    The target shares the NV's gamma_e.  Every inversion is a bisection
    for D over D_SEARCH_RANGE to within D_BISECT_TOL, and all of them run
    together as one stacked bracket-and-bisect: about 22 stacked
    eigensolves of at most 135 matrices for the full budget.  The center
    and every fit, calibration and NV-reference perturbation must have a
    crossing in D_SEARCH_RANGE (NoSolutionError otherwise); tilted class
    pairs without one are skipped.  The center and the four uncertainties must be finite and
    >= 0, and the axis tilt at most MAX_TILT_DEG (ValueError otherwise).
    """
    if isinstance(peak, PeakFit):
        center = peak.center
        if fit_sigma is None:
            fit_sigma = peak.center_sigma
    else:
        center = peak
        fit_sigma = 0.0 if fit_sigma is None else fit_sigma
    center = _non_negative("center", center)
    fit_sigma = _non_negative("fit_sigma", fit_sigma)
    cal_uncertainty = _non_negative("cal_uncertainty", cal_uncertainty)
    angle_uncertainty = _non_negative("angle_uncertainty", angle_uncertainty)
    if angle_uncertainty > MAX_TILT_DEG:
        raise ValueError(f"angle_uncertainty must be at most {MAX_TILT_DEG:g} deg, "
                         f"got {angle_uncertainty}")
    nv_d_sigma = _non_negative("nv_d_sigma", nv_d_sigma)
    nv_label, tgt_label = assumed_crossing
    try:
        nv_branch = _BRANCH_INDEX[nv_label]
        tgt_branch = _BRANCH_INDEX[tgt_label]
    except KeyError as exc:
        raise ValueError(f"unknown probe branch label {exc.args[0]!r}") from None
    axis = _unit(axis)
    lo, hi = D_SEARCH_RANGE
    target = SpinSpecies(name="target", S=1.0, D=lo, gamma_e=nv.gamma_e)

    # one job per inversion: (budget term, field, NV reference D, axis,
    # NV orientation, target orientation); axis 0 is the nominal one
    axes = [axis]
    jobs = [("center", center, nv.D, 0, 0, 0)]
    for term, sigma in (("fit", fit_sigma), ("calibration", cal_uncertainty)):
        if sigma > 0:
            jobs += [(term, center + sigma, nv.D, 0, 0, 0),
                     (term, max(center - sigma, 0.0), nv.D, 0, 0, 0)]
    if nv_d_sigma > 0:
        jobs += [("nv_reference", center, nv.D + nv_d_sigma, 0, 0, 0),
                 ("nv_reference", center, nv.D - nv_d_sigma, 0, 0, 0)]
    nv_orients = nv.orientations()
    tgt_orients = Orientation.all_classes()
    # Worst-case tilt: the dip's class pair is unknown once the axis is
    # off [100], so scan azimuths and all orientation pairings.
    if angle_uncertainty > 0:
        tilt = np.deg2rad(angle_uncertainty)
        for k in range(N_TILT_AZIMUTHS):
            axes.append(_tilted(axis, tilt, 2 * np.pi * k / N_TILT_AZIMUTHS))
            jobs += [("angle", center, nv.D, len(axes) - 1, i, j)
                     for i in range(len(nv_orients)) for j in range(len(tgt_orients))]
    terms, b, nv_d, ax, i_nv, i_tgt = zip(*jobs)
    b, nv_d, axes = np.array(b), np.array(nv_d), np.array(axes)
    # one Zeeman stack per orientation over every axis, indexed [orientation, axis]
    nv_h1 = np.array([hamiltonian_parts(nv, axes, o)[1] for o in nv_orients])[i_nv, ax]
    tgt_h1 = np.array([hamiltonian_parts(target, axes, o)[1] for o in tgt_orients])[i_tgt, ax]
    f_nv = probe_frequencies(nv_d, nv.E, b, nv_h1)[nv_branch]

    def gap(d, rows):
        f_tgt = probe_frequencies(d, target.E, b[rows], tgt_h1[rows])[tgt_branch]
        return f_tgt - f_nv[rows]

    n = len(jobs)
    g_ends = gap(np.repeat([lo, hi], n), np.tile(np.arange(n), 2))
    roots = bisect(gap, np.full(n, lo), np.full(n, hi), g_ends[:n], g_ends[n:],
                   D_BISECT_TOL).tolist()

    d0 = roots[0]
    contributions = dict.fromkeys(("fit", "calibration", "nv_reference", "angle"), 0.0)
    for term, b_k, d_k in zip(terms, b, roots):
        if np.isnan(d_k):
            if term == "angle":
                continue
            raise NoSolutionError(
                f"no D in [{lo}, {hi}] MHz places that crossing at {b_k:.3f} G"
            )
        if term != "center":
            contributions[term] = max(contributions[term], abs(d_k - d0))
    return ZfsEstimate.combine(d0, contributions)
