"""Angular PL map around [100].

Same-species cross-relaxation lights up wherever two NV orientation
classes become degenerate; sweeping the field direction around [100]
traces out four planes (orthogonal to [010], [001], [011], [01-1]) that
all intersect on the axis itself.  The map reproduces that geometry with
a phenomenological Lorentzian contrast model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import SpinSpecies, nv_probe_frequencies

DEFAULT_LINEWIDTH = 6.0  # MHz, FWHM; the NV decoherence scale
DEFAULT_CONTRAST = 0.05
# goniometer limit on |phi| and |theta|, degrees, that AngleGrid enforces
MAX_ANGLE_DEG = 90.0
# most grid points per angle axis: four times the 101 of the CLI default,
# about 0.65 million 3x3 eigensolves over the four classes
MAX_ANGLE_STEPS = 401

# the map's reference axis; its plane loci and masks hold for [100] only
REFERENCE_AXIS = np.array([1.0, 0.0, 0.0])


def _goniometer_axes(ref: np.ndarray, phis, thetas) -> np.ndarray:
    """Axes Rz(theta) Ry(phi) ref, shape (len(phis), len(thetas), 3), for
    every pair of goniometer angles (degrees) from the two arrays."""
    phis, thetas = np.deg2rad(phis), np.deg2rad(thetas)
    cp, sp = np.cos(phis), np.sin(phis)
    ct, st = np.cos(thetas), np.sin(thetas)
    x1 = cp * ref[0] + sp * ref[2]
    y1 = np.full_like(cp, ref[1])
    z1 = -sp * ref[0] + cp * ref[2]
    ax = np.empty((len(phis), len(thetas), 3))
    ax[:, :, 0] = x1[:, None] * ct[None, :] - y1[:, None] * st[None, :]
    ax[:, :, 1] = x1[:, None] * st[None, :] + y1[:, None] * ct[None, :]
    ax[:, :, 2] = z1[:, None]
    return ax


@dataclass(frozen=True, eq=False)
class AngleGrid:
    """Symmetric (phi, theta) grid in degrees around the reference axis."""

    phi_max: float
    theta_max: float
    n_phi: int
    n_theta: int

    def __post_init__(self):
        # chained comparisons, so NaN fails each of them
        if not (0 < self.phi_max <= MAX_ANGLE_DEG and 0 < self.theta_max <= MAX_ANGLE_DEG):
            raise ValueError("angle ranges must be positive and at most 90 deg")
        if not (3 <= self.n_phi <= MAX_ANGLE_STEPS and 3 <= self.n_theta <= MAX_ANGLE_STEPS):
            raise ValueError(f"need 3 to {MAX_ANGLE_STEPS} steps per axis")

    @property
    def phis(self) -> np.ndarray:
        return np.linspace(-self.phi_max, self.phi_max, self.n_phi)

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(-self.theta_max, self.theta_max, self.n_theta)


@dataclass(eq=False)
class DegeneracyMap:
    """pl_proxy[i, j] is the relative PL at (phis[i], thetas[j])."""

    grid: AngleGrid
    amplitude: float
    pl_proxy: np.ndarray
    linewidth: float
    contrast: float
    flags: tuple[str, ...] = ()

    @property
    def plane_masks(self) -> dict[str, np.ndarray]:
        """Grid points within half a cell, in both angles, of a point of
        each analytic plane locus (``plane_loci``)."""
        phis, thetas = self.grid.phis, self.grid.thetas
        half_phi = 0.5 * (phis[1] - phis[0])
        half_theta = 0.5 * (thetas[1] - thetas[0])
        masks = {}
        for name, locus in plane_loci(self.grid).items():
            near_phi = np.abs(phis[:, None] - locus[:, 0]) <= half_phi
            near_theta = np.abs(thetas[:, None] - locus[:, 1]) <= half_theta
            masks[name] = near_phi @ near_theta.T  # boolean: any locus point near both
        return masks


def _probe_freq_grid(nv: SpinSpecies, grid: AngleGrid, amplitude: float) -> np.ndarray:
    """Probe frequencies f[i, j, class, branch] over the angle grid."""
    flat_axes = _goniometer_axes(REFERENCE_AXIS, grid.phis, grid.thetas).reshape(-1, 3)
    per_class = [nv_probe_frequencies(nv, amplitude, flat_axes, orientation)
                 for orientation in nv.orientations()]
    # (class, branch, point) -> (i, j, class, branch)
    return np.moveaxis(np.array(per_class), 2, 0).reshape(grid.n_phi, grid.n_theta, -1, 2)


def plane_loci(grid: AngleGrid) -> dict[str, np.ndarray]:
    """Analytic (phi, theta) loci (degrees) of the four degeneracy planes
    for reference [100]: theta=0, phi=0, and phi = -+atan(sin theta)."""
    th = grid.thetas
    curve = np.rad2deg(np.arctan(np.sin(np.deg2rad(th))))
    return {
        "010": np.column_stack([grid.phis, np.zeros_like(grid.phis)]),
        "001": np.column_stack([np.zeros_like(th), th]),
        "011": np.column_stack([curve, th]),
        "01-1": np.column_stack([-curve, th]),
    }


def simulate_map(
    grid: AngleGrid,
    amplitude: float,
    nv: SpinSpecies,
    linewidth: float = DEFAULT_LINEWIDTH,
    contrast: float = DEFAULT_CONTRAST,
) -> DegeneracyMap:
    """Lorentzian-contrast degeneracy map over the angle grid around
    REFERENCE_AXIS.

    pl_proxy = 1 - c * sum over class pairs and branch combinations of
    L(detuning; FWHM=linewidth), with c normalised so the deepest point
    sits at 1 - contrast.  Amplitude 0 degenerates every detuning and is
    flagged.
    """
    # chained comparisons, so NaN fails each of them
    if not 0 <= amplitude < np.inf:
        raise ValueError("field amplitude must be finite and >= 0")
    if not 0 < linewidth < np.inf:
        raise ValueError("linewidth must be positive and finite")
    if not 0 <= contrast <= 1:
        raise ValueError("contrast must lie in [0, 1]")
    f = _probe_freq_grid(nv, grid, amplitude)
    hwhm = linewidth / 2.0
    raw = np.zeros((grid.n_phi, grid.n_theta))
    n_cls = f.shape[2]
    for a in range(n_cls):
        for b in range(a + 1, n_cls):
            for br_a in range(2):
                for br_b in range(2):
                    det = f[:, :, a, br_a] - f[:, :, b, br_b]
                    raw += 1.0 / (1.0 + (det / hwhm) ** 2)
    peak = float(np.max(raw))
    flags = ()
    if amplitude == 0:
        flags = ("zero-field-degenerate",)
    scale = contrast / peak if peak > 0 else 0.0
    pl = 1.0 - scale * raw
    return DegeneracyMap(
        grid=grid,
        amplitude=amplitude,
        pl_proxy=pl,
        linewidth=linewidth,
        contrast=contrast,
        flags=flags,
    )
