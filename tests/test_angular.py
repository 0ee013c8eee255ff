"""Angle-resolved degeneracy map and ODMR line structure.

The ODMR lines are the probe frequencies the map is built from
(``_probe_freq_grid``).  The per-class oracle rebuilds each class
Hamiltonian from the polar angle alone (D Sz^2 + gamma B (cos a Sz +
sin a Sx)), which is unitarily equivalent to the full 3-d assembly and
uses none of the package's rotation plumbing.
"""

import numpy as np
import pytest

from crosspeak.angular import (
    AngleGrid,
    _goniometer_axes,
    _probe_freq_grid,
    plane_loci,
    simulate_map,
)
from crosspeak.spin import SpinSpecies

REF = np.array([1.0, 0.0, 0.0])
BODY_DIAGONALS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3.0)


def direction(phi_deg, theta_deg):
    p, t = np.deg2rad(phi_deg), np.deg2rad(theta_deg)
    ry = np.array(
        [[np.cos(p), 0, np.sin(p)], [0, 1, 0], [-np.sin(p), 0, np.cos(p)]]
    )
    rz = np.array(
        [[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1]]
    )
    return rz @ ry @ REF


def class_branch_freqs(u, n, b, d=2870.0, g=2.8025):
    # eigenvalues depend only on the polar angle between field and axis
    cos_a = float(np.clip(u @ n, -1.0, 1.0))
    sin_a = np.sqrt(1.0 - cos_a * cos_a)
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0)
    sz = np.diag([1.0, 0.0, -1.0])
    h = d * sz @ sz + g * b * (cos_a * sz + sin_a * sx)
    e = np.linalg.eigvalsh(h)
    return e[1] - e[0], e[2] - e[0]


def oracle_freqs(phi_deg, theta_deg, b=115.0):
    """The eight class-branch probe frequencies, ascending, from the oracle."""
    n = direction(phi_deg, theta_deg)
    return np.sort([f for u in BODY_DIAGONALS for f in class_branch_freqs(u, n, b)])


def line_multiplicities(freqs, merge_tol=0.1):
    """Multiplicities of the ascending ODMR lines, lines closer than
    merge_tol (MHz) counting as one."""
    f = np.sort(np.ravel(freqs))
    return [len(g) for g in np.split(f, np.flatnonzero(np.diff(f) > merge_tol) + 1)]


# -------------------------------------------------------------- geometry

def test_field_from_angles_identity():
    assert np.allclose(_goniometer_axes(REF, [0.0], [0.0])[0, 0], REF, atol=1e-12)


def test_field_from_angles_quarter_turns():
    axes = _goniometer_axes(REF, [90.0, 0.0], [0.0, 90.0])
    assert np.allclose(axes[0, 0], [0.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(axes[1, 1], [0.0, 1.0, 0.0], atol=1e-12)


def test_field_from_angles_composition_order():
    # phi about y first, then theta about z
    axis = _goniometer_axes(REF, [3.0], [3.0])[0, 0]
    assert np.allclose(axis, direction(3.0, 3.0), atol=1e-12)
    assert not np.allclose(axis, direction(3.0, 0.0), atol=1e-6)


# ------------------------------------------------------------ odmr lines

@pytest.fixture(scope="module")
def freqs_3deg(nv):
    """Probe frequencies f[i, j, class, branch] at phi, theta in {-3, 0, 3}."""
    return _probe_freq_grid(nv, AngleGrid(3.0, 3.0, 3, 3), 115.0)


def test_odmr_lines_on_axis(freqs_3deg):
    f = freqs_3deg[1, 1]
    assert line_multiplicities(f) == [4, 4]
    assert np.max(f[:, 0]) < 2870.0 < np.min(f[:, 1])


def test_odmr_lines_three_three(freqs_3deg):
    lines = line_multiplicities(freqs_3deg[2, 2])
    assert len(lines) == 6
    assert sorted(lines) == [1, 1, 1, 1, 2, 2]
    assert sum(lines) == 8


def test_odmr_lines_match_polar_angle_oracle(nv):
    f = _probe_freq_grid(nv, AngleGrid(7.0, 13.0, 3, 3), 115.0)[2, 2]
    assert np.max(np.abs(np.sort(f.ravel()) - oracle_freqs(7.0, 13.0))) < 1e-6


def test_odmr_merge_preserves_multiplicity(nv, rng):
    for _ in range(5):
        phi_max, theta_max = rng.uniform(1.0, 15.0, size=2)
        grid = AngleGrid(phi_max, theta_max, 3, 3)
        f = _probe_freq_grid(nv, grid, 115.0)
        for i, phi in enumerate(grid.phis):
            for j, theta in enumerate(grid.thetas):
                assert sum(line_multiplicities(f[i, j])) == 8
                assert np.max(np.abs(np.sort(f[i, j].ravel()) - oracle_freqs(phi, theta))) < 1e-6


# ------------------------------------------------------------------ grid

def test_angle_grid_validation():
    with pytest.raises(ValueError):
        AngleGrid(phi_max=-1.0, theta_max=10.0, n_phi=11, n_theta=11)
    with pytest.raises(ValueError):
        AngleGrid(phi_max=10.0, theta_max=10.0, n_phi=2, n_theta=11)
    with pytest.raises(ValueError):
        AngleGrid(phi_max=91.0, theta_max=10.0, n_phi=11, n_theta=11)
    g = AngleGrid(phi_max=10.0, theta_max=20.0, n_phi=5, n_theta=9)
    assert g.phis[0] == -10.0 and g.phis[-1] == 10.0
    assert len(g.thetas) == 9 and g.thetas[4] == 0.0


def test_plane_loci_shapes_and_values():
    g = AngleGrid(phi_max=20.0, theta_max=20.0, n_phi=41, n_theta=41)
    loci = plane_loci(g)
    assert set(loci) == {"010", "001", "011", "01-1"}
    assert np.all(loci["010"][:, 1] == 0.0)
    assert np.all(loci["001"][:, 0] == 0.0)
    th = 3.0
    k = np.argmin(np.abs(g.thetas - th))
    expect = np.rad2deg(np.arctan(np.sin(np.deg2rad(g.thetas[k]))))
    assert loci["011"][k, 0] == pytest.approx(expect)
    assert loci["01-1"][k, 0] == pytest.approx(-expect)
    # the small-angle loci hug the diagonals
    assert abs(expect - g.thetas[k]) < 0.01


# ------------------------------------------------------------------- map

@pytest.fixture(scope="module")
def small_map(nv):
    grid = AngleGrid(phi_max=10.0, theta_max=10.0, n_phi=21, n_theta=21)
    return simulate_map(grid, 115.0, nv)


def test_map_minimum_on_axis(small_map):
    pl = small_map.pl_proxy
    i, j = np.unravel_index(np.argmin(pl), pl.shape)
    assert (i, j) == (10, 10)
    assert pl[i, j] == pytest.approx(1.0 - small_map.contrast)
    assert np.all(pl > 0.0) and np.all(pl <= 1.0)


def test_map_antipodal_symmetry(small_map):
    # reversing both angles is a 180 deg rotation about the reference
    # axis, which permutes the four classes
    pl = small_map.pl_proxy
    assert np.max(np.abs(pl - pl[::-1, ::-1])) < 1e-9


def test_map_dark_on_plane_masks(small_map):
    pl = small_map.pl_proxy
    on = np.zeros_like(pl, dtype=bool)
    for m in small_map.plane_masks.values():
        on |= m
    assert on.any() and (~on).any()
    assert pl[on].mean() < pl[~on].mean() - 0.005


def test_map_labels_at_center(small_map):
    def labels_at(i, j):
        return {name for name, m in small_map.plane_masks.items() if m[i, j]}

    assert labels_at(10, 10) == {"010", "001", "011", "01-1"}
    # off-center on the theta = 0 line only the "010" plane remains
    assert labels_at(2, 10) == {"010"}
    assert labels_at(10, 2) == {"001"}


def test_map_zero_field_flagged(nv):
    grid = AngleGrid(phi_max=5.0, theta_max=5.0, n_phi=7, n_theta=7)
    m = simulate_map(grid, 0.0, nv)
    assert "zero-field-degenerate" in m.flags
    assert np.max(m.pl_proxy) - np.min(m.pl_proxy) < 1e-12


def test_map_linewidth_validation(nv):
    grid = AngleGrid(phi_max=5.0, theta_max=5.0, n_phi=7, n_theta=7)
    with pytest.raises(ValueError):
        simulate_map(grid, 115.0, nv, linewidth=0.0)


def test_map_single_class_species_is_flat():
    # one lab-frame class has no second class to become degenerate with
    toy = SpinSpecies(name="toy", S=1.0, D=1000.0, orientation_kind="lab")
    grid = AngleGrid(phi_max=5.0, theta_max=5.0, n_phi=7, n_theta=7)
    assert np.all(simulate_map(grid, 115.0, toy).pl_proxy == 1.0)


def test_map_ridges_follow_loci(nv):
    # along each theta row the darkest off-center cell set must include
    # points within one cell of an analytic locus
    grid = AngleGrid(phi_max=8.0, theta_max=8.0, n_phi=33, n_theta=33)
    m = simulate_map(grid, 115.0, nv)
    loci = plane_loci(grid)
    cell = grid.phis[1] - grid.phis[0]
    for k in (3, 8, 24, 29):  # rows away from the crowded center
        i_min = int(np.argmin(m.pl_proxy[:, k]))
        phi_dark = grid.phis[i_min]
        dists = [
            abs(phi_dark - loci[name][k, 0]) for name in ("001", "011", "01-1")
        ]
        assert min(dists) <= cell + 1e-9
