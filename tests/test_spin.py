"""Spin Hamiltonian assembly, eigensystem contracts, and adiabatic labels.

The coupled-system reference values come from the independent oracles in
``oracles.py`` (inertia bisection on a longhand 6x6 assembly), generated
once and frozen here; tolerances reflect the oracle's own 1e-12 relative
bisection target plus safe headroom.
"""

import numpy as np
import pytest

import crosspeak.spin as spin_mod
from crosspeak import kernels
from crosspeak.spin import (
    GAMMA_E,
    ManifoldRule,
    NuclearSpin,
    Orientation,
    SpinSpecies,
    TrackingWarning,
    anchor_labels,
    default_rule,
    hamiltonian_parts,
    manifold_of,
    nv_probe_frequencies,
    spin_operators,
    track_levels,
    transition_pairs,
)

from oracles import eigvals_inertia, nv13c_matrix, zeeman_matrix_100_nv13c

AX_100 = np.array([1.0, 0.0, 0.0])
AX_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

# frozen from the inertia oracle (tol 1e-12) on the longhand 6x6 assembly
NV13C_B0_EIGS = [-4.54871026, -4.54871026, 2808.47060533, 2808.47060533,
                 2936.07810493, 2936.07810493]
NV13C_20G_LOWER = [2779.160068, 2783.759703, 2907.321778, 2911.921414]
NV13C_20G_UPPER = [2844.433776, 2849.033411, 2971.534390, 2976.134025]


# ---------------------------------------------------------------- operators

def test_spin_half_sz():
    _, _, sz = spin_operators(0.5)
    assert np.allclose(sz, np.diag([0.5, -0.5]))


def test_spin_one_sz_and_casimir():
    sx, sy, sz = spin_operators(1.0)
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(sx @ sx + sy @ sy + sz @ sz, 2.0 * np.eye(3))


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_commutators_cyclic(s):
    sx, sy, sz = spin_operators(s)
    assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12
    assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) < 1e-12
    assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) < 1e-12


def test_unsupported_spin_rejected():
    with pytest.raises(ValueError):
        spin_operators(1.5)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_spin_operators_are_read_only(s):
    # one shared table: a caller writing into an operator would corrupt
    # every later Hamiltonian
    for op in spin_operators(s):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 0.0


# ----------------------------------------------------------- domain types

def test_orientation_classes_geometry():
    classes = Orientation.all_classes()
    assert len(classes) == 4
    axes = [o.rotation[:, 2] for o in classes]
    for i in range(4):
        assert abs(np.linalg.norm(axes[i]) - 1.0) < 1e-12
        # every class projects equally onto [100]
        assert abs(abs(axes[i] @ AX_100) - 1.0 / np.sqrt(3.0)) < 1e-12
        for j in range(i):
            assert abs(axes[i] @ axes[j] - (-1.0 / 3.0)) < 1e-12


def test_orientation_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Orientation("bad", np.ones((3, 3)))


def test_nuclear_spin_validation():
    a = np.eye(3)
    with pytest.raises(ValueError):
        NuclearSpin(I=0.7, gamma_n=1e-3, A=a)
    with pytest.raises(ValueError):
        NuclearSpin(I=0.5, gamma_n=1e-3, A=np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(ValueError):
        NuclearSpin(I=0.5, gamma_n=1e-3, A=a, quadrupole_P=-3.97)


def test_species_dimensions(nv, p1, nv13c):
    assert nv.dim == 3
    assert p1.dim == 6
    assert nv13c.dim == 6
    with pytest.raises(ValueError):
        SpinSpecies(name="x", S=1.5, D=0.0)


# ------------------------------------------------------------- hamiltonian

def hamiltonian(species, amplitude, axis, orientation):
    h0, h1 = hamiltonian_parts(species, axis, orientation)
    return h0 + amplitude * h1


def test_nv_zero_field_spectrum(nv):
    h = hamiltonian(nv, 0.0, AX_100, Orientation.nv_class(1))
    vals, _ = kernels.eigh(h)
    assert np.allclose(vals, [0.0, 2870.0, 2870.0], atol=1e-9)


def test_zero_field_with_transverse_zfs():
    s = SpinSpecies(name="strained", S=1.0, D=2870.0, E=5.0)
    vals, _ = kernels.eigh(hamiltonian(s, 0.0, AX_100, Orientation.lab()))
    assert np.allclose(vals, [0.0, 2865.0, 2875.0], atol=1e-9)


def test_axial_field_exact(nv):
    ori = Orientation.nv_class(1)
    axis = ori.rotation[:, 2]
    for b in np.linspace(0.0, 300.0, 31):
        lo, hi = nv_probe_frequencies(nv, b, axis, ori)
        assert abs(lo - (2870.0 - GAMMA_E * b)) <= 1e-9 * 2870.0
        assert abs(hi - (2870.0 + GAMMA_E * b)) <= 1e-9 * 2870.0


def test_axial_100g_example(nv):
    ori = Orientation.nv_class(1)
    lo, hi = nv_probe_frequencies(nv, 100.0, ori.rotation[:, 2], ori)
    assert abs(lo - 2589.75) < 1e-9 * 2870
    assert abs(hi - 3150.25) < 1e-9 * 2870


def test_zeeman_trace_zero(nv13c):
    # Zeeman part alone: D = E = A = P = 0
    bare = SpinSpecies(name="z", S=1.0, D=0.0)
    h = hamiltonian(bare, 77.0, AX_111, Orientation.nv_class(2))
    assert abs(np.trace(h)) < 1e-9
    coupled = SpinSpecies(
        name="zc", S=1.0, D=0.0,
        nuclear=NuclearSpin(I=0.5, gamma_n=1.07e-3, A=np.zeros((3, 3))),
    )
    h = hamiltonian(coupled, 50.0, AX_100, Orientation.nv_class(3))
    assert abs(np.trace(h)) < 1e-9


def test_hermiticity_all_catalog(catalog, rng):
    for species in catalog.values():
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        for ori in species.orientations():
            h = hamiltonian(species, 137.0, axis, ori)
            assert np.max(np.abs(h - h.conj().T)) < 1e-9


def test_eigensystem_contracts(catalog, rng):
    for species in catalog.values():
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        h = hamiltonian(species, 93.0, axis, species.orientations()[0])
        vals, vecs = kernels.eigh(h)
        assert np.all(np.diff(vals) >= -1e-12)
        resid = h @ vecs - vecs * vals[None, :]
        assert np.max(np.abs(resid)) <= 1e-6 * max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(vals)))) < 1e-9


def test_rotation_invariance(nv13c, rng):
    # rotating field and defect frame together must not move eigenvalues
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    ori = Orientation.nv_class(1)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    v0, _ = kernels.eigh(hamiltonian(nv13c, 64.0, axis, ori))
    rotated = Orientation(ori.label, q @ ori.rotation)
    v1, _ = kernels.eigh(hamiltonian(nv13c, 64.0, q @ axis, rotated))
    assert np.max(np.abs(v0 - v1)) <= 1e-9 * max(1.0, np.max(np.abs(v0)))


@pytest.mark.parametrize("name", ["NV", "NV-13C"])
def test_100_class_degeneracy(catalog, name):
    species = catalog[name]
    ref = None
    for ori in species.orientations():
        vals, _ = kernels.eigh(hamiltonian(species, 88.0, AX_100, ori))
        if ref is None:
            ref = vals
        else:
            assert np.max(np.abs(vals - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def tracked_lines(species, amplitude, orientation, rule):
    """(from, to, frequency) of each rule pair at one amplitude along [100],
    with labels anchored at 0 G and tracked up to it in steps of at most 0.5 G
    (and at least amplitude/4096)."""
    if amplitude == 0:
        labels, energies, _ = anchor_labels(species)
    else:
        step = max(min(0.5, amplitude / 16), amplitude / 4096)
        grid = np.append(np.arange(0.0, amplitude, step), amplitude)
        track = track_levels(species, orientation, AX_100, grid)
        labels, energies = track.labels, track.energies[-1]
    by_label = dict(zip(labels, energies))
    return [(a, b, abs(by_label[b] - by_label[a]))
            for a, b in transition_pairs(species, labels, rule)]


# ------------------------------------------------- coupled-system oracles

def test_nv13c_zero_field_vs_oracle(nv13c):
    h = hamiltonian(nv13c, 0.0, AX_100, Orientation.nv_class(1))
    vals, _ = kernels.eigh(h)
    assert np.max(np.abs(vals - np.array(NV13C_B0_EIGS))) < 2e-7
    # and the longhand assembly agrees with the package builder spectrally
    oracle = eigvals_inertia(nv13c_matrix(), tol=1e-12)
    assert np.max(np.abs(vals - oracle)) < 2e-7


def test_nv13c_20g_complex_split_vs_oracle(nv13c):
    tr = tracked_lines(nv13c, 20.0, Orientation.nv_class(1), ManifoldRule.COMPLEX_SPLIT)
    assert len(tr) == 8
    lower = sorted(f for _, to, f in tr if manifold_of(to) == "ms=-1")
    upper = sorted(f for _, to, f in tr if manifold_of(to) == "ms=+1")
    assert len(lower) == 4 and len(upper) == 4
    assert np.max(np.abs(np.array(lower) - NV13C_20G_LOWER)) < 2e-4
    assert np.max(np.abs(np.array(upper) - NV13C_20G_UPPER)) < 2e-4
    # every line is a difference of oracle eigenvalues of the same system
    oracle = eigvals_inertia(
        nv13c_matrix() + 20.0 * zeeman_matrix_100_nv13c(), tol=1e-12
    )
    diffs = np.abs(oracle[:, None] - oracle[None, :]).ravel()
    for f in lower + upper:
        assert np.min(np.abs(diffs - f)) < 2e-4


# ---------------------------------------------------------- labels, rules

def test_nv_anchor_labels(nv):
    labels, vals, _ = anchor_labels(nv)
    assert sorted(labels) == ["ms=+1", "ms=-1", "ms=0"]
    assert abs(vals[labels.index("ms=0")]) < 1e-9


def test_p1_anchor_labels_energy_fallback(p1):
    # P1 zero-field eigenstates are electron-nuclear entangled, so labels
    # fall back to energy rank
    labels, vals, _ = anchor_labels(p1)
    assert labels == ("E0", "E1", "E2", "E3", "E4", "E5")
    assert np.all(np.diff(vals) >= -1e-9)


def test_nv13c_anchor_labels_clean(nv13c):
    labels, _, _ = anchor_labels(nv13c)
    manifolds = sorted(manifold_of(l) for l in labels)
    assert manifolds == ["ms=+1", "ms=+1", "ms=-1", "ms=-1", "ms=0", "ms=0"]


def test_transition_rules(nv, p1, nv13c):
    assert default_rule(nv) is ManifoldRule.NV_PROBE
    assert default_rule(p1) is ManifoldRule.ALL_PAIRS
    assert default_rule(nv13c) is ManifoldRule.COMPLEX_SPLIT
    labels, _, _ = anchor_labels(p1)
    assert len(transition_pairs(p1, labels, ManifoldRule.ALL_PAIRS)) == 15
    with pytest.raises(ValueError):
        transition_pairs(p1, labels, ManifoldRule.NV_PROBE)
    with pytest.raises(ValueError):
        transition_pairs(p1, labels, ManifoldRule.COMPLEX_SPLIT)


def test_nv_probe_at_zero_field(nv):
    tr = tracked_lines(nv, 0.0, Orientation.nv_class(1), ManifoldRule.NV_PROBE)
    assert len(tr) == 2
    assert all(abs(f - 2870.0) < 1e-9 for _, _, f in tr)
    assert {f"{a}>{b}" for a, b, _ in tr} == {"ms=0>ms=-1", "ms=0>ms=+1"}


def test_p1_fifteen_transitions(p1):
    tr = tracked_lines(p1, 35.0, Orientation.nv_class(1), ManifoldRule.ALL_PAIRS)
    assert len(tr) == 15
    assert all(f >= 0 for _, _, f in tr)


def test_p1_zero_field_blocks(p1):
    # hand block-diagonalisation over mF = ms + mI: the stretched states
    # sit at A_par/2 + P/3, the mixed mF=+-1/2 blocks are 2x2 with
    # flip-flop coupling A_perp/sqrt(2)
    a_par, a_perp, quad = 114.03, 81.33, -3.97
    stretched = a_par / 2.0 + quad / 3.0
    d1 = -2.0 * quad / 3.0               # |+-1/2, 0>
    d2 = -a_par / 2.0 + quad / 3.0       # |-+1/2, +-1>
    mid = 0.5 * (d1 + d2)
    rad = np.hypot(0.5 * (d1 - d2), a_perp / np.sqrt(2.0))
    expect = np.sort([stretched, stretched, mid + rad, mid + rad,
                      mid - rad, mid - rad])
    vals, _ = kernels.eigh(hamiltonian(p1, 0.0, AX_100, Orientation.nv_class(1)))
    assert np.max(np.abs(vals - expect)) < 1e-7


# -------------------------------------------------------------- tracking

def test_tracking_continuity_13c(nv13c):
    grid = np.arange(0.0, 145.0 + 1e-9, 0.1)
    track = track_levels(nv13c, Orientation.nv_class(1), AX_100, grid)
    steps = np.abs(np.diff(track.energies, axis=0))
    assert np.max(steps) <= 3.0 * GAMMA_E * 0.1
    assert track.min_overlap > 0.5
    assert track.tracking_ok


def test_tracking_continuity_p1(p1):
    grid = np.arange(0.0, 250.0 + 1e-9, 0.1)
    track = track_levels(p1, Orientation.nv_class(1), AX_100, grid)
    assert np.max(np.abs(np.diff(track.energies, axis=0))) <= 3.0 * GAMMA_E * 0.1
    assert track.min_overlap > 0.5


def test_track_grid_validation(nv):
    with pytest.raises(ValueError):
        track_levels(nv, Orientation.nv_class(1), AX_100, np.array([1.0, 1.0]))


def test_tracking_warning_not_relabeling(nv13c, monkeypatch):
    # force the diagnostic threshold above any physical overlap: the warn
    # path must fire while the labels stay anchored
    monkeypatch.setattr(spin_mod, "TRACKING_OVERLAP_MIN", 1.01)
    grid = np.arange(0.0, 30.0 + 1e-9, 0.5)
    with pytest.warns(TrackingWarning):
        track = track_levels(nv13c, Orientation.nv_class(1), AX_100, grid)
    assert not track.tracking_ok
    labels, _, _ = anchor_labels(nv13c)
    assert track.labels == labels


def test_energies_at_matches_grid(nv13c):
    grid = np.arange(0.0, 60.0 + 1e-9, 0.25)
    track = track_levels(nv13c, Orientation.nv_class(1), AX_100, grid)
    k = 120
    assert np.allclose(track.energies_at(float(grid[k])), track.energies[k], atol=1e-9)


def test_transitions_nonnegative_and_continuous(nv13c):
    prev = None
    for b in np.linspace(0.0, 40.0, 9):
        tr = tracked_lines(nv13c, b, Orientation.nv_class(1), ManifoldRule.COMPLEX_SPLIT)
        freqs = {f"{a}>{to}": f for a, to, f in tr}
        assert all(f >= 0 for f in freqs.values())
        if prev is not None:
            for label, f in freqs.items():
                assert abs(f - prev[label]) <= 3.0 * GAMMA_E * 5.0 + 1e-6
        prev = freqs
