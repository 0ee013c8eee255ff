"""Spin Hamiltonians for paramagnetic defects in diamond.

Builds and diagonalises the ground-state Hamiltonians of S=1/2 and S=1
defects (optionally hyperfine-coupled to one nuclear spin), with the
defect symmetry axis on any of the four <111> body diagonals of the cubic
crystal or aligned with the lab frame.  Energies are in MHz, magnetic
fields in gauss.

The level labelling is anchored at zero field and carried along field
sweeps by maximum-overlap (adiabatic) tracking, so a label such as
"ms=-1" always refers to the state that is continuously connected to the
B=0 eigenstate of that name.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np

from . import kernels

# Electron gyromagnetic ratio, MHz/G (free-electron value used throughout).
GAMMA_E = 2.8025

# Matched-overlap threshold below which adiabatic tracking is flagged.
TRACKING_OVERLAP_MIN = 0.5
# Eigenvalues closer than this (MHz) count as degenerate when anchoring.
DEGENERACY_TOL = 1e-6
# Largest step (G) of the zero-field ramp that carries labels up to a grid
RAMP_STEP_G = 0.5

_SQRT3 = np.sqrt(3.0)

# Defect-frame triad of class 1; classes 2-4 follow by the C2 rotations
# about the cube axes, which keeps the four classes exactly equivalent for
# a field along [100] even with an anisotropic hyperfine tensor.
_BASE_TRIAD = np.array(
    [
        [1.0 / np.sqrt(6.0), -1.0 / np.sqrt(2.0), 1.0 / _SQRT3],
        [1.0 / np.sqrt(6.0), 1.0 / np.sqrt(2.0), 1.0 / _SQRT3],
        [-2.0 / np.sqrt(6.0), 0.0, 1.0 / _SQRT3],
    ]
)
_C2_OPS = {
    1: np.eye(3),
    2: np.diag([1.0, -1.0, -1.0]),
    3: np.diag([-1.0, 1.0, -1.0]),
    4: np.diag([-1.0, -1.0, 1.0]),
}


class TrackingWarning(UserWarning):
    """Adiabatic label tracking fell below the overlap threshold."""


class ManifoldRule(str, Enum):
    """Which eigenstate pairs count as transitions."""

    NV_PROBE = "nv_probe"
    ALL_PAIRS = "all_pairs"
    COMPLEX_SPLIT = "complex_split"


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError("direction must be a finite 3-vector")
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector has no direction")
    return v / n


@dataclass(frozen=True, eq=False)
class Orientation:
    """Defect frame: columns of ``rotation`` are the defect x,y,z axes in
    lab coordinates, z being the symmetry axis."""

    label: str
    rotation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        if rot.shape != (3, 3) or np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-9:
            raise ValueError("rotation must be a 3x3 orthonormal matrix")
        rot = rot.copy()
        rot.flags.writeable = False
        object.__setattr__(self, "rotation", rot)

    @classmethod
    def nv_class(cls, k: int) -> "Orientation":
        """One of the four <111> orientation classes (k = 1..4)."""
        if k not in _C2_OPS:
            raise ValueError("orientation class must be 1..4")
        return cls(str(k), _C2_OPS[k] @ _BASE_TRIAD)

    @classmethod
    def all_classes(cls) -> list["Orientation"]:
        return [cls.nv_class(k) for k in (1, 2, 3, 4)]

    @classmethod
    def lab(cls) -> "Orientation":
        """Defect frame coincides with the lab frame."""
        return cls("lab", np.eye(3))


@dataclass(frozen=True, eq=False)
class NuclearSpin:
    """One nuclear spin hyperfine-coupled to the electron spin.

    A is the 3x3 hyperfine tensor (MHz) in the defect frame;
    quadrupole_P (MHz) applies to spin-1 nuclei only.
    """

    I: float
    gamma_n: float
    A: np.ndarray
    quadrupole_P: float = 0.0

    def __post_init__(self):
        if self.I not in (0.5, 1.0):
            raise ValueError("nuclear spin must be 1/2 or 1")
        A = np.asarray(self.A, dtype=float)
        if A.shape != (3, 3):
            raise ValueError("hyperfine tensor must be 3x3")
        if np.max(np.abs(A - A.T)) > 1e-6:
            raise ValueError("hyperfine tensor must be symmetric")
        if self.quadrupole_P != 0.0 and self.I != 1.0:
            raise ValueError("quadrupole term applies to spin-1 nuclei only")
        A = A.copy()
        A.flags.writeable = False
        object.__setattr__(self, "A", A)


@dataclass(frozen=True, eq=False)
class SpinSpecies:
    """Parametric spin Hamiltonian of one defect species.

    D, E in MHz; gamma_e in MHz/G.  ``orientation_kind`` is "111" for
    trigonal defects (four classes) or "lab" for a frame-aligned model.
    """

    name: str
    S: float
    D: float
    E: float = 0.0
    gamma_e: float = GAMMA_E
    nuclear: NuclearSpin | None = None
    orientation_kind: str = "111"

    def __post_init__(self):
        if self.S not in (0.5, 1.0):
            raise ValueError("electron spin must be 1/2 or 1")
        if self.orientation_kind not in ("111", "lab"):
            raise ValueError("orientation_kind must be '111' or 'lab'")
        if self.dim not in (2, 3, 6):
            raise ValueError(f"unsupported Hamiltonian dimension {self.dim}")

    @property
    def dim(self) -> int:
        n = 1 if self.nuclear is None else int(round(2 * self.nuclear.I + 1))
        return int(round(2 * self.S + 1)) * n

    def orientations(self) -> list[Orientation]:
        if self.orientation_kind == "lab":
            return [Orientation.lab()]
        return Orientation.all_classes()


def _build_spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    ops = ((sp + sm) / 2, (sp - sm) / 2j, sz)
    for op in ops:
        op.flags.writeable = False
    return ops


# Sx, Sy, Sz of every supported spin, built once and shared read-only
_SPIN_OPS = {s: _build_spin_operators(s) for s in (0.5, 1.0)}


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sx, Sy, Sz for spin s in the basis |s>, |s-1>, ..., |-s>.

    Satisfy [Sx, Sy] = i Sz (cyclically); Sz = diag(s, ..., -s).  The
    arrays are read-only and shared between calls.
    """
    if s not in (0.5, 1.0):
        raise ValueError("unsupported spin value (must be 1/2 or 1)")
    return _SPIN_OPS[s]


def hamiltonian_parts(
    species: SpinSpecies, axis, orientation: Orientation
) -> tuple[np.ndarray, np.ndarray]:
    """Split H(B) = H0 + B * H1 for a sweep along a fixed lab axis.

    H0 carries the internal terms (zero-field splitting, hyperfine,
    quadrupole); H1 the electron and nuclear Zeeman terms per gauss.
    ``axis`` is one unit lab axis (3,), giving H1 of shape (d, d), or a
    stack (n, 3), giving (n, d, d) whose row k equals the single-axis H1
    of axis k bit for bit; H0 is (d, d) either way.
    """
    b = np.asarray(axis, dtype=float) @ orientation.rotation  # defect frame
    bx, by, bz = (b[..., k, None, None] for k in range(3))
    sx, sy, sz = _SPIN_OPS[species.S]
    h0 = species.D * (sz @ sz) + species.E * (sx @ sx - sy @ sy)
    h1 = species.gamma_e * (bx * sx + by * sy + bz * sz)
    nuc = species.nuclear
    if nuc is None:
        return h0, h1
    ix, iy, iz = _SPIN_OPS[nuc.I]
    ndim = ix.shape[0]
    eye_e = np.eye(h0.shape[0])
    eye_n = np.eye(ndim)
    h0 = np.kron(h0, eye_n)
    h1 = np.kron(h1, eye_n)
    h1 = h1 + nuc.gamma_n * np.kron(eye_e, bx * ix + by * iy + bz * iz)
    svec = [np.kron(op, eye_n) for op in (sx, sy, sz)]
    ivec = [np.kron(eye_e, op) for op in (ix, iy, iz)]
    for i in range(3):
        for j in range(3):
            if nuc.A[i, j] != 0.0:
                h0 = h0 + nuc.A[i, j] * (svec[i] @ ivec[j])
    if nuc.quadrupole_P != 0.0:
        h0 = h0 + nuc.quadrupole_P * np.kron(
            eye_e, iz @ iz - nuc.I * (nuc.I + 1) / 3 * eye_n
        )
    return h0, h1


def _sz_operator(species: SpinSpecies) -> np.ndarray:
    sz = _SPIN_OPS[species.S][2]
    if species.nuclear is not None:
        sz = np.kron(sz, np.eye(int(round(2 * species.nuclear.I + 1))))
    return sz


def _split_degenerate(vals, vecs, op):
    """Rotate eigenvectors inside each degenerate cluster to diagonalise
    ``op`` there (deterministic basis in place of LAPACK's arbitrary one)."""
    vecs = vecs.copy()
    n = len(vals)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] - vals[stop - 1] <= DEGENERACY_TOL:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            sub = block.conj().T @ op @ block
            _, u = kernels.eigh(sub)
            vecs[:, start:stop] = block @ u
        start = stop
    return vecs


def _ms_string(m: float, half: bool) -> str:
    if half:
        return f"ms={'+' if m > 0 else '-'}1/2"
    m = int(round(m))
    return f"ms={m:+d}" if m else "ms=0"


def anchor_labels(species: SpinSpecies) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Zero-field eigenstates with their labels.

    Returns (labels, energies, vectors); vectors column k belongs to
    labels[k].  Degenerate zero-field levels are anchored by the Sz
    expectation value.  Coupled systems get manifold labels like
    "ms=-1:0" when every eigenstate classifies cleanly onto an ms value,
    otherwise plain energy-ordered labels "E0".."E5" (the P1 case, whose
    zero-field eigenstates are electron-nuclear entangled).
    """
    h0, _ = hamiltonian_parts(species, np.array([0.0, 0.0, 1.0]), Orientation.lab())
    vals, vecs = kernels.eigh(h0)
    sz = _sz_operator(species)
    vecs = _split_degenerate(vals, vecs, sz)
    sz_exp = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), sz, vecs))
    half = species.S == 0.5

    if species.nuclear is None:
        if species.S == 1.0:
            labels = [""] * 3
            i0 = int(np.argmin(np.abs(sz_exp)))
            rest = [i for i in range(3) if i != i0]
            labels[i0] = "ms=0"
            if abs(sz_exp[rest[0]] - sz_exp[rest[1]]) > 0.5:
                for i in rest:
                    labels[i] = _ms_string(np.sign(sz_exp[i]), False)
            else:
                # transverse-ZFS mixed pair: lower level connects to ms=-1
                lo, hi = sorted(rest, key=lambda i: vals[i])
                labels[lo], labels[hi] = "ms=-1", "ms=+1"
        else:
            order = np.argsort(sz_exp)
            labels = [""] * 2
            labels[order[0]] = "ms=-1/2"
            labels[order[1]] = "ms=+1/2"
        return tuple(labels), vals, vecs

    ms_values = species.S - np.arange(int(round(2 * species.S + 1)))
    guess = np.round(sz_exp * 2) / 2 if half else np.round(sz_exp)
    clean = np.all(np.abs(sz_exp - guess) <= 0.35) and all(
        g in ms_values for g in guess
    )
    labels = [""] * species.dim
    if clean:
        for m in ms_values:
            idx = [i for i in range(species.dim) if guess[i] == m]
            for k, i in enumerate(sorted(idx, key=lambda i: vals[i])):
                labels[i] = f"{_ms_string(m, half)}:{k}"
        if all(labels):
            return tuple(labels), vals, vecs
    order = np.lexsort((sz_exp, vals))
    for k, i in enumerate(order):
        labels[i] = f"E{k}"
    return tuple(labels), vals, vecs


def manifold_of(label: str) -> str:
    """The ms-manifold part of a state label ("ms=-1:0" -> "ms=-1")."""
    return label.split(":")[0]


def linear_sum_assignment(cost):
    """Minimum-cost assignment of a square cost matrix (d <= 6) by
    exhaustive search over its d! permutations.

    Returns (rows, cols) as scipy's solver of the same name does; among
    permutations of equal cost the first in lexicographic order wins.
    """
    cost = np.asarray(cost, dtype=float)
    d = len(cost)
    perms = np.array(list(itertools.permutations(range(d))))
    total = cost[np.arange(d), perms].sum(axis=1)
    return np.arange(d), perms[np.argmin(total)]


def _match_order(prev_vecs, new_vecs):
    """Map each previous column to its maximum-overlap new column, for
    stacks (n, d, d) of eigenvector columns.

    Returns (order, min_overlap): order[k, i] is the new index continuing
    previous state i in row k; min_overlap[k] is the smallest matched
    |<prev|new>| of row k.  A row whose argmax picks one column twice
    falls back to the assignment maximising the summed squared overlap.
    """
    ov = np.abs(prev_vecs.conj().transpose(0, 2, 1) @ new_vecs)
    order = ov.argmax(axis=2)
    matched = ov.max(axis=2)
    picked = np.sort(order, axis=1)
    for k in np.flatnonzero((picked[:, 1:] == picked[:, :-1]).any(axis=1)):
        rows, cols = linear_sum_assignment(-(ov[k] ** 2))
        order[k] = cols[np.argsort(rows)]
        matched[k] = ov[k, rows, cols]
    return order, matched.min(axis=1)


@dataclass(eq=False)
class LevelTrack:
    """Adiabatically labelled energy levels along a field sweep.

    energies[k, l] is the level with labels[l] at field B[k]; vectors[k]
    holds the matching eigenvector columns in label order.
    """

    species: SpinSpecies
    orientation: Orientation
    axis: np.ndarray
    B: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple[str, ...]
    min_overlap: float
    _parts: tuple[np.ndarray, np.ndarray] = dataclass_field(repr=False, default=None)

    @property
    def tracking_ok(self) -> bool:
        return self.min_overlap >= TRACKING_OVERLAP_MIN

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def energies_at(self, amplitude) -> np.ndarray:
        """Label-ordered energies at arbitrary field amplitudes, each
        matched against the nearest tracked grid point: (d,) for a
        scalar, (..., d) for an array."""
        flat = np.ravel(np.asarray(amplitude, dtype=float))
        h0, h1 = self._parts
        vals, vecs = kernels.eigh_stack(h0 + flat[:, None, None] * h1)
        k = np.minimum(np.searchsorted(self.B, flat), len(self.B) - 1)
        k -= (k > 0) & (flat - self.B[k - 1] < self.B[k] - flat)
        order, _ = _match_order(self.vectors[k], vecs)
        return vals[np.arange(len(flat))[:, None], order].reshape(np.shape(amplitude) + (-1,))


def track_levels(
    species: SpinSpecies,
    orientation: Orientation,
    axis,
    b_grid,
) -> LevelTrack:
    """Track labelled levels over ``b_grid`` (gauss, ascending) along
    ``axis``.

    Labels are anchored at B=0; if the grid starts above zero an internal
    ramp (step <= RAMP_STEP_G) carries the labels up to it.  A matched
    overlap below 0.5 raises a TrackingWarning, never a relabelling.
    """
    axis = _unit(axis)
    b_grid = np.asarray(b_grid, dtype=float)
    if b_grid.ndim != 1 or len(b_grid) == 0 or np.any(np.diff(b_grid) <= 0):
        raise ValueError("field grid must be non-empty and strictly increasing")
    h0, h1 = hamiltonian_parts(species, axis, orientation)

    n_ramp = 0
    if b_grid[0] > 0:
        step = min(RAMP_STEP_G, np.min(np.diff(b_grid)) if len(b_grid) > 1 else RAMP_STEP_G)
        ramp = np.arange(0.0, b_grid[0], step)
        n_ramp = len(ramp)
        full = np.concatenate([ramp, b_grid])
    else:
        full = b_grid

    h_stack = h0[None, :, :] + full[:, None, None] * h1[None, :, :]
    vals, vecs = kernels.eigh_stack(h_stack)

    labels, _, anchor_vecs = anchor_labels(species)
    d = species.dim
    # row 0 matches the anchor, row k > 0 grid step k - 1 to step k
    prev = np.concatenate([anchor_vecs[None], vecs[:-1]])
    step_order, step_min = _match_order(prev, vecs)
    min_ov = float(np.min(step_min))
    # label -> raw column, composed only where a step permutes the columns
    moved = np.flatnonzero(np.any(step_order != np.arange(d), axis=1))
    perms = [np.arange(d)]
    for k in moved:
        perms.append(step_order[k][perms[-1]])
    lab2raw = np.array(perms)[np.searchsorted(moved, np.arange(len(full)), side="right")]

    energies = np.take_along_axis(vals, lab2raw, axis=1)
    vectors = np.take_along_axis(vecs, lab2raw[:, None, :], axis=2)

    track = LevelTrack(
        species=species,
        orientation=orientation,
        axis=axis,
        B=full[n_ramp:],
        energies=energies[n_ramp:],
        vectors=vectors[n_ramp:],
        labels=labels,
        min_overlap=min_ov,
        _parts=(h0, h1),
    )
    if not track.tracking_ok:
        warnings.warn(
            f"adiabatic tracking overlap {min_ov:.3f} < {TRACKING_OVERLAP_MIN} "
            f"for {species.name} (orientation {orientation.label})",
            TrackingWarning,
            stacklevel=2,
        )
    return track


def transition_pairs(
    species: SpinSpecies, labels: tuple[str, ...], rule: ManifoldRule
) -> list[tuple[str, str]]:
    """State-label pairs selected by the manifold rule."""
    if rule is ManifoldRule.NV_PROBE:
        if species.S != 1.0 or species.nuclear is not None:
            raise ValueError("NV_PROBE applies to bare S=1 species only")
        return [("ms=0", "ms=-1"), ("ms=0", "ms=+1")]
    if rule is ManifoldRule.ALL_PAIRS:
        ordered = list(labels)
        return [
            (ordered[i], ordered[j])
            for i in range(len(ordered))
            for j in range(i + 1, len(ordered))
        ]
    if rule is ManifoldRule.COMPLEX_SPLIT:
        if species.nuclear is None or species.S != 1.0:
            raise ValueError("COMPLEX_SPLIT applies to coupled S=1 systems")
        lower = [l for l in labels if manifold_of(l) == "ms=0"]
        upper = [l for l in labels if manifold_of(l) in ("ms=-1", "ms=+1")]
        if not lower or not upper:
            raise ValueError("species labels lack ms manifolds")
        return [(a, b) for a in lower for b in upper]
    raise ValueError(f"unknown manifold rule {rule!r}")


def default_rule(species: SpinSpecies) -> ManifoldRule:
    """Natural transition rule for a species: probe lines for bare S=1,
    manifold-split lines for coupled S=1, everything for the rest."""
    if species.nuclear is None and species.S == 1.0:
        return ManifoldRule.NV_PROBE
    if species.nuclear is not None and species.S == 1.0:
        return ManifoldRule.COMPLEX_SPLIT
    return ManifoldRule.ALL_PAIRS


# S=1 zero-field parts per MHz of D and E, formed as in hamiltonian_parts
_S1 = _SPIN_OPS[1.0]
_SZ2, _SXY = _S1[2] @ _S1[2], _S1[0] @ _S1[0] - _S1[1] @ _S1[1]


def probe_frequencies(d, e, b, h1) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) probe frequencies of a stack of bare S=1 Hamiltonians
    from sorted eigenvalues, in one stacked eigensolve.

    Row k is (d[k]*Sz^2 + e[k]*(Sx^2 - Sy^2)) + b[k]*h1[k], summed in the
    order of H0 + B * H1 from ``hamiltonian_parts``, so each row equals
    the single-matrix result bit for bit.  d, e and b (MHz, MHz, gauss)
    are scalars or length-n arrays; h1 is a stack (n, 3, 3) or (1, 3, 3)
    of Zeeman parts, ``hamiltonian_parts(...)[1]`` of a bare S=1 species
    (ValueError for any other size).  Valid while ms=0 stays the ground
    state (fields well below the ground-state level anticrossing), where
    sorting equals tracking.
    """
    h1 = np.asarray(h1)
    if h1.shape[-2:] != (3, 3):
        raise ValueError("probe frequencies require a bare S=1 species")

    def column(v):
        return np.reshape(np.asarray(v, dtype=float), (-1, 1, 1))

    h = (column(d) * _SZ2 + column(e) * _SXY) + column(b) * h1
    vals, _ = kernels.eigh_stack(h, compute_vectors=False)
    return vals[:, 1] - vals[:, 0], vals[:, 2] - vals[:, 0]


def nv_probe_frequencies(
    species: SpinSpecies, amplitude: float, axis, orientation: Orientation
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) probe frequencies of a bare S=1 species at one field
    ``amplitude`` (gauss) along each unit lab axis: ``probe_frequencies``
    on the Zeeman parts of ``hamiltonian_parts``, valid where it is.

    ``axis`` is one axis (3,), giving 0-d arrays, or a stack (n, 3),
    giving (n,) arrays whose row k equals the single-axis result of axis
    k bit for bit.
    """
    h1 = hamiltonian_parts(species, axis, orientation)[1]
    # any Zeeman size reaches probe_frequencies, which rejects all but 3x3
    stack = h1.reshape((-1,) + h1.shape[-2:])
    lower, upper = probe_frequencies(species.D, species.E, amplitude, stack)
    return lower.reshape(h1.shape[:-2]), upper.reshape(h1.shape[:-2])
