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

import warnings
from dataclasses import dataclass, field as dataclass_field
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import kernels

# Electron gyromagnetic ratio, MHz/G (free-electron value used throughout).
GAMMA_E = 2.8025
# 13C nuclear gyromagnetic ratio: 10.7 MHz/T.
GAMMA_N_13C = 1.07e-3
# 14N nuclear gyromagnetic ratio, MHz/G.
GAMMA_N_14N = 3.077e-4
# NV- ground-state zero-field splitting, MHz.
D_NV = 2870.0

HERMITICITY_TOL = 1e-9
# Matched-overlap threshold below which adiabatic tracking is flagged.
TRACKING_OVERLAP_MIN = 0.5
# Eigenvalues closer than this (MHz) count as degenerate when anchoring.
DEGENERACY_TOL = 1e-6

_SQRT3 = np.sqrt(3.0)

# Unnormalised <111> symmetry axes of the four orientation classes.
_CLASS_AXES = {
    1: (1.0, 1.0, 1.0),
    2: (1.0, -1.0, -1.0),
    3: (-1.0, 1.0, -1.0),
    4: (-1.0, -1.0, 1.0),
}

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
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector has no direction")
    return v / n


@dataclass(frozen=True, eq=False)
class MagneticField:
    """Field of given amplitude (gauss) along a unit axis in the lab frame."""

    amplitude: float
    axis: np.ndarray

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("field amplitude must be >= 0")
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise ValueError("axis must have unit norm (within 1e-12)")
        axis = axis.copy()
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)

    @classmethod
    def along(cls, direction, amplitude: float) -> "MagneticField":
        """Field along an (unnormalised) lattice direction like [1,1,1]."""
        return cls(amplitude, _unit(direction))

    @property
    def vector(self) -> np.ndarray:
        return self.amplitude * self.axis


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

    @property
    def symmetry_axis(self) -> np.ndarray:
        return self.rotation[:, 2]

    @classmethod
    def nv_class(cls, k: int) -> "Orientation":
        """One of the four <111> orientation classes (k = 1..4)."""
        if k not in _CLASS_AXES:
            raise ValueError("orientation class must be 1..4")
        return cls(str(k), _C2_OPS[k] @ _BASE_TRIAD)

    @classmethod
    def all_classes(cls) -> list["Orientation"]:
        return [cls.nv_class(k) for k in (1, 2, 3, 4)]

    @classmethod
    def lab(cls) -> "Orientation":
        """Defect frame coincides with the lab frame."""
        return cls("lab", np.eye(3))

    @classmethod
    def from_axis(cls, axis, label: str = "custom") -> "Orientation":
        """Any orthonormal completion of the given symmetry axis."""
        z = _unit(axis)
        ref = np.array([0.0, 0.0, 1.0])
        if abs(z @ ref) > 0.9:
            ref = np.array([1.0, 0.0, 0.0])
        x = _unit(ref - (ref @ z) * z)
        y = np.cross(z, x)
        return cls(label, np.column_stack([x, y, z]))

    def rotated(self, rot) -> "Orientation":
        """This orientation rigidly rotated by ``rot`` in the lab frame."""
        return Orientation(self.label, np.asarray(rot, dtype=float) @ self.rotation)


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


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sx, Sy, Sz for spin s in the basis |s>, |s-1>, ..., |-s>.

    Satisfy [Sx, Sy] = i Sz (cyclically); Sz = diag(s, ..., -s).
    """
    if s not in (0.5, 1.0):
        raise ValueError("unsupported spin value (must be 1/2 or 1)")
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return sx, sy, sz


# S=1 zero-field operator parts, formed as in hamiltonian_parts
_SX1, _SY1, _SZ1 = spin_operators(1.0)
_SZ2 = _SZ1 @ _SZ1
_SXY = _SX1 @ _SX1 - _SY1 @ _SY1


def hamiltonian_parts(
    species: SpinSpecies, axis, orientation: Orientation
) -> tuple[np.ndarray, np.ndarray]:
    """Split H(B) = H0 + B * H1 for a sweep along a fixed lab axis.

    H0 carries the internal terms (zero-field splitting, hyperfine,
    quadrupole); H1 the electron and nuclear Zeeman terms per gauss.
    """
    axis = np.asarray(axis, dtype=float)
    b = orientation.rotation.T @ axis  # unit axis in the defect frame
    sx, sy, sz = spin_operators(species.S)
    h0 = species.D * (sz @ sz) + species.E * (sx @ sx - sy @ sy)
    h1 = species.gamma_e * (b[0] * sx + b[1] * sy + b[2] * sz)
    nuc = species.nuclear
    if nuc is None:
        return h0, h1
    ix, iy, iz = spin_operators(nuc.I)
    ndim = ix.shape[0]
    eye_e = np.eye(h0.shape[0])
    eye_n = np.eye(ndim)
    h0 = np.kron(h0, eye_n)
    h1 = np.kron(h1, eye_n)
    h1 = h1 + nuc.gamma_n * np.kron(eye_e, b[0] * ix + b[1] * iy + b[2] * iz)
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


def build_hamiltonian(
    species: SpinSpecies, field: MagneticField, orientation: Orientation
) -> np.ndarray:
    """Full Hamiltonian (MHz) of one species at one field, defect frame."""
    h0, h1 = hamiltonian_parts(species, field.axis, orientation)
    return h0 + field.amplitude * h1


def eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal column eigenvectors.

    Rejects non-Hermitian input (entrywise tolerance 1e-9 MHz).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")
    return kernels.eigh(h)


def _sz_operator(species: SpinSpecies) -> np.ndarray:
    _, _, sz = spin_operators(species.S)
    if species.nuclear is not None:
        sz = np.kron(sz, np.eye(int(round(2 * species.nuclear.I + 1))))
    return sz


def _split_degenerate(vals, vecs, op, tol=DEGENERACY_TOL):
    """Rotate eigenvectors inside each degenerate cluster to diagonalise
    ``op`` there (deterministic basis in place of LAPACK's arbitrary one)."""
    vecs = vecs.copy()
    n = len(vals)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] - vals[stop - 1] <= tol:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            sub = block.conj().T @ op @ block
            _, u = np.linalg.eigh(sub)
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
    vals, vecs = eigensystem(h0)
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


def _match_order(prev_vecs, new_vecs):
    """Map each previous column to its maximum-overlap new column.

    Returns (order, min_overlap): order[i] is the new index continuing
    previous state i; min_overlap is the smallest matched |<prev|new>|.
    """
    ov = np.abs(prev_vecs.conj().T @ new_vecs)
    d = ov.shape[0]
    order = np.argmax(ov, axis=1)
    if len(set(order.tolist())) != d:
        rows, cols = linear_sum_assignment(-(ov**2))
        order = cols[np.argsort(rows)]
    return order, float(np.min(ov[np.arange(d), order]))


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

    def energies_at(self, amplitude: float) -> np.ndarray:
        """Label-ordered energies at an arbitrary field amplitude, matched
        against the nearest tracked grid point."""
        h0, h1 = self._parts
        vals, vecs = kernels.eigh(h0 + amplitude * h1)
        k = int(np.clip(np.searchsorted(self.B, amplitude), 0, len(self.B) - 1))
        if k > 0 and amplitude - self.B[k - 1] < self.B[k] - amplitude:
            k -= 1
        order, _ = _match_order(self.vectors[k], vecs)
        return vals[order]


def track_levels(
    species: SpinSpecies,
    orientation: Orientation,
    axis,
    b_grid,
    ramp_step: float = 0.5,
) -> LevelTrack:
    """Track labelled levels over ``b_grid`` (gauss, ascending) along
    ``axis``.

    Labels are anchored at B=0; if the grid starts above zero an internal
    ramp (step <= ramp_step) carries the labels up to it.  A matched
    overlap below 0.5 raises a TrackingWarning, never a relabelling.
    """
    axis = _unit(axis)
    b_grid = np.asarray(b_grid, dtype=float)
    if b_grid.ndim != 1 or len(b_grid) == 0 or np.any(np.diff(b_grid) <= 0):
        raise ValueError("field grid must be non-empty and strictly increasing")
    h0, h1 = hamiltonian_parts(species, axis, orientation)

    n_ramp = 0
    if b_grid[0] > 0:
        step = min(ramp_step, np.min(np.diff(b_grid)) if len(b_grid) > 1 else ramp_step)
        ramp = np.arange(0.0, b_grid[0], step)
        n_ramp = len(ramp)
        full = np.concatenate([ramp, b_grid])
    else:
        full = b_grid

    h_stack = h0[None, :, :] + full[:, None, None] * h1[None, :, :]
    vals, vecs = kernels.eigh_stack(h_stack)

    labels, _, anchor_vecs = anchor_labels(species)
    d = species.dim
    lab2raw = np.empty((len(full), d), dtype=int)
    order, min_ov = _match_order(anchor_vecs, vecs[0])
    lab2raw[0] = order
    if len(full) > 1:
        ov_all = np.abs(np.matmul(vecs[:-1].conj().transpose(0, 2, 1), vecs[1:]))
        for k in range(1, len(full)):
            ov = ov_all[k - 1]
            step_order = np.argmax(ov, axis=1)
            if len(set(step_order.tolist())) != d:
                rows, cols = linear_sum_assignment(-(ov**2))
                step_order = cols[np.argsort(rows)]
            min_ov = min(min_ov, float(np.min(ov[np.arange(d), step_order])))
            lab2raw[k] = step_order[lab2raw[k - 1]]

    rows = np.arange(len(full))[:, None]
    energies = vals[rows, lab2raw]
    vectors = vecs[rows[:, :, None], np.arange(d)[None, :, None], lab2raw[:, None, :]]

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


@dataclass(frozen=True)
class LabeledTransition:
    """A labelled transition frequency of one species at one field."""

    species: str
    orientation: str
    from_state: str
    to_state: str
    frequency: float

    @property
    def pair_label(self) -> str:
        return f"{self.from_state}>{self.to_state}"


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


def transitions(
    species: SpinSpecies,
    field: MagneticField,
    orientation: Orientation,
    rule: ManifoldRule,
) -> list[LabeledTransition]:
    """Labelled transition frequencies of one species at one field point.

    Labels are anchored at B=0 and tracked up to the requested amplitude.
    """
    if field.amplitude == 0:
        labels, vals, _ = anchor_labels(species)
        track_labels, energies = labels, vals
    else:
        step = max(min(0.5, field.amplitude / 16), field.amplitude / 4096)
        grid = np.arange(0.0, field.amplitude, step)
        grid = np.append(grid, field.amplitude)
        track = track_levels(species, orientation, field.axis, grid)
        track_labels = track.labels
        energies = track.energies[-1]
    by_label = dict(zip(track_labels, energies))
    out = []
    for a, b in transition_pairs(species, track_labels, rule):
        f = abs(by_label[b] - by_label[a])
        out.append(
            LabeledTransition(
                species=species.name,
                orientation=orientation.label,
                from_state=a,
                to_state=b,
                frequency=float(f),
            )
        )
    return out


def probe_zeeman(species: SpinSpecies, axis, orientation: Orientation) -> np.ndarray:
    """Zeeman part H1 (MHz per gauss) of a bare S=1 species along a unit
    lab axis, the h1 that ``probe_frequencies`` takes."""
    if species.S != 1.0 or species.nuclear is not None:
        raise ValueError("probe frequencies require a bare S=1 species")
    return hamiltonian_parts(species, axis, orientation)[1]


def probe_frequencies(d, e, b, h1) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) probe frequencies of a stack of bare S=1 Hamiltonians
    from sorted eigenvalues, in one stacked eigensolve.

    Row k is (d[k]*Sz^2 + e[k]*(Sx^2 - Sy^2)) + b[k]*h1[k], summed in the
    order that ``hamiltonian_parts`` and ``build_hamiltonian`` use, so each
    row equals the single-matrix result bit for bit.  d, e and b (MHz, MHz,
    gauss) are scalars or length-n arrays; h1 is a stack (n, 3, 3) or
    (1, 3, 3) of Zeeman parts from ``probe_zeeman``.  Valid while ms=0
    stays the ground state, as for ``nv_probe_frequencies``.
    """
    def column(v):
        return np.reshape(np.asarray(v, dtype=float), (-1, 1, 1))

    h = (column(d) * _SZ2 + column(e) * _SXY) + column(b) * np.asarray(h1)
    vals, _ = kernels.eigh_stack(h, compute_vectors=False)
    return vals[:, 1] - vals[:, 0], vals[:, 2] - vals[:, 0]


def nv_probe_frequencies(
    species: SpinSpecies, field: MagneticField, orientation: Orientation
) -> tuple[float, float]:
    """(lower, upper) probe frequencies of a bare S=1 species from sorted
    eigenvalues.

    Valid while ms=0 stays the ground state (fields well below the
    ground-state level anticrossing), where sorting equals tracking; used
    on hot paths that need no labels.  A one-row ``probe_frequencies``.
    """
    h1 = probe_zeeman(species, field.axis, orientation)
    lower, upper = probe_frequencies(species.D, species.E, field.amplitude, h1[None])
    return float(lower[0]), float(upper[0])
