"""Field sweeps, transition curves, and resonance-condition root finding.

Sweeps the field amplitude along a fixed axis for each species, producing
adiabatically labelled transition curves, then locates every field where
two curves meet: direct level-crossing resonances between species, and
the three-body NV-P1 condition where a P1 transition matches the NV
branch difference.  All roots come from one bracketing + bisection engine
operating on exact Hamiltonians, never on interpolated samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .roots import bisect
from .spin import (
    LevelTrack,
    ManifoldRule,
    SpinSpecies,
    default_rule,
    track_levels,
    transition_pairs,
)

# curves agreeing to this tolerance everywhere are one curve (degenerate classes)
CURVE_DEDUP_TOL = 1e-6
# refinement targets from the resonance-condition contract
BISECT_TOL_G = 1e-4
FREQ_MATCH_TOL = 1e-3
# events closer than this on one curve pair are numerical duplicates
EVENT_MERGE_G = 0.05
# |f_a - f_b| below this at a grid node counts as an exact on-grid root
GRID_ZERO_TOL = 1e-9
# most field points a sweep may track, counted as B_max / min(step, 0.5 G):
# its grid plus the zero-field ramp (step <= 0.5 G) that track_levels adds
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Amplitude sweep along a fixed lab axis: B_min..B_max gauss."""

    axis: np.ndarray
    b_min: float
    b_max: float
    step: float = 0.1

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,) or not abs(np.linalg.norm(axis) - 1.0) <= 1e-12:
            raise ValueError("sweep axis must be a unit 3-vector")
        for name in ("b_min", "b_max", "step"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"sweep {name} must be finite, not {getattr(self, name)}")
        if not (self.b_min < self.b_max):
            raise ValueError("require B_min < B_max")
        if self.step <= 0 or (self.b_max - self.b_min) / self.step < 2:
            raise ValueError("step must be > 0 with at least 2 steps in range")
        if self.b_min < 0:
            raise ValueError("field amplitudes are non-negative")
        if self.b_max / min(self.step, 0.5) > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep exceeds the limit of {MAX_SWEEP_POINTS} field "
                             "points, counted as B_max / min(step, 0.5 G)")
        axis = axis.copy()
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)

    @property
    def grid(self) -> np.ndarray:
        n = int(np.floor((self.b_max - self.b_min) / self.step + 1e-9)) + 1
        g = self.b_min + self.step * np.arange(n)
        if g[-1] < self.b_max - 1e-9:
            g = np.append(g, self.b_max)
        else:
            g[-1] = self.b_max
        return g


@dataclass(eq=False)
class TransitionCurve:
    """One labelled transition frequency as a function of field amplitude.

    ``multiplicity`` counts coincident curves merged into this one (e.g.
    the four NV orientation classes on a [100] sweep).  ``freq_at``
    re-evaluates the exact Hamiltonian, so refinement does not rely on
    the sampled grid.
    """

    species: str
    orientation: str
    from_state: str
    to_state: str
    B: np.ndarray
    f: np.ndarray
    multiplicity: int = 1
    tracking_ok: bool = True
    _freq_fn: Callable[[np.ndarray], np.ndarray] = dataclass_field(default=None, repr=False)

    @property
    def label(self) -> str:
        return f"{self.from_state}>{self.to_state}"

    @property
    def samples(self) -> np.ndarray:
        return np.column_stack([self.B, self.f])

    def freq_at(self, amplitude):
        """Frequency at one field amplitude or at each of an array of them,
        re-evaluated on the exact Hamiltonian in one stacked call."""
        return self._freq_fn(np.asarray(amplitude, dtype=float))

    def slope_at(self, amplitude, h: float = 0.025):
        lo = np.maximum(self.B[0], amplitude - h)
        hi = np.minimum(self.B[-1], amplitude + h)
        f_hi, f_lo = self.freq_at(np.stack([hi, lo]))
        return (f_hi - f_lo) / (hi - lo)


def _curve_from_track(track: LevelTrack, a: str, b: str) -> TransitionCurve:
    i, j = track.index_of(a), track.index_of(b)

    def freq(amplitude):
        e = track.energies_at(amplitude)
        return np.abs(e[..., j] - e[..., i])

    return TransitionCurve(
        species=track.species.name,
        orientation=track.orientation.label,
        from_state=a,
        to_state=b,
        B=track.B,
        f=np.abs(track.energies[:, j] - track.energies[:, i]),
        tracking_ok=track.tracking_ok,
        _freq_fn=freq,
    )


def sweep_curves(
    species: SpinSpecies,
    spec: SweepSpec,
    orientations=None,
    rule: ManifoldRule | None = None,
) -> list[TransitionCurve]:
    """Transition curves of one species over a sweep, deduplicated.

    One curve per (orientation class, labelled transition); curves that
    coincide within 1e-6 MHz everywhere (degenerate classes) are merged
    with their multiplicity recorded.
    """
    if orientations is None:
        orientations = species.orientations()
    if rule is None:
        rule = default_rule(species)
    grid = spec.grid
    curves: list[TransitionCurve] = []
    for orientation in orientations:
        track = track_levels(species, orientation, spec.axis, grid)
        for a, b in transition_pairs(species, track.labels, rule):
            curves.append(_curve_from_track(track, a, b))
    merged: list[TransitionCurve] = []
    for c in curves:
        for m in merged:
            if np.max(np.abs(c.f - m.f)) < CURVE_DEDUP_TOL:
                m.multiplicity += 1
                break
        else:
            merged.append(c)
    return merged


@dataclass(frozen=True)
class CrossingEvent:
    """Two transition curves meeting at one field."""

    species_a: str
    transition_a: str
    species_b: str
    transition_b: str
    B_star: float
    f_star: float
    slope_gap: float


def _pair_events(ca: TransitionCurve, cb: TransitionCurve) -> list[CrossingEvent]:
    g = ca.f - cb.f
    if np.max(np.abs(g)) < GRID_ZERO_TOL:
        # identical curves: degenerate everywhere, no transversal crossing
        return []

    def gap(x, rows):
        return ca.freq_at(x) - cb.freq_at(x)

    s = np.sign(g)
    k = np.flatnonzero((s[:-1] * s[1:]) < 0)
    roots = np.sort(np.concatenate([
        ca.B[np.abs(g) <= GRID_ZERO_TOL],
        bisect(gap, ca.B[k], ca.B[k + 1], g[k], g[k + 1], BISECT_TOL_G),
    ]))
    if not roots.size:
        return []
    kept = roots[:1].tolist()
    for b_star in roots[1:]:
        if b_star - kept[-1] > EVENT_MERGE_G:
            kept.append(b_star)
    b = np.array(kept)
    fa, fb = ca.freq_at(b), cb.freq_at(b)
    # a root that refinement failed to pin (steep anticrossing) is dropped
    ok = np.abs(fa - fb) <= FREQ_MATCH_TOL
    b, fa, fb = b[ok], fa[ok], fb[ok]
    slope_gaps = np.abs(ca.slope_at(b) - cb.slope_at(b))
    return [
        CrossingEvent(
            species_a=ca.species,
            transition_a=ca.label,
            species_b=cb.species,
            transition_b=cb.label,
            B_star=b_star,
            f_star=f_star,
            slope_gap=slope_gap,
        )
        for b_star, f_star, slope_gap in zip(b, 0.5 * (fa + fb), slope_gaps)
    ]


def find_crossings(
    curves_a: list[TransitionCurve], curves_b: list[TransitionCurve]
) -> list[CrossingEvent]:
    """Every field where a curve from one family meets a curve from the
    other.

    Sign changes of f_a - f_b on the shared grid are bracketed and
    refined by bisection on the exact Hamiltonians to 1e-4 G; grid nodes
    where the difference already vanishes (e.g. B = 0 for the three-body
    condition) are kept as-is.  Tangential approaches without a sign
    change are not events.
    """
    for ca in curves_a:
        for cb in curves_b:
            if not np.array_equal(ca.B, cb.B):
                raise ValueError("curves must share one sweep grid")
    events: list[CrossingEvent] = []
    for ca in curves_a:
        for cb in curves_b:
            events.extend(_pair_events(ca, cb))
    events.sort(key=lambda e: (e.B_star, e.transition_a, e.transition_b))
    return events


def _nv_branch_difference_curve(
    nv: SpinSpecies, spec: SweepSpec
) -> TransitionCurve:
    """Synthetic curve f(0->+1) - f(0->-1) of the NV probe pair."""
    if nv.S != 1.0 or nv.nuclear is not None:
        raise ValueError("branch difference requires a bare S=1 probe")
    orientation = nv.orientations()[0]
    track = track_levels(nv, orientation, spec.axis, spec.grid)
    lower = _curve_from_track(track, "ms=0", "ms=-1")
    upper = _curve_from_track(track, "ms=0", "ms=+1")
    return TransitionCurve(
        species=nv.name,
        orientation=orientation.label,
        from_state=lower.label,
        to_state=upper.label,
        B=track.B,
        f=upper.f - lower.f,
        tracking_ok=track.tracking_ok,
        _freq_fn=lambda amplitude: upper._freq_fn(amplitude) - lower._freq_fn(amplitude),
    )


def p1_three_body_fields(
    nv: SpinSpecies, p1: SpinSpecies, spec: SweepSpec
) -> list[CrossingEvent]:
    """Fields where some P1 transition equals the NV branch difference
    f(0->+1) - f(0->-1).

    Restricted to a [100] sweep axis, where all four orientation classes
    of both species are equivalent and one class suffices.  B = 0 always
    satisfies the condition (both sides vanish there) and is reported
    when the sweep includes it.
    """
    axis = np.abs(np.asarray(spec.axis, dtype=float))
    if np.max(np.abs(np.sort(axis) - np.array([0.0, 0.0, 1.0]))) > 1e-9:
        raise ValueError("three-body condition is defined for a <100> axis")
    diff_curve = _nv_branch_difference_curve(nv, spec)
    p1_curves = sweep_curves(
        p1, spec, orientations=[p1.orientations()[0]], rule=ManifoldRule.ALL_PAIRS
    )
    return find_crossings(p1_curves, [diff_curve])
