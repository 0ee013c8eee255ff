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
import numpy as np

from .roots import bisect
from .spin import (
    RAMP_STEP_G,
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
# most field points a sweep may track, counted as B_max / min(step, RAMP_STEP_G):
# its grid plus the zero-field ramp that track_levels adds
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
        if self.b_max / min(self.step, RAMP_STEP_G) > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep exceeds the limit of {MAX_SWEEP_POINTS} field "
                             f"points, counted as B_max / min(step, {RAMP_STEP_G:g} G)")
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

    The curve reads the levels ``pair`` = (i, j) of its track, |E_j - E_i|,
    less the levels ``minus`` when set (the NV branch difference).
    ``multiplicity`` counts coincident curves merged into this one (e.g.
    the four NV orientation classes on a [100] sweep).  Refinement reads
    ``freq_of`` on energies that ``crossings._freqs`` re-evaluates on the
    exact Hamiltonian, so it does not rely on the sampled grid.
    """

    track: LevelTrack = dataclass_field(repr=False)
    from_state: str
    to_state: str
    pair: tuple[int, int]
    minus: tuple[int, int] | None = None
    multiplicity: int = 1

    def __post_init__(self):
        self.species = self.track.species.name
        self.orientation = self.track.orientation.label
        self.B = self.track.B
        self.f = self.freq_of(self.track.energies)

    @property
    def label(self) -> str:
        return f"{self.from_state}>{self.to_state}"

    def freq_of(self, energies: np.ndarray) -> np.ndarray:
        """The curve's frequency from label-ordered energies (..., d)."""
        i, j = self.pair
        f = np.abs(energies[..., j] - energies[..., i])
        if self.minus is not None:
            i, j = self.minus
            f = f - np.abs(energies[..., j] - energies[..., i])
        return f

    def freq_at(self, amplitude):
        """Frequency at one field amplitude or at each of an array of them,
        re-evaluated on the exact Hamiltonian in one stacked call.
        Refinement does not call it; it batches tracks through ``_freqs``."""
        return self.freq_of(self.track.energies_at(np.asarray(amplitude, dtype=float)))


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
            curves.append(TransitionCurve(track, a, b, (track.index_of(a), track.index_of(b))))
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


def _freqs(curves: list[TransitionCurve], x: np.ndarray) -> np.ndarray:
    """Frequency of curves[k] at x[k]: one energies_at per distinct track
    over all its rows, from which each curve reads its own levels."""
    rows: dict[LevelTrack, dict[TransitionCurve, list[int]]] = {}
    for k, c in enumerate(curves):
        rows.setdefault(c.track, {}).setdefault(c, []).append(k)
    f = np.empty(len(x))
    for track, by_curve in rows.items():
        order = [k for ks in by_curve.values() for k in ks]
        e = track.energies_at(x[order])
        start = 0
        for c, ks in by_curve.items():
            f[ks] = c.freq_of(e[start:start + len(ks)])
            start += len(ks)
    return f


def find_crossings(
    curves_a: list[TransitionCurve], curves_b: list[TransitionCurve]
) -> list[CrossingEvent]:
    """Every field where a curve from one family meets a curve from the
    other.

    Sign changes of f_a - f_b on the shared grid are bracketed, and the
    brackets of every curve pair are refined together by one stacked
    bisection on the exact Hamiltonians to 1e-4 G; grid nodes where the
    difference already vanishes (e.g. B = 0 for the three-body condition)
    are kept as-is.  Tangential approaches without a sign change are not
    events.
    """
    pairs, on_grid, brackets, g_lo, g_hi = [], [], [], [], []
    for ca in curves_a:
        for cb in curves_b:
            if not np.array_equal(ca.B, cb.B):
                raise ValueError("curves must share one sweep grid")
            g = ca.f - cb.f
            if np.max(np.abs(g)) < GRID_ZERO_TOL:
                # identical curves: degenerate everywhere, no transversal crossing
                continue
            s = np.sign(g)
            k = np.flatnonzero((s[:-1] * s[1:]) < 0)
            pairs.append((ca, cb))
            on_grid.append(ca.B[np.abs(g) <= GRID_ZERO_TOL])
            brackets.append(k)
            g_lo.append(g[k])
            g_hi.append(g[k + 1])
    if not pairs:
        return []
    side_a, side_b = zip(*pairs)
    row_pair = np.repeat(np.arange(len(pairs)), [len(k) for k in brackets])

    def gap(x, rows):
        p = row_pair[rows]
        f = _freqs([side_a[i] for i in p] + [side_b[i] for i in p], np.concatenate([x, x]))
        return f[:len(p)] - f[len(p):]

    grid, k = side_a[0].B, np.concatenate(brackets)
    refined = bisect(gap, grid[k], grid[k + 1], np.concatenate(g_lo),
                     np.concatenate(g_hi), BISECT_TOL_G)
    cand_pair, cand_b = [], []
    for i in range(len(pairs)):
        roots = np.sort(np.concatenate([on_grid[i], refined[row_pair == i]]))
        for b_star in roots:
            if not cand_b or cand_pair[-1] != i or b_star - cand_b[-1] > EVENT_MERGE_G:
                cand_pair.append(i)
                cand_b.append(b_star)
    # every candidate's match check at B* and its slope points +-0.025 G,
    # clipped to the sweep, in one evaluation
    b = np.array(cand_b)
    lo, hi = np.maximum(grid[0], b - 0.025), np.minimum(grid[-1], b + 0.025)
    fa, fa_hi, fa_lo, fb, fb_hi, fb_lo = _freqs(
        [side_a[i] for i in cand_pair] * 3 + [side_b[i] for i in cand_pair] * 3,
        np.concatenate([b, hi, lo] * 2),
    ).reshape(6, len(b))
    slope_gaps = np.abs((fa_hi - fa_lo) / (hi - lo) - (fb_hi - fb_lo) / (hi - lo))
    # a root that refinement failed to pin (steep anticrossing) is dropped
    ok = np.abs(fa - fb) <= FREQ_MATCH_TOL
    events = [
        CrossingEvent(side_a[i].species, side_a[i].label, side_b[i].species,
                      side_b[i].label, b_star, f_star, slope_gap)
        for i, b_star, f_star, slope_gap in zip(
            np.array(cand_pair)[ok], b[ok], 0.5 * (fa + fb)[ok], slope_gaps[ok])
    ]
    events.sort(key=lambda e: (e.B_star, e.transition_a, e.transition_b))
    return events


def _nv_branch_difference_curve(
    nv: SpinSpecies, spec: SweepSpec
) -> TransitionCurve:
    """Synthetic curve f(0->+1) - f(0->-1) of the NV probe pair."""
    if nv.S != 1.0 or nv.nuclear is not None:
        raise ValueError("branch difference requires a bare S=1 probe")
    track = track_levels(nv, nv.orientations()[0], spec.axis, spec.grid)
    zero, lower, upper = (track.index_of(s) for s in ("ms=0", "ms=-1", "ms=+1"))
    return TransitionCurve(
        track, "ms=0>ms=-1", "ms=0>ms=+1", pair=(zero, upper), minus=(zero, lower)
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
