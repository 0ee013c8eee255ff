"""Property tests of adiabatic level tracking over random species, axes
and field grids.

``reference_track`` is the per-step matching loop that ``track_levels``
used before it matched every grid step in one stacked pass: one
maximum-overlap argmax per step, scipy's assignment where the argmax
repeats a column, and the label permutation composed step by step.  The
stacked tracker must reproduce its energies and labels bit for bit.

``reference_sweep_curves`` is the curve set ``sweep_curves`` built before
it tracked one orientation class per symmetry orbit: every class tracked,
then coincident curves merged.  The orbit rule must reproduce its curves,
labels and multiplicities, and its frequencies bit for bit.

``reference_crossings`` is the per-pair refinement that ``find_crossings``
used before it refined the brackets of every curve pair in one stacked
bisection: one bisection, one match check and one pair of slope solves
per curve pair.  The stacked search must reproduce its events bit for bit.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from crosspeak import crossings, kernels, spin
from crosspeak.catalog import load_catalog
from crosspeak.crossings import (
    BISECT_TOL_G,
    CURVE_DEDUP_TOL,
    EVENT_MERGE_G,
    FREQ_MATCH_TOL,
    GRID_ZERO_TOL,
    CrossingEvent,
    SweepSpec,
    TransitionCurve,
    _nv_branch_difference_curve,
    find_crossings,
    sweep_curves,
)
from crosspeak.roots import bisect
from crosspeak.spin import ManifoldRule, SpinSpecies
from crosspeak.spin import (
    _match_order,
    anchor_labels,
    default_rule,
    hamiltonian_parts,
    track_levels,
    transition_pairs,
)

CATALOG = load_catalog()

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

species_names = st.sampled_from(sorted(CATALOG))
orientation_index = st.integers(min_value=0, max_value=3)
axes = (
    st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)
grids = st.tuples(
    st.sampled_from([0.0, 0.3, 5.0, 47.5]),  # B_min, gauss
    st.floats(0.05, 2.0),  # step, gauss
    st.integers(min_value=2, max_value=150),  # points
).map(lambda t: t[0] + t[1] * np.arange(t[2]))


def reference_order(ov):
    """The per-matrix matching rule on one overlap matrix |<prev|new>|:
    (order, smallest matched overlap)."""
    d = len(ov)
    order = np.argmax(ov, axis=1)
    if len(set(order.tolist())) != d:
        rows, cols = linear_sum_assignment(-(ov**2))
        order = cols[np.argsort(rows)]
    return order, float(np.min(ov[np.arange(d), order]))


def reference_track(species, orientation, axis, b_grid, ramp_step=0.5):
    """(labels, energies, min_overlap) from the per-step matching loop."""
    h0, h1 = hamiltonian_parts(species, axis, orientation)
    n_ramp = 0
    full = b_grid
    if b_grid[0] > 0:
        step = min(ramp_step, np.min(np.diff(b_grid)) if len(b_grid) > 1 else ramp_step)
        ramp = np.arange(0.0, b_grid[0], step)
        n_ramp = len(ramp)
        full = np.concatenate([ramp, b_grid])
    vals, vecs = kernels.eigh_stack(h0[None, :, :] + full[:, None, None] * h1[None, :, :])
    labels, _, anchor_vecs = anchor_labels(species)
    lab2raw, min_ov = reference_order(np.abs(anchor_vecs.conj().T @ vecs[0]))
    energies = [vals[0][lab2raw]]
    ov_all = np.abs(np.matmul(vecs[:-1].conj().transpose(0, 2, 1), vecs[1:]))
    for k in range(1, len(full)):
        step_order, step_min = reference_order(ov_all[k - 1])
        min_ov = min(min_ov, step_min)
        lab2raw = step_order[lab2raw]
        energies.append(vals[k][lab2raw])
    return labels, np.array(energies[n_ramp:]), min_ov


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 6]), st.integers(1, 30))
# about a fifth of random 3x3 rows repeat a column in their argmax
@example(0, 3, 30)
def test_match_order_equals_per_matrix_rule(seed, d, n):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, n, d, d)) + 1j * rng.normal(size=(2, n, d, d))
    prev, new = np.linalg.qr(z)[0]  # two stacks of random unitaries
    order, min_ov = _match_order(prev, new)
    ov = np.abs(prev.conj().transpose(0, 2, 1) @ new)
    for k in range(n):
        ref_order, ref_min = reference_order(ov[k])
        assert np.array_equal(order[k], ref_order)
        assert min_ov[k] == ref_min


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 6]))
def test_assignment_equals_scipy(seed, d):
    # scipy's solver is the oracle of the exhaustive permutation search
    cost = np.random.default_rng(seed).normal(size=(d, d))
    rows, cols = spin.linear_sum_assignment(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)


def _orientation(species, index):
    classes = species.orientations()
    return classes[index % len(classes)]


@PROPERTY_SETTINGS
@given(species_names, orientation_index, axes, grids)
# P1 along [111]: level crossings whose swaps do not commute, so the
# label permutations must be composed in step order
@example("P1", 0, np.ones(3) / np.sqrt(3.0), np.arange(0.0, 40.0, 0.5))
def test_track_levels_equals_per_step_reference(name, index, axis, grid):
    species = CATALOG[name]
    orientation = _orientation(species, index)
    track = track_levels(species, orientation, axis, grid)
    labels, energies, min_ov = reference_track(species, orientation, track.axis, grid)
    assert track.labels == labels
    assert np.array_equal(track.energies, energies)
    assert track.min_overlap == min_ov


@PROPERTY_SETTINGS
@given(
    species_names,
    orientation_index,
    axes,
    grids,
    st.lists(st.floats(0.0, 400.0), min_size=1, max_size=12),
)
def test_energies_at_array_equals_scalar_rows(name, index, axis, grid, amplitudes):
    species = CATALOG[name]
    track = track_levels(species, _orientation(species, index), axis, grid)
    x = np.array(amplitudes)
    stacked = track.energies_at(x)
    assert stacked.shape == (len(x), species.dim)
    rows = np.array([track.energies_at(float(b)) for b in x])
    assert np.array_equal(stacked, rows)
    # any array shape, answered row for row
    assert np.array_equal(track.energies_at(x.reshape(1, -1, 1))[0, :, 0], stacked)


@PROPERTY_SETTINGS
@given(species_names, orientation_index, axes, st.floats(0.0, 1000.0))
def test_spectrum_time_reversal(name, index, axis, amplitude):
    # time reversal maps H(B) onto H(-B): the spectra agree level by level
    species = CATALOG[name]
    h0, h1 = hamiltonian_parts(species, axis, _orientation(species, index))
    forward, _ = kernels.eigh(h0 + amplitude * h1)
    backward, _ = kernels.eigh(h0 - amplitude * h1)
    scale = max(1.0, np.max(np.abs(forward)))
    assert np.allclose(forward, backward, rtol=0.0, atol=1e-9 * scale)


def reference_sweep_curves(species, spec, rule=None):
    """Curves of every orientation class, each class tracked, then merged
    where they agree within CURVE_DEDUP_TOL everywhere."""
    rule = default_rule(species) if rule is None else rule
    curves = []
    for orientation in species.orientations():
        track = track_levels(species, orientation, spec.axis, spec.grid)
        for a, b in transition_pairs(species, track.labels, rule):
            curves.append(TransitionCurve(track, a, b, (track.index_of(a), track.index_of(b))))
    merged = []
    for c in curves:
        for m in merged:
            if np.max(np.abs(c.f - m.f)) < CURVE_DEDUP_TOL:
                m.multiplicity += 1
                break
        else:
            merged.append(c)
    return merged


def _unit_axis(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# <100>, <110> and <111> axes, two more in the (001) plane and a generic one
ORBIT_AXES = {
    "100": (1, 0, 0), "-100": (-1, 0, 0), "010": (0, 1, 0), "001": (0, 0, 1),
    "110": (1, 1, 0), "1-10": (1, -1, 0), "011": (0, 1, 1), "101": (1, 0, 1),
    "111": (1, 1, 1), "1-11": (1, -1, 1), "210": (2, 1, 0), "120": (1, 2, 0),
    "generic": (0.3, 0.5, 0.8), "1,0.2,0": (1, 0.2, 0),
}
# a frame-aligned species with a rhombic zero-field term: one class only
LAB_TOY = SpinSpecies(name="lab-toy", S=1.0, D=1000.0, E=50.0, orientation_kind="lab")
ORBIT_SPECIES = {
    "NV": (CATALOG["NV"], None),
    "VH-": (CATALOG["VH-"], None),
    "NV-13C": (CATALOG["NV-13C"], None),
    "P1": (CATALOG["P1"], ManifoldRule.ALL_PAIRS),
    "lab-toy": (LAB_TOY, ManifoldRule.ALL_PAIRS),
}


@pytest.mark.parametrize("species_name", sorted(ORBIT_SPECIES))
@pytest.mark.parametrize("axis_name", sorted(ORBIT_AXES))
def test_sweep_curves_equal_every_class_reference(axis_name, species_name):
    species, rule = ORBIT_SPECIES[species_name]
    spec = SweepSpec(_unit_axis(ORBIT_AXES[axis_name]), 0.0, 150.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spin.TrackingWarning)
        curves = sweep_curves(species, spec, rule=rule)
        expected = reference_sweep_curves(species, spec, rule)
    assert len(curves) == len(expected)
    for c, r in zip(curves, expected):
        assert (c.orientation, c.label, c.pair, c.minus, c.multiplicity) == (
            r.orientation, r.label, r.pair, r.minus, r.multiplicity)
        assert c.f.tobytes() == r.f.tobytes()


@pytest.mark.parametrize("axis_name, tracks", [
    ("100", 1), ("-100", 1), ("010", 1), ("001", 1),
    # any other axis in a {100} plane pairs the classes up
    ("110", 2), ("1-10", 2), ("011", 2), ("101", 2), ("210", 2), ("1,0.2,0", 2),
    ("111", 4), ("1-11", 4), ("generic", 4),
])
def test_sweep_curves_track_one_class_per_orbit(axis_name, tracks, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return track_levels(*args, **kwargs)

    monkeypatch.setattr(crossings, "track_levels", counted)
    spec = SweepSpec(_unit_axis(ORBIT_AXES[axis_name]), 0.0, 20.0, 0.5)
    for species, rule in ORBIT_SPECIES.values():
        calls.clear()
        sweep_curves(species, spec, rule=rule)
        assert len(calls) == (1 if species is LAB_TOY else tracks), species.name


def reference_slope(curve, amplitude, h=0.025):
    lo = np.maximum(curve.B[0], amplitude - h)
    hi = np.minimum(curve.B[-1], amplitude + h)
    f_hi, f_lo = curve.freq_at(np.stack([hi, lo]))
    return (f_hi - f_lo) / (hi - lo)


def reference_pair_events(ca, cb):
    """Events of one curve pair from its own bisection."""
    g = ca.f - cb.f
    if np.max(np.abs(g)) < GRID_ZERO_TOL:
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
    ok = np.abs(fa - fb) <= FREQ_MATCH_TOL
    b, fa, fb = b[ok], fa[ok], fb[ok]
    if not b.size:
        # every root failed the match check (the per-pair search raised
        # here, reshaping an empty stack of slope points)
        return []
    slope_gaps = np.abs(reference_slope(ca, b) - reference_slope(cb, b))
    return [
        CrossingEvent(ca.species, ca.label, cb.species, cb.label, b_star, f_star, slope_gap)
        for b_star, f_star, slope_gap in zip(b, 0.5 * (fa + fb), slope_gaps)
    ]


def reference_crossings(curves_a, curves_b):
    events = [e for ca in curves_a for cb in curves_b for e in reference_pair_events(ca, cb)]
    events.sort(key=lambda e: (e.B_star, e.transition_a, e.transition_b))
    return events


sweeps = st.tuples(
    st.sampled_from([0.0, 0.3, 5.0, 47.5]),  # B_min, gauss
    st.floats(0.2, 2.0),  # step, gauss
    st.integers(min_value=10, max_value=150),  # points
).map(lambda t: (t[0], t[0] + t[1] * t[2], t[1]))


@settings(max_examples=30, deadline=None)
@given(species_names, species_names, axes, sweeps)
# NV x NV-13C on a generic axis: 8 x 32 curve pairs, dozens of events
@example("NV", "NV-13C", np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8]),
         (0.0, 300.0, 1.0))
def test_find_crossings_equals_per_pair_reference(name_a, name_b, axis, sweep):
    spec = SweepSpec(axis, *sweep)
    curves_a = sweep_curves(CATALOG[name_a], spec)
    curves_b = sweep_curves(CATALOG[name_b], spec)
    events = find_crossings(curves_a, curves_b)
    assert events == reference_crossings(curves_a, curves_b)


@settings(max_examples=20, deadline=None)
@given(sweeps)
@example((0.0, 250.0, 0.1))
def test_three_body_crossings_equal_per_pair_reference(sweep):
    # the branch-difference curve reads four levels of one NV track
    spec = SweepSpec(np.array([1.0, 0.0, 0.0]), *sweep)
    p1 = CATALOG["P1"]
    p1_curves = sweep_curves(p1, spec, rule=ManifoldRule.ALL_PAIRS)
    diff = [_nv_branch_difference_curve(CATALOG["NV"], spec)]
    events = find_crossings(p1_curves, diff)
    assert events == reference_crossings(p1_curves, diff)


# the 48 operations of the cubic point group: signed permutation matrices
CUBIC_OPS = [
    np.diag(signs)[:, list(perm)]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cubic_operations_keep_events_and_multiplicities(seed):
    # every axial species is invariant under the cubic group together with
    # time reversal, which only permutes its orientation classes (improper
    # operations swap ms = +-1, so labels are not compared)
    a = _unit_axis(np.random.default_rng(seed).normal(size=3))
    names = ("NV", "VH-", "WAR1", "P1")

    def observe(axis):
        spec = SweepSpec(axis, 0.0, 150.0, 0.5)
        curves = {name: sweep_curves(CATALOG[name], spec) for name in names}
        events = find_crossings(curves["NV"], curves["VH-"])
        points = sorted((e.B_star, e.f_star) for e in events)
        return points, {n: sorted(c.multiplicity for c in cs) for n, cs in curves.items()}

    points, multiplicities = observe(a)
    assert points
    for g in CUBIC_OPS:
        g_points, g_multiplicities = observe(g @ a)
        assert g_multiplicities == multiplicities
        assert len(g_points) == len(points)
        for (b, f), (gb, gf) in zip(points, g_points):
            assert abs(gb - b) <= BISECT_TOL_G and abs(gf - f) <= FREQ_MATCH_TOL
