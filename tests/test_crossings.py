"""Sweep curves and resonance root finding.

Frozen crossing fields were generated once with this engine and spot
checked against the linear branch model (slope gamma_e/sqrt(3) per class
on [100]); tolerances are the engine's own refinement targets.
"""

import numpy as np
import pytest

from crosspeak.crossings import (
    FREQ_MATCH_TOL,
    MAX_SWEEP_POINTS,
    SweepSpec,
    find_crossings,
    p1_three_body_fields,
    sweep_curves,
)
from crosspeak.spin import ManifoldRule, NuclearSpin, SpinSpecies

AX_100 = np.array([1.0, 0.0, 0.0])
AX_111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

P1_THREE_BODY_FIELDS = [0.0, 3.89, 5.96, 6.58, 17.90, 28.93, 35.87, 49.44,
                        81.33, 83.28, 137.52, 154.20, 246.34]


def spec100(b_min=15.0, b_max=250.0, step=0.5):
    return SweepSpec(axis=AX_100, b_min=b_min, b_max=b_max, step=step)


# ------------------------------------------------------------- sweep spec

def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(axis=np.array([1.0, 1.0, 0.0]), b_min=0.0, b_max=10.0)
    with pytest.raises(ValueError):
        SweepSpec(axis=np.array([np.nan, 0.0, 0.0]), b_min=0.0, b_max=10.0)
    with pytest.raises(ValueError):
        SweepSpec(axis=AX_100, b_min=10.0, b_max=10.0)
    with pytest.raises(ValueError):
        SweepSpec(axis=AX_100, b_min=0.0, b_max=10.0, step=-1.0)
    with pytest.raises(ValueError):
        SweepSpec(axis=AX_100, b_min=0.0, b_max=10.0, step=8.0)
    with pytest.raises(ValueError):
        SweepSpec(axis=AX_100, b_min=-5.0, b_max=10.0)
    for field in ("b_min", "b_max", "step"):
        for bad in (np.nan, np.inf, -np.inf):
            kwargs = {"b_min": 0.0, "b_max": 10.0, "step": 0.5, field: bad}
            with pytest.raises(ValueError, match=f"sweep {field} must be finite"):
                SweepSpec(axis=AX_100, **kwargs)
    # the cap counts the zero-field ramp too: B_max / min(step, 0.5 G)
    SweepSpec(axis=AX_100, b_min=0.0, b_max=MAX_SWEEP_POINTS * 0.5, step=1.0)
    with pytest.raises(ValueError, match=f"limit of {MAX_SWEEP_POINTS} field points"):
        SweepSpec(axis=AX_100, b_min=49_990.0, b_max=50_000.5, step=1.0)
    with pytest.raises(ValueError, match=f"limit of {MAX_SWEEP_POINTS} field points"):
        SweepSpec(axis=AX_100, b_min=0.0, b_max=10.1, step=1e-4)


def test_grid_endpoints():
    g = SweepSpec(axis=AX_100, b_min=0.0, b_max=10.0, step=3.0).grid
    assert g[0] == 0.0 and g[-1] == 10.0
    g = SweepSpec(axis=AX_100, b_min=5.0, b_max=6.0, step=0.1).grid
    assert g[0] == 5.0 and g[-1] == 6.0
    assert np.all(np.diff(g) > 0)


# ----------------------------------------------------------------- curves

def test_nv_100_curves_merge_to_two(nv):
    curves = sweep_curves(nv, spec100(0.0, 100.0))
    assert len(curves) == 2
    assert sorted(c.multiplicity for c in curves) == [4, 4]
    upper = next(c for c in curves if c.to_state == "ms=+1")
    assert np.all(np.diff(upper.f) > 0)
    lower = next(c for c in curves if c.to_state == "ms=-1")
    assert np.all(np.diff(lower.f) < 0)
    assert abs(upper.f[0] - 2870.0) < 1e-9
    # freq_at re-evaluates the Hamiltonian, matching the sampled grid
    k = 37
    assert abs(upper.freq_at(float(upper.B[k])) - upper.f[k]) < 1e-9


def test_nv_111_curves_split_aligned_class(nv):
    curves = sweep_curves(
        nv, SweepSpec(axis=AX_111, b_min=0.0, b_max=100.0, step=0.5)
    )
    assert len(curves) == 4
    assert sorted(c.multiplicity for c in curves) == [1, 1, 3, 3]
    # the aligned class has the steepest branches
    by_span = sorted(curves, key=lambda c: abs(c.f[-1] - c.f[0]))
    assert {c.multiplicity for c in by_span[:2]} == {3}
    assert {c.multiplicity for c in by_span[2:]} == {1}


def test_vh_zero_field_frequency(vh):
    curves = sweep_curves(vh, SweepSpec(axis=AX_100, b_min=0.0, b_max=10.0, step=0.5))
    for c in curves:
        assert abs(c.f[0] - 2694.0) < 1e-9


def test_linear_branch_slope_100(nv):
    # each branch carries a quadratic transverse shift of the same sign,
    # so the mean branch slope is gamma_e/sqrt(3) to high accuracy even
    # though the individual endpoints drift
    curves = sweep_curves(nv, spec100(0.0, 50.0, 0.5))
    upper = next(c for c in curves if c.to_state == "ms=+1")
    lower = next(c for c in curves if c.to_state == "ms=-1")
    up = (upper.f[-1] - upper.f[0]) / 50.0
    down = (lower.f[0] - lower.f[-1]) / 50.0
    assert abs(0.5 * (up + down) - 2.8025 / np.sqrt(3.0)) < 2e-3
    assert abs(up - 1.618) < 0.2 and abs(down - 1.618) < 0.2


# ---------------------------------------------------------------- events

def test_nv_vh_100_single_event(nv, vh):
    sweep = spec100()
    events = find_crossings(sweep_curves(nv, sweep), sweep_curves(vh, sweep))
    assert len(events) == 1
    e = events[0]
    assert abs(e.B_star - 54.2522) < 1e-3
    assert e.species_a == "NV" and e.species_b == "VH-"
    assert 2694.0 < e.f_star < 2870.0
    assert e.slope_gap > 0


def test_nv_war1_100_single_event(nv, war1):
    sweep = spec100()
    events = find_crossings(sweep_curves(nv, sweep), sweep_curves(war1, sweep))
    assert len(events) == 1
    assert abs(events[0].B_star - 121.9363) < 1e-3


def test_pair_with_every_root_rejected(nv13c):
    # some NV-13C x NV-13C pairs bracket only roots that fail the match
    # check; they add no event instead of aborting the whole search
    axis = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    curves = sweep_curves(nv13c, SweepSpec(axis=axis, b_min=0.0, b_max=150.0, step=1.0))
    events = find_crossings(curves, curves)
    assert len(events) == 650


def test_events_satisfy_resonance_condition(nv, vh):
    sweep = spec100()
    ca = sweep_curves(nv, sweep)
    cb = sweep_curves(vh, sweep)
    for e in find_crossings(ca, cb):
        a = next(c for c in ca if c.label == e.transition_a)
        b = next(c for c in cb if c.label == e.transition_b)
        assert abs(a.freq_at(e.B_star) - b.freq_at(e.B_star)) <= FREQ_MATCH_TOL


def test_swap_symmetry(nv, vh):
    sweep = spec100()
    ca, cb = sweep_curves(nv, sweep), sweep_curves(vh, sweep)
    ab = find_crossings(ca, cb)
    ba = find_crossings(cb, ca)
    assert len(ab) == len(ba)
    for x, y in zip(ab, ba):
        assert abs(x.B_star - y.B_star) < 2e-4
        assert x.species_a == y.species_b and x.species_b == y.species_a


def test_grid_halving_stability(nv, vh):
    b1 = find_crossings(
        sweep_curves(nv, spec100(40.0, 70.0, 0.2)),
        sweep_curves(vh, spec100(40.0, 70.0, 0.2)),
    )[0].B_star
    b2 = find_crossings(
        sweep_curves(nv, spec100(40.0, 70.0, 0.1)),
        sweep_curves(vh, spec100(40.0, 70.0, 0.1)),
    )[0].B_star
    assert abs(b1 - b2) < 1e-3


def test_identical_family_no_transversal_events(nv):
    sweep = spec100(10.0, 100.0)
    curves = sweep_curves(nv, sweep)
    assert find_crossings(curves, curves) == []


def test_zero_field_degeneracy_is_on_grid_event(nv):
    # both probe branches sit at D when B = 0; that node is an exact root
    # (one event per ordered curve pair when a family meets itself)
    sweep = spec100(0.0, 20.0)
    events = find_crossings(sweep_curves(nv, sweep), sweep_curves(nv, sweep))
    assert len(events) == 2
    for e in events:
        assert e.B_star == 0.0
        assert abs(e.f_star - 2870.0) < 1e-9


def test_mismatched_grids_rejected(nv, vh):
    with pytest.raises(ValueError, match="share one sweep grid"):
        find_crossings(
            sweep_curves(nv, spec100(0.0, 50.0, 0.5)),
            sweep_curves(vh, spec100(0.0, 50.0, 0.25)),
        )


def test_events_sorted_by_field(nv, nv13c):
    sweep = SweepSpec(axis=AX_100, b_min=0.0, b_max=60.0, step=0.1)
    events = find_crossings(sweep_curves(nv, sweep), sweep_curves(nv13c, sweep))
    assert len(events) >= 2
    assert all(a.B_star <= b.B_star for a, b in zip(events, events[1:]))


# ------------------------------------------------------------- three-body

def test_p1_three_body_matches_reference_fields(nv, p1):
    sweep = SweepSpec(axis=AX_100, b_min=0.0, b_max=250.0, step=0.1)
    events = p1_three_body_fields(nv, p1, sweep)
    fields = np.array(sorted({round(e.B_star, 4) for e in events}))
    assert len(fields) == 13
    for ref in P1_THREE_BODY_FIELDS:
        assert np.min(np.abs(fields - ref)) < 1.0
    assert fields[0] == 0.0


def test_p1_three_body_requires_100_axis(nv, p1):
    with pytest.raises(ValueError, match="<100>"):
        p1_three_body_fields(
            nv, p1, SweepSpec(axis=AX_111, b_min=0.0, b_max=100.0, step=0.5)
        )


def test_p1_three_body_rejects_coupled_probe(nv13c, p1):
    with pytest.raises(ValueError, match="bare S=1"):
        p1_three_body_fields(nv13c, p1, spec100(0.0, 100.0))


# ------------------------------------------------- decoupled-limit oracle

def test_zero_hyperfine_curves_are_zeeman_lines():
    # with A = P = 0 and the field along the lab z axis every level is
    # (ms gamma_e - mI gamma_n) B, so all 15 pair curves are straight
    # lines through zero with slopes from the two gyromagnetic ratios
    ge, gn = 2.8025, 3.077e-4
    toy = SpinSpecies(
        name="decoupled", S=0.5, D=0.0, gamma_e=ge,
        nuclear=NuclearSpin(I=1.0, gamma_n=gn, A=np.zeros((3, 3))),
        orientation_kind="lab",
    )
    sweep = SweepSpec(axis=np.array([0.0, 0.0, 1.0]), b_min=0.0, b_max=100.0, step=1.0)
    curves = sweep_curves(toy, sweep, rule=ManifoldRule.ALL_PAIRS)
    allowed = {gn, 2 * gn, ge, ge + gn, ge - gn, ge + 2 * gn, ge - 2 * gn}
    total = 0
    for c in curves:
        total += c.multiplicity
        fit = c.f[-1] / c.B[-1]
        assert np.max(np.abs(c.f - fit * c.B)) < 1e-9
        assert min(abs(fit - s) for s in allowed) < 1e-12
    assert total == 15
