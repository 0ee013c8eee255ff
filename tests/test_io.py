"""Serialisation formats and the scan readers."""

import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from crosspeak.crossings import CrossingEvent, SweepSpec, sweep_curves
from crosspeak.io import (
    curves_to_csv,
    events_to_csv,
    events_to_json,
    fmt_gauss,
    fmt_mhz,
    loci_to_csv,
    map_to_csv,
    read_fiducials_csv,
    read_scan_csv,
    write_text_atomic,
    zfs_to_json,
)
from crosspeak.spectrum import AbscissaKind
from crosspeak.zfs import ZfsEstimate


def sample_event(b=54.252233, f=2782.123456):
    return CrossingEvent(
        species_a="NV", transition_a="ms=0>ms=-1",
        species_b="VH-", transition_b="ms=0>ms=+1",
        B_star=b, f_star=f, slope_gap=3.236,
    )


def test_fixed_float_formats():
    assert fmt_gauss(54.2522334567) == "54.252233"
    assert fmt_mhz(2782.123456) == "2782.1235"
    assert fmt_gauss(-0.0000001) == "-0.000000"


def test_events_csv_layout():
    text = events_to_csv([sample_event()])
    lines = text.splitlines()
    assert lines[0] == (
        "species_a,transition_a,species_b,transition_b,B_star_G,f_star_MHz,slope_gap"
    )
    assert lines[1] == "NV,ms=0>ms=-1,VH-,ms=0>ms=+1,54.252233,2782.1235,3.236000"
    assert text.endswith("\n")


def test_events_json_round_and_sorted():
    payload = json.loads(events_to_json([sample_event()]))
    assert payload[0]["B_star_G"] == 54.252233
    assert payload[0]["f_star_MHz"] == 2782.1235
    # no negative zeros in the output
    neg = events_to_json([sample_event(b=-0.0000001)])
    assert "-0.0" not in neg


def test_curves_csv_label_carries_multiplicity(nv):
    sweep = SweepSpec(
        axis=np.array([1.0, 0.0, 0.0]), b_min=0.0, b_max=10.0, step=1.0
    )
    text = curves_to_csv(sweep_curves(nv, sweep))
    lines = text.splitlines()
    assert lines[0] == "B_G,f_MHz,label"
    assert "|x4" in lines[1]
    assert lines[1].split(",")[2].startswith("NV|")


def csv_writer_text(header, rows):
    """The cell-by-cell csv.writer layout the numeric writers reproduce."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def awkward_values(rng, n):
    """n floats mixing ordinary values with -0.0, NaN, +-inf, 1e300,
    1e-300 and values that print as -0.000000."""
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300,
                        -1e-300, -4e-7, 5e-7, 0.5e-6, 2.5e-5, 1234567.8900005])
    x = rng.normal(0.0, 100.0, size=n) * 10.0 ** rng.integers(-8, 8, size=n)
    pick = rng.random(n) < 0.3
    x[pick] = rng.choice(special, size=int(pick.sum()))
    return x


def test_numeric_writers_match_csv_writer(rng):
    for _ in range(20):
        n_phi, n_theta = (int(n) for n in rng.integers(1, 30, size=2))
        phis, thetas = awkward_values(rng, n_phi), awkward_values(rng, n_theta)
        pl = awkward_values(rng, n_phi * n_theta).reshape(n_phi, n_theta)
        deg_map = SimpleNamespace(grid=SimpleNamespace(phis=phis, thetas=thetas), pl_proxy=pl)
        assert map_to_csv(deg_map) == csv_writer_text(
            ["phi_deg", "theta_deg", "pl_proxy"],
            ([f"{phi:.6f}", f"{theta:.6f}", f"{pl[i, j]:.6f}"]
             for i, phi in enumerate(phis) for j, theta in enumerate(thetas)),
        )

        # names and labels that need quoting, or hold printf's '%'
        names = ["010", "a,b", 'q"uote', "50%", "%s", ""]
        loci = {name: awkward_values(rng, 2 * int(rng.integers(0, 9))).reshape(-1, 2)
                for name in rng.choice(names, size=3, replace=False)}
        assert loci_to_csv(loci) == csv_writer_text(
            ["plane", "phi_deg", "theta_deg"],
            ([name, f"{phi:.6f}", f"{theta:.6f}"]
             for name in sorted(loci) for phi, theta in loci[name]),
        )

        curves = []
        for k in range(int(rng.integers(0, 4))):
            n = int(rng.integers(0, 12))
            curves.append(SimpleNamespace(
                species=str(rng.choice(names)), orientation=k, label="ms=0>ms=+1",
                multiplicity=k + 1, B=awkward_values(rng, n), f=awkward_values(rng, n)))
        assert curves_to_csv(curves) == csv_writer_text(
            ["B_G", "f_MHz", "label"],
            ([f"{b:.6f}", f"{f:.4f}", f"{c.species}|{c.orientation}|{c.label}|x{c.multiplicity}"]
             for c in curves for b, f in zip(c.B, c.f)),
        )


def test_zfs_json_shape():
    z = ZfsEstimate.combine(2694.0074, {"fit": 3.26, "angle": 2.17})
    payload = json.loads(zfs_to_json(z))
    assert payload["D_MHz"] == 2694.0074
    assert set(payload["contributions_MHz"]) == {"fit", "angle"}
    assert payload["sigma_D_MHz"] == pytest.approx(
        np.hypot(3.26, 2.17), abs=1e-4
    )


def test_loci_csv_sorted_by_plane():
    loci = {
        "010": np.array([[0.0, 0.0], [1.0, 0.0]]),
        "001": np.array([[0.0, 2.0]]),
    }
    lines = loci_to_csv(loci).splitlines()
    assert lines[0] == "plane,phi_deg,theta_deg"
    assert lines[1].startswith("001,")
    assert lines[2].startswith("010,")


def test_write_text_atomic(tmp_path):
    target = tmp_path / "deep" / "out.csv"
    write_text_atomic(target, "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"
    # overwrite is atomic as well, no stray temp files
    write_text_atomic(target, "a,b\n3,4\n")
    assert target.read_text() == "a,b\n3,4\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.csv"]


def test_read_scan_header_inference(tmp_path):
    p = tmp_path / "scan.csv"
    rows = "\n".join(f"{b:.3f},{c:.1f}" for b, c in zip(np.linspace(0, 10, 20), np.ones(20)))
    p.write_text("field_G,counts\n" + rows + "\n")
    s = read_scan_csv(p)
    assert s.kind is AbscissaKind.FIELD
    assert len(s.counts) == 20

    p2 = tmp_path / "scan2.csv"
    p2.write_text("voltage_V,counts\n" + rows + "\n")
    assert read_scan_csv(p2).kind is AbscissaKind.VOLTAGE


def test_read_scan_sidecar_and_explicit_kind(tmp_path):
    p = tmp_path / "scan.csv"
    rows = "\n".join(f"{b:.3f},1.0" for b in np.linspace(0, 10, 20))
    p.write_text("x,counts\n" + rows + "\n")
    with pytest.raises(ValueError, match="cannot infer"):
        read_scan_csv(p)
    assert read_scan_csv(p, kind="field").kind is AbscissaKind.FIELD
    (tmp_path / "scan.csv.meta.json").write_text('{"abscissa_kind": "voltage"}')
    s = read_scan_csv(p)
    assert s.kind is AbscissaKind.VOLTAGE
    assert s.metadata["abscissa_kind"] == "voltage"


def test_read_scan_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("field_G,counts\n1.0,2.0\nnot,a number\n")
    with pytest.raises(ValueError, match="malformed scan row"):
        read_scan_csv(p)
    p.write_text("field_G,counts\n")
    with pytest.raises(ValueError, match="header plus"):
        read_scan_csv(p)


def test_read_fiducials(tmp_path):
    p = tmp_path / "fid.csv"
    p.write_text("voltage_V,frequency_MHz\n0.25,2827.0\n0.75,2784.0\n")
    fid = read_fiducials_csv(p)
    assert fid.shape == (2, 2)
    assert fid[1, 1] == 2784.0
    p.write_text("voltage_V,frequency_MHz\n0.25,?\n")
    with pytest.raises(ValueError, match="malformed fiducial"):
        read_fiducials_csv(p)
