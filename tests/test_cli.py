"""Command-line interface: subcommands, exit codes, output determinism.

Everything drives ``main`` in-process so exit codes and stderr are
observable without spawning interpreters.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from crosspeak.cli import main

from synth import make_scan


@pytest.fixture()
def scan_file(tmp_path):
    rng = np.random.default_rng(7)
    b, counts = make_scan(rng)
    p = tmp_path / "scan.csv"
    rows = "\n".join(f"{x:.6f},{c:.1f}" for x, c in zip(b, counts))
    p.write_text("field_G,counts\n" + rows + "\n")
    return p


def run(argv):
    return main([str(a) for a in argv])


# -------------------------------------------------------------- predict

def test_predict_writes_curves(tmp_path, capsys):
    code = run(["predict", "--species", "NV,VH-", "--outdir", tmp_path,
                "--range", "0:20:0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "NV: 2 curves" in out and "VH-: 2 curves" in out
    nv_csv = (tmp_path / "curves_NV.csv").read_text()
    assert nv_csv.splitlines()[0] == "B_G,f_MHz,label"
    assert (tmp_path / "curves_VH_.csv").exists()


def test_predict_species_alias(tmp_path):
    assert run(["predict", "--species", "nv13c", "--outdir", tmp_path,
                "--range", "0:10:0.5"]) == 0
    assert (tmp_path / "curves_NV_13C.csv").exists()


def test_predict_outdir_before_subcommand(tmp_path):
    assert run(["--outdir", tmp_path, "predict", "--species", "NV",
                "--range", "0:10:0.5"]) == 0
    assert (tmp_path / "curves_NV.csv").exists()


def test_predict_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["predict", "--species", "NV", "--outdir", d,
                    "--range", "0:30:0.5"]) == 0
    assert (a / "curves_NV.csv").read_bytes() == (b / "curves_NV.csv").read_bytes()


def test_predict_unknown_species(tmp_path, capsys):
    code = run(["predict", "--species", "XX", "--outdir", tmp_path,
                "--range", "0:10:0.5"])
    assert code == 2
    assert "unknown species" in capsys.readouterr().err


def test_predict_bad_range(tmp_path, capsys):
    code = run(["predict", "--species", "NV", "--outdir", tmp_path,
                "--range", "100:0"])
    assert code == 2
    assert "B_min < B_max" in capsys.readouterr().err


def test_bad_axis_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["predict", "--species", "NV", "--outdir", tmp_path, "--axis", "1,2"])
    assert exc.value.code == 2


def test_missing_catalog_file(tmp_path, capsys):
    code = run(["--catalog", tmp_path / "nope.json", "predict", "--species", "NV",
                "--outdir", tmp_path])
    assert code == 2
    assert "cannot read catalog" in capsys.readouterr().err


# ------------------------------------------------------------ crossings

def test_crossings_nv_vh(tmp_path, capsys):
    code = run(["crossings", "--a", "NV", "--b", "VH-", "--outdir", tmp_path,
                "--range", "15:145:0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "B* = 54.2522 G" in out
    csv_text = (tmp_path / "crossings.csv").read_text()
    assert "54.252" in csv_text
    payload = json.loads((tmp_path / "crossings.json").read_text())
    assert len(payload) == 1
    assert abs(payload[0]["B_star_G"] - 54.2522) < 1e-3


def test_crossings_format_selection(tmp_path):
    assert run(["crossings", "--a", "NV", "--b", "WAR1", "--outdir", tmp_path,
                "--range", "100:145:0.5", "--format", "json"]) == 0
    assert (tmp_path / "crossings.json").exists()
    assert not (tmp_path / "crossings.csv").exists()


def test_crossings_requires_pair(tmp_path, capsys):
    code = run(["crossings", "--a", "NV", "--outdir", tmp_path])
    assert code == 2
    assert "--b" in capsys.readouterr().err


def test_crossings_p1_three_body(tmp_path, capsys):
    code = run(["crossings", "--p1-three-body", "--outdir", tmp_path,
                "--range", "0:20:0.1"])
    assert code == 0
    payload = json.loads((tmp_path / "crossings.json").read_text())
    fields = sorted({e["B_star_G"] for e in payload})
    assert fields[0] == 0.0
    for ref in (3.89, 5.96, 6.58, 17.90):
        assert min(abs(f - ref) for f in fields) < 1.0


# ------------------------------------------------------------------ fit

def test_fit_scan(tmp_path, scan_file, capsys):
    code = run(["fit", scan_file, "--outdir", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("dip at") == 3
    payload = json.loads((tmp_path / "report.json").read_text())
    centers = [p["center_G"] for p in payload["peaks"]]
    assert len(centers) == 3
    for ref, got in zip((20.0, 56.0, 122.0), centers):
        assert abs(got - ref) < 0.5
    assert payload["calibration"] is None
    assert (tmp_path / "peaks.csv").read_text().startswith("center_G,")


def test_fit_deterministic(tmp_path, scan_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["fit", scan_file, "--outdir", d]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "peaks.csv").read_bytes() == (b / "peaks.csv").read_bytes()


def test_fit_missing_scan(tmp_path, capsys):
    code = run(["fit", tmp_path / "none.csv", "--outdir", tmp_path])
    assert code == 2
    assert capsys.readouterr().err


# --------------------------------------------------------------- invert

def test_invert_center(tmp_path, capsys):
    code = run(["invert", "--center", "54.2522", "--outdir", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("D = ")
    assert abs(float(out.split()[2]) - 2694.0) < 0.5
    payload = json.loads((tmp_path / "zfs.json").read_text())
    assert abs(payload["D_MHz"] - 2694.0) < 0.5
    assert 2.0 < payload["sigma_D_MHz"] < 10.0
    assert set(payload["contributions_MHz"]) == {
        "angle", "calibration", "fit", "nv_reference"
    }


def test_invert_from_report(tmp_path, scan_file):
    assert run(["fit", scan_file, "--outdir", tmp_path]) == 0
    assert run(["invert", "--report", tmp_path / "report.json",
                "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "zfs.json").read_text())
    assert isinstance(payload, list) and len(payload) == 3
    assert payload[0]["D_MHz"] > payload[2]["D_MHz"]


def test_invert_no_input(tmp_path, capsys):
    code = run(["invert", "--outdir", tmp_path])
    assert code == 2
    assert "--center or --report" in capsys.readouterr().err


def test_invert_out_of_domain(tmp_path, capsys):
    code = run(["invert", "--center", "999", "--outdir", tmp_path])
    assert code == 4
    assert "no D in" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--center", "nan", "center"),
        ("--center", "inf", "center"),
        ("--center", "-1", "center"),
        ("--angle-sigma", "nan", "angle_uncertainty"),
        ("--fit-sigma", "nan", "fit_sigma"),
        ("--cal-sigma", "-1", "cal_uncertainty"),
        ("--nv-d-sigma", "inf", "nv_d_sigma"),
    ],
)
def test_invert_rejects_bad_input(tmp_path, capsys, flag, value, name):
    argv = ["invert", "--outdir", tmp_path, f"{flag}={value}"]
    if flag != "--center":
        argv.append("--center=54.2522")
    assert run(argv) == 2
    assert f"{name} must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "zfs.json").exists()


# ------------------------------------------------------------------ map

def test_map_outputs(tmp_path, capsys):
    code = run(["map", "--steps", "11", "--phi-max", "5", "--theta-max", "5",
                "--outdir", tmp_path])
    assert code == 0
    assert "minimum pl_proxy" in capsys.readouterr().out
    lines = (tmp_path / "map.csv").read_text().splitlines()
    assert len(lines) == 1 + 11 * 11
    meta = json.loads((tmp_path / "map_meta.json").read_text())
    assert meta["grid"]["n_phi"] == 11
    assert (tmp_path / "loci.csv").exists()


# -------------------------------------------------------------- process

def test_two_calls_in_one_process_match_separate_runs(tmp_path, package_env):
    # the parser is built once per process; a second call with another
    # subcommand must not see anything the first one parsed
    calls = {
        "predict": (["predict", "--species", "NV", "--axis", "111",
                     "--range", "0:20:0.5"], "curves_NV.csv"),
        "invert": (["invert", "--center", "54.2522"], "zfs.json"),
    }
    for name, (argv, _) in calls.items():
        assert run(argv + ["--outdir", tmp_path / "same" / name]) == 0
    for name, (argv, output) in calls.items():
        outdir = tmp_path / "fresh" / name
        proc = subprocess.run(
            [sys.executable, "-m", "crosspeak.cli", *argv, "--outdir", str(outdir)],
            env=package_env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        fresh = (outdir / output).read_bytes()
        assert (tmp_path / "same" / name / output).read_bytes() == fresh


# ----------------------------------------------------------- diagnostics

def test_tracking_warning_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("crosspeak.spin.TRACKING_OVERLAP_MIN", 1.01)
    code = run(["predict", "--species", "NV-13C", "--outdir", tmp_path,
                "--range", "0:10:0.5"])
    assert code == 3
    assert "tracking diagnostic" in capsys.readouterr().err
    # outputs are still written before the diagnostic resolves
    assert (tmp_path / "curves_NV_13C.csv").exists()
