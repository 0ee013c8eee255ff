"""Command-line interface: subcommands, exit codes, output determinism.

Everything drives ``main`` in-process so exit codes and stderr are
observable without spawning interpreters.
"""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import crosspeak.crossings as crossings_mod
from crosspeak.angular import AngleGrid
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


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("crossings", "15:inf", "b_max must be finite"),
        ("crossings", "15:145:nan", "step must be finite"),
        ("predict", "-inf:145", "b_min must be finite"),
    ],
)
def test_non_finite_range_is_usage_error(tmp_path, capsys, command, text, message):
    species = ["--a", "NV", "--b", "VH-"] if command == "crossings" else ["--species", "NV"]
    code = run([command, *species, "--outdir", tmp_path, f"--range={text}"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", ["0:1e9:1", "15:145:0.001", "99990:100000:5"])
def test_oversized_sweep_rejected_before_allocation(tmp_path, capsys, monkeypatch, text):
    # the sweep grid and the tracker must never be reached: an oversized
    # range is refused while the range is still three numbers
    def allocated(*args):
        raise AssertionError("sweep allocated before its range was checked")

    monkeypatch.setattr(crossings_mod.SweepSpec, "grid", property(allocated))
    monkeypatch.setattr(crossings_mod, "track_levels", allocated)
    code = run(["predict", "--species", "NV", "--outdir", tmp_path, "--range", text])
    assert code == 2
    err = capsys.readouterr().err
    assert f"limit of {crossings_mod.MAX_SWEEP_POINTS} field points" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("gamma_e_MHz_per_G", 0, "'gamma_e_MHz_per_G' must be > 0"),
        ("D_MHz", float("nan"), "'D_MHz' must be finite"),
    ],
)
def test_bad_catalog_number_is_usage_error(tmp_path, capsys, field, value, message):
    entry = {"name": "NV", "S": 1.0, "D_MHz": 2870.0, "orientation": "111", field: value}
    catalog = tmp_path / "cat.json"
    catalog.write_text(json.dumps([entry]))
    code = run(["--catalog", catalog, "invert", "--center", "54.2522",
                "--outdir", tmp_path])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "zfs.json").exists()


def test_bad_axis_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["predict", "--species", "NV", "--outdir", tmp_path, "--axis", "1,2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["predict", "invert"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("nan,0,0", "needs 3 finite components"),
        ("inf,0,0", "needs 3 finite components"),
        ("0,0,0", "has no finite nonzero length"),
        ("1e-320,0,0", "has no finite nonzero length"),
        ("1e200,1e200,0", "has no finite nonzero length"),
    ],
)
def test_axis_without_direction_is_usage_error(tmp_path, capsys, command, text, message):
    args = ["--species", "NV"] if command == "predict" else ["--center", "54.2522"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run([command, *args, "--outdir", tmp_path, f"--axis={text}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"axis {text!r} {message}" in err
    assert "RuntimeWarning" not in err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("command", ["crossings", "fit"])
@pytest.mark.parametrize("text", ["xml", "csv,xml", "CSV", ""])
def test_unknown_format_is_usage_error(tmp_path, scan_file, capsys, command, text):
    argv = (["crossings", "--a", "NV", "--b", "WAR1", "--range", "100:145:0.5"]
            if command == "crossings" else ["fit", scan_file])
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--outdir", tmp_path, f"--format={text}"])
    assert exc.value.code == 2
    assert f"format must be csv, json or csv,json, not {text!r}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [scan_file.name]


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


@pytest.mark.parametrize("near, exact", [("1,1e-10,0", "100"), ("1e-10,-2e-10,-1", "0,0,-1")])
def test_crossings_p1_three_body_near_100_tracks_one_class(tmp_path, monkeypatch, near, exact):
    # an axis within 1e-9 of <100> is swept along the exact <100> axis, so
    # the orbit rule tracks one P1 class, as it does along the exact axis
    calls = []

    def counted(*args, _track=crossings_mod.track_levels):
        calls.append(1)
        return _track(*args)

    monkeypatch.setattr(crossings_mod, "track_levels", counted)
    outputs = {}
    for name, axis in (("exact", exact), ("near", near)):
        calls.clear()
        out = tmp_path / name
        assert run(["crossings", "--p1-three-body", f"--axis={axis}", "--range", "0:20:0.1",
                    "--outdir", out]) == 0
        outputs[name] = (len(calls), (out / "crossings.csv").read_bytes(),
                         (out / "crossings.json").read_bytes())
    assert outputs["near"] == outputs["exact"]
    assert outputs["exact"][0] == 2  # the NV probe track and one P1 class


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


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_fit_report_is_strict_json(tmp_path, scan_file):
    # below a negative baseline a dip has no contrast: null, never NaN
    lines = scan_file.read_text().splitlines()
    rows = (line.split(",") for line in lines[1:])
    scan_file.write_text(lines[0] + "\n" + "".join(
        f"{x},{float(c) - 2.0e6:.1f}\n" for x, c in rows))
    assert run(["fit", scan_file, "--outdir", tmp_path]) == 0
    payload = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=reject_constant)
    assert len(payload["peaks"]) == 3
    assert all(p["contrast"] is None for p in payload["peaks"])
    assert run(["invert", "--report", tmp_path / "report.json",
                "--outdir", tmp_path]) == 0
    json.loads((tmp_path / "zfs.json").read_text(), parse_constant=reject_constant)


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


def test_fit_blank_rows_is_input_error(tmp_path, capsys):
    scan = tmp_path / "blank.csv"
    scan.write_text("field_G,counts\n\n\n\n")
    assert run(["fit", scan, "--outdir", tmp_path]) == 2
    assert "at least 16 points" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_fit_nan_count_is_input_error(tmp_path, scan_file, capsys):
    lines = scan_file.read_text().splitlines()
    x, _ = lines[100].split(",")
    lines[100] = f"{x},nan"
    scan_file.write_text("\n".join(lines) + "\n")
    assert run(["fit", scan_file, "--outdir", tmp_path]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sidecar", ["[1]", '"x"', "null"])
def test_fit_sidecar_not_an_object_is_input_error(tmp_path, scan_file, capsys, sidecar):
    (tmp_path / "scan.csv.meta.json").write_text(sidecar)
    outdir = tmp_path / "out"
    assert run(["fit", scan_file, "--outdir", outdir]) == 2
    assert "scan.csv.meta.json: scan metadata must be a JSON object" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--threshold", "nan", "threshold must be finite and > 0, not nan"),
        ("--threshold", "inf", "threshold must be finite and > 0, not inf"),
        ("--threshold", "-1", "threshold must be finite and > 0, not -1.0"),
        ("--threshold", "0", "threshold must be finite and > 0, not 0.0"),
        ("--windows", "nan:5", "window nan:5.0 must have finite bounds"),
        ("--windows", "10:20,50:inf", "window 50.0:inf must have finite bounds"),
    ],
)
def test_fit_bad_threshold_or_windows_is_usage_error(
    tmp_path, scan_file, capsys, option, value, message
):
    assert run(["fit", scan_file, option, value, "--outdir", tmp_path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "rows, message",
    [("0.3,2900.0095\n1.0,nan\n", "must be finite"), ("\n\n", "at least 2")],
    ids=["nan-frequency", "blank-rows"],
)
def test_fit_bad_fiducials_are_input_error(tmp_path, capsys, rows, message):
    b, counts = make_scan(np.random.default_rng(11))
    scan = tmp_path / "vscan.csv"
    scan.write_text("voltage_V,counts\n" + "".join(
        f"{x / 60.0:.9f},{c:.1f}\n" for x, c in zip(b, counts)))
    fid = tmp_path / "fid.csv"
    fid.write_text("voltage_V,frequency_MHz\n" + rows)
    assert run(["fit", scan, "--fiducials", fid, "--outdir", tmp_path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_import_leaves_scan_filters_unloaded(package_env):
    # crossings, invert and map never need scipy.signal or scipy.ndimage,
    # and level tracking solves its assignment fallback without scipy.optimize
    code = (
        "import sys, crosspeak.cli; "
        "print(sorted({'scipy.optimize', 'scipy.signal', 'scipy.ndimage'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=package_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_invert_report_null_sigma_is_usage_error(tmp_path, capsys):
    # report.json writes a non-finite fit sigma as null
    report = tmp_path / "report.json"
    report.write_text('{"peaks": [{"center_G": 54.2522, "center_sigma_G": null}]}')
    assert run(["invert", "--report", report, "--outdir", tmp_path]) == 2
    assert "fit_sigma must be finite and >= 0, got nan" in capsys.readouterr().err
    assert not (tmp_path / "zfs.json").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"peaks": [{"center_sigma_G": 0.1}]}',
        '{"peaks": [{"center_G": [54.2522]}]}',
        '[{"center_G": 54.2522}]',
    ],
    ids=["missing-center", "list-center", "top-level-list"],
)
def test_invert_malformed_report_is_usage_error(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert run(["invert", "--report", report, "--outdir", tmp_path]) == 2
    assert "a number or null as each peak's center_G" in capsys.readouterr().err
    assert not (tmp_path / "zfs.json").exists()


@pytest.mark.parametrize(
    "command, name, text",
    [("fit", "scan.csv.meta.json", "{"), ("invert", "report.json", '{"peaks": [')],
)
def test_invalid_json_input_names_the_file(tmp_path, scan_file, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    outdir = tmp_path / "out"
    argv = ["fit", scan_file] if command == "fit" else ["invert", "--report", path]
    assert run([*argv, "--outdir", outdir]) == 2
    assert f"{path}: not valid JSON" in capsys.readouterr().err
    assert not outdir.exists()


def test_invert_angle_sigma_beyond_a_right_angle_is_usage_error(tmp_path, capsys):
    argv = ["invert", "--center", "54.2522", "--angle-sigma", "400", "--outdir", tmp_path]
    assert run(argv) == 2
    assert "angle_uncertainty must be at most 90 deg" in capsys.readouterr().err
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


@pytest.mark.parametrize("steps, expect", [("10", (4, 4)), ("11", (5, 5))])
def test_map_minimum_is_first_tied_cell(tmp_path, capsys, steps, expect):
    # mirror cells tie exactly; stdout names the first minimal cell in
    # row-major order, on an even grid the one at negative phi and theta
    code = run(["map", "--steps", steps, "--phi-max", "5", "--theta-max", "3",
                "--outdir", tmp_path])
    assert code == 0
    grid = AngleGrid(5.0, 3.0, int(steps), int(steps))
    i, j = expect
    assert (f"at (phi, theta) = ({grid.phis[i]:.2f}, {grid.thetas[j]:.2f}) deg"
            in capsys.readouterr().out)
    pl = [line.split(",")[2] for line in (tmp_path / "map.csv").read_text().splitlines()[1:]]
    lowest = min(pl, key=float)
    tied = [k for k, v in enumerate(pl) if v == lowest]
    n = int(steps)
    if n % 2:
        assert tied == [i * n + j]
    else:
        assert tied == [i * n + j, i * n + j + 1, (i + 1) * n + j, (i + 1) * n + j + 1]
        assert grid.phis[i] < 0 and grid.thetas[j] < 0


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--contrast", "nan"], "contrast"),
        (["--contrast", "-1"], "contrast"),
        (["--linewidth", "inf"], "linewidth"),
        (["--amplitude", "-5"], "amplitude"),
        (["--amplitude", "nan"], "amplitude"),
        (["--phi-max", "nan"], "angle ranges"),
        (["--theta-max", "inf"], "angle ranges"),
        (["--species", "P1"], "bare S=1"),
        # beyond the goniometer limit that AngleGrid enforces
        (["--phi-max", "120"], "at most 90 deg"),
        (["--theta-max", "90.5"], "at most 90 deg"),
        (["--steps", "402"], "steps per axis"),
        (["--steps", "2"], "steps per axis"),
    ],
)
def test_map_bad_input_is_usage_error(tmp_path, capsys, extra, message):
    code = run(["map", "--steps", "11", "--outdir", tmp_path, *extra])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "map_meta.json").exists()


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
