"""Byte-for-byte golden outputs of the CLI.

The files in ``tests/golden/`` were written by the package while it still
solved the error budget, the calibration and the crossing refinement with
scalar bisection loops (one Hamiltonian build and one eigensolve per
probe).  The stacked bracket-and-bisect that replaced them must reproduce
every byte.  The ``map_115`` and ``map_127_3`` files were written while
``map`` still built its own Zeeman stack instead of going through
``spin.probe_frequencies``, and the ``map_vh_even`` files while it still
solved every grid cell and formatted its CSV cell by cell.
The ``crossings_nv_vh_1*``, ``crossings_nv_nv13c`` and ``predict_*`` files
were written while level tracking matched each grid step in its own loop
iteration and refinement solved one matrix per probe.
The ``crossings_nv_war1_generic``, ``crossings_nv13c_vh_111`` and
``crossings_p1_three_body_ramp`` files were written while each curve pair
ran its own bisection through a frequency closure per curve.
The ``predict_nv_nv13c_p1_vh_*`` files were written while ``sweep_curves``
tracked every orientation class and merged coincident curves afterwards.
The inputs are regenerated here from fixed seeds and literal fiducials.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from crosspeak import kernels
from crosspeak.cli import main

from synth import make_scan

GOLDEN = Path(__file__).parent / "golden"

# (voltage, frequency MHz) microwave anchors for the voltage scan below,
# whose drive is 60 G per volt along [100]; the 1.0 V anchor sits on the
# lower probe branch, the others on the upper one
FIDUCIALS = ((0.3, 2900.0095), (1.0, 2782.8143), (1.6, 3050.252), (2.2, 3130.4196))


def write_field_scan(path: Path) -> Path:
    b, counts = make_scan(np.random.default_rng(7))
    rows = "\n".join(f"{x:.6f},{c:.1f}" for x, c in zip(b, counts))
    path.write_text("field_G,counts\n" + rows + "\n")
    return path


def write_voltage_scan(workdir: Path) -> tuple[Path, Path]:
    b, counts = make_scan(np.random.default_rng(11))
    scan = workdir / "vscan.csv"
    rows = "\n".join(f"{x / 60.0:.9f},{c:.1f}" for x, c in zip(b, counts))
    scan.write_text("voltage_V,counts\n" + rows + "\n")
    fid = workdir / "fid.csv"
    fid.write_text(
        "voltage_V,frequency_MHz\n" + "".join(f"{v},{f}\n" for v, f in FIDUCIALS)
    )
    return scan, fid


def run(argv) -> None:
    assert main([str(a) for a in argv]) == 0


def invert_center(tmp: Path) -> dict[str, bytes]:
    run(["invert", "--center", "54.2522", "--outdir", tmp])
    return {"invert_center.zfs.json": (tmp / "zfs.json").read_bytes()}


def invert_report(tmp: Path) -> dict[str, bytes]:
    scan = write_field_scan(tmp / "scan.csv")
    run(["fit", scan, "--outdir", tmp / "fit"])
    run(["invert", "--report", tmp / "fit" / "report.json", "--outdir", tmp])
    return {"invert_report.zfs.json": (tmp / "zfs.json").read_bytes()}


def fit_voltage(tmp: Path, axis: str) -> dict[str, bytes]:
    scan, fid = write_voltage_scan(tmp)
    run(["fit", scan, "--fiducials", fid, "--axis", axis, "--outdir", tmp])
    return {
        f"fit_voltage_{axis}.report.json": (tmp / "report.json").read_bytes(),
        f"fit_voltage_{axis}.peaks.csv": (tmp / "peaks.csv").read_bytes(),
    }


def crossings(tmp: Path, name: str, argv) -> dict[str, bytes]:
    run(["crossings", *argv, "--outdir", tmp])
    return {
        f"{name}.crossings.csv": (tmp / "crossings.csv").read_bytes(),
        f"{name}.crossings.json": (tmp / "crossings.json").read_bytes(),
    }


def predict(tmp: Path, name: str, argv) -> dict[str, bytes]:
    run(["predict", *argv, "--outdir", tmp])
    return {
        f"{name}.{path.name}": path.read_bytes() for path in sorted(tmp.glob("curves_*.csv"))
    }


def map_case(tmp: Path, name: str, argv) -> dict[str, bytes]:
    run(["map", *argv, "--outdir", tmp])
    return {
        f"{name}.{fname}": (tmp / fname).read_bytes()
        for fname in ("map.csv", "map_meta.json", "loci.csv")
    }


CASES = {
    "invert_center": invert_center,
    "invert_report": invert_report,
    "fit_voltage_100": lambda tmp: fit_voltage(tmp, "100"),
    # off [100] the classes split, so calibration flags "class-ambiguous"
    "fit_voltage_111": lambda tmp: fit_voltage(tmp, "111"),
    "crossings_nv_vh": lambda tmp: crossings(
        tmp, "crossings_nv_vh",
        ["--a", "NV", "--b", "VH-", "--axis", "100", "--range", "15:145:0.1"],
    ),
    "crossings_p1_three_body": lambda tmp: crossings(
        tmp, "crossings_p1_three_body", ["--p1-three-body", "--range", "0:250:0.1"]
    ),
    # off [100] the four NV classes split into distinct curves
    "crossings_nv_vh_111": lambda tmp: crossings(
        tmp, "crossings_nv_vh_111",
        ["--a", "NV", "--b", "VH-", "--axis", "111", "--range", "15:145:0.1"],
    ),
    "crossings_nv_vh_110": lambda tmp: crossings(
        tmp, "crossings_nv_vh_110",
        ["--a", "NV", "--b", "VH-", "--axis", "110", "--range", "15:145:0.1"],
    ),
    # 6x6 hyperfine levels of the coupled target
    "crossings_nv_nv13c": lambda tmp: crossings(
        tmp, "crossings_nv_nv13c",
        ["--a", "NV", "--b", "NV-13C", "--axis", "100", "--range", "15:145:0.1"],
    ),
    # a generic axis splits all four NV classes: many curve pairs, 8 tracks
    "crossings_nv_war1_generic": lambda tmp: crossings(
        tmp, "crossings_nv_war1_generic",
        ["--a", "NV", "--b", "WAR1", "--axis", "0.3,0.5,0.8", "--range", "0:300:0.1"],
    ),
    # hyperfine levels on both sides: 6x6 tracks against 6x6 tracks
    "crossings_nv13c_vh_111": lambda tmp: crossings(
        tmp, "crossings_nv13c_vh_111",
        ["--a", "NV-13C", "--b", "VH-", "--axis", "111", "--range", "0:200:0.1"],
    ),
    # the zero-field ramp below an off-grid start
    "crossings_p1_three_body_ramp": lambda tmp: crossings(
        tmp, "crossings_p1_three_body_ramp",
        ["--p1-three-body", "--range", "3:180:0.37"],
    ),
    "predict_nv13c_p1_111": lambda tmp: predict(
        tmp, "predict_nv13c_p1_111",
        ["--species", "NV-13C,P1", "--axis", "111", "--range", "0:145:1"],
    ),
    # multiplicities of coincident orientation classes: |x4 along <100>,
    # |x2 along <110>
    "predict_nv_nv13c_p1_vh_100": lambda tmp: predict(
        tmp, "predict_nv_nv13c_p1_vh_100",
        ["--species", "NV,NV-13C,P1,VH-", "--axis", "100", "--range", "0:150:0.5"],
    ),
    "predict_nv_nv13c_p1_vh_110": lambda tmp: predict(
        tmp, "predict_nv_nv13c_p1_vh_110",
        ["--species", "NV,NV-13C,P1,VH-", "--axis", "110", "--range", "0:150:0.5"],
    ),
    "map_115": lambda tmp: map_case(tmp, "map_115", ["--steps", "51", "--amplitude", "115"]),
    # off the 115 G default, with a fractional amplitude in the metadata
    "map_127_3": lambda tmp: map_case(
        tmp, "map_127_3", ["--steps", "51", "--amplitude", "127.3"]
    ),
    # an even grid (no cell on either mirror line), unequal ranges and a
    # species other than NV
    "map_vh_even": lambda tmp: map_case(
        tmp, "map_vh_even",
        ["--steps", "50", "--phi-max", "45", "--theta-max", "12.5", "--species", "VH-"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, tmp_path):
    outputs = CASES[case](tmp_path)
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_every_eigensolve_goes_through_kernels(tmp_path, monkeypatch):
    # numpy's Hermitian eigensolvers answer kernels.eigh_stack and fail
    # for any other caller; each command must still solve through them
    solves = []
    for name in ("eigh", "eigvalsh"):
        def guarded(*args, _solver=getattr(np.linalg, name), **kwargs):
            if sys._getframe(1).f_code is not kernels.eigh_stack.__code__:
                raise AssertionError("eigensolve outside kernels.eigh_stack")
            solves.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)
    scan, fid = write_voltage_scan(tmp_path)
    for argv in (
        ["crossings", "--a", "NV", "--b", "VH-", "--range", "40:70:0.5"],
        ["invert", "--center", "54.2522"],
        ["map", "--steps", "5"],
        ["fit", scan, "--fiducials", fid],
    ):
        solves.clear()
        run([*argv, "--outdir", tmp_path / argv[0]])
        assert solves, argv[0]
