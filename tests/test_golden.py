"""Byte-for-byte golden outputs of the CLI.

The files in ``tests/golden/`` were written by the package while it still
solved the error budget and the calibration with scalar bisection loops
(one Hamiltonian build and one eigensolve per probe).  The stacked
bracket-and-bisect that replaced them must reproduce every byte.  The
inputs are regenerated here from fixed seeds and literal fiducials.
"""

from pathlib import Path

import numpy as np
import pytest

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


CASES = {
    "invert_center": invert_center,
    "invert_report": invert_report,
    "fit_voltage_100": lambda tmp: fit_voltage(tmp, "100"),
    # off [100] the classes split, so calibration flags "class-ambiguous"
    "fit_voltage_111": lambda tmp: fit_voltage(tmp, "111"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, tmp_path):
    outputs = CASES[case](tmp_path)
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name
