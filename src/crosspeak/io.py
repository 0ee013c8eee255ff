"""File formats and atomic output writing.

Float formatting is fixed (%.6f for gauss quantities, %.4f for MHz) so
identical inputs always produce byte-identical CSV and JSON outputs.
Every writer goes through a temp-file-plus-rename so a crashed run never
leaves a partial file behind.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .crossings import CrossingEvent, TransitionCurve
from .spectrum import AbscissaKind, ScanReport, Spectrum
from .zfs import ZfsEstimate


def fmt_gauss(x: float) -> str:
    return f"{x:.6f}"


def fmt_mhz(x: float) -> str:
    return f"{x:.4f}"


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _round(x: float, places: int) -> float | None:
    """x rounded for JSON: None (null) when it is not finite."""
    x = float(x)
    if not math.isfinite(x):
        return None
    r = round(x, places)
    return 0.0 if r == 0 else r  # avoid "-0.0" leaking into JSON


def dump_json(payload) -> str:
    """Standard JSON text: a non-finite float raises instead of writing NaN."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv(header: list[str], rows) -> str:
    """CSV text: the header, then one line per row of the iterable."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def curves_to_csv(curves: list[TransitionCurve]) -> str:
    labels = [f"{c.species}|{c.orientation}|{c.label}|x{c.multiplicity}" for c in curves]
    return _csv(
        ["B_G", "f_MHz", "label"],
        ([fmt_gauss(b), fmt_mhz(f), label]
         for c, label in zip(curves, labels) for b, f in zip(c.B, c.f)),
    )


def events_to_csv(events: list[CrossingEvent]) -> str:
    return _csv(
        ["species_a", "transition_a", "species_b", "transition_b",
         "B_star_G", "f_star_MHz", "slope_gap"],
        ([e.species_a, e.transition_a, e.species_b, e.transition_b,
          fmt_gauss(e.B_star), fmt_mhz(e.f_star), fmt_gauss(e.slope_gap)]
         for e in events),
    )


def events_to_json(events: list[CrossingEvent]) -> str:
    payload = [
        {
            "species_a": e.species_a,
            "transition_a": e.transition_a,
            "species_b": e.species_b,
            "transition_b": e.transition_b,
            "B_star_G": _round(e.B_star, 6),
            "f_star_MHz": _round(e.f_star, 4),
            "slope_gap": _round(e.slope_gap, 6),
        }
        for e in events
    ]
    return dump_json(payload)


def report_to_json(report: ScanReport, zfs: list[ZfsEstimate] = ()) -> str:
    payload = {
        "calibration": None
        if report.calibration is None
        else {
            "anchors": [
                {"voltage": _round(v, 6), "field_G": _round(b, 6)}
                for v, b in report.calibration.anchors
            ],
            "flags": list(report.calibration.flags),
        },
        "baseline": {
            "coefficients": [float(f"{c:.10e}") for c in report.baseline.coefficients],
            "excluded_windows_G": [
                [_round(lo, 6), _round(hi, 6)]
                for lo, hi in report.baseline.excluded_windows
            ],
            "rms": _round(report.baseline.rms, 6),
        },
        "peaks": [
            {
                "center_G": _round(p.center, 6),
                "sigma_G": _round(p.sigma, 6),
                "depth": _round(p.depth, 6),
                "center_sigma_G": _round(p.center_sigma, 6),
                "contrast": _round(p.contrast, 8),
                "flags": list(p.flags),
            }
            for p in report.peaks
        ],
        "zfs": [zfs_to_dict(z) for z in zfs],
    }
    return dump_json(payload)


def peaks_to_csv(report: ScanReport) -> str:
    return _csv(
        ["center_G", "sigma_G", "depth", "center_sigma_G", "contrast", "flags"],
        ([fmt_gauss(p.center), fmt_gauss(p.sigma), f"{p.depth:.6f}",
          fmt_gauss(p.center_sigma), f"{p.contrast:.8f}", ";".join(p.flags)]
         for p in report.peaks),
    )


def zfs_to_dict(z: ZfsEstimate) -> dict:
    return {
        "D_MHz": _round(z.D, 4),
        "sigma_D_MHz": _round(z.sigma_D, 4),
        "contributions_MHz": {
            k: _round(v, 4) for k, v in sorted(z.contributions.items())
        },
    }


def zfs_to_json(z: ZfsEstimate) -> str:
    return dump_json(zfs_to_dict(z))


def map_to_csv(deg_map) -> str:
    phis, thetas, pl = deg_map.grid.phis, deg_map.grid.thetas, deg_map.pl_proxy
    return _csv(
        ["phi_deg", "theta_deg", "pl_proxy"],
        ([fmt_gauss(phi), fmt_gauss(theta), f"{pl[i, j]:.6f}"]
         for i, phi in enumerate(phis) for j, theta in enumerate(thetas)),
    )


def map_meta_to_json(deg_map) -> str:
    payload = {
        "amplitude_G": _round(deg_map.amplitude, 6),
        "linewidth_MHz": _round(deg_map.linewidth, 4),
        "contrast": _round(deg_map.contrast, 6),
        "rotation_order": "phi about y, then theta about z",
        "flags": list(deg_map.flags),
        "grid": {
            "phi_max_deg": _round(deg_map.grid.phi_max, 6),
            "theta_max_deg": _round(deg_map.grid.theta_max, 6),
            "n_phi": deg_map.grid.n_phi,
            "n_theta": deg_map.grid.n_theta,
        },
    }
    return dump_json(payload)


def loci_to_csv(loci: dict[str, np.ndarray]) -> str:
    return _csv(
        ["plane", "phi_deg", "theta_deg"],
        ([name, fmt_gauss(phi), fmt_gauss(theta)]
         for name in sorted(loci) for phi, theta in loci[name]),
    )


def _read_pairs(path: Path, columns: str, row_kind: str) -> tuple[list[str], np.ndarray]:
    """Header and (n, 2) float table of a two-column CSV; the messages name
    the ``columns`` expected and the ``row_kind`` of a malformed row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ValueError(f"{path}: expected a header plus {columns} rows")
    try:
        data = np.array([[float(r[0]), float(r[1])] for r in rows[1:] if r])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed {row_kind} row: {exc}") from None
    # blank rows parse to an empty (0, 2) table, which callers reject as short
    return rows[0], data.reshape(-1, 2)


def read_scan_csv(path: str | Path, kind: str | None = None) -> Spectrum:
    """Scan CSV with a header and (abscissa, counts) columns.

    The abscissa kind comes from ``kind``, else a sidecar
    ``<path>.meta.json`` {"abscissa_kind": ...}, else a recognised header
    name (voltage/field).
    """
    path = Path(path)
    metadata: dict = {}
    sidecar = path.with_name(path.name + ".meta.json")
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar}: not valid JSON: {exc}") from None
        if not isinstance(metadata, dict):
            raise ValueError(f"{sidecar}: scan metadata must be a JSON object")
        if kind is None:
            kind = metadata.get("abscissa_kind")
    header, data = _read_pairs(path, "(abscissa, counts)", "scan")
    if kind is None:
        name = header[0].strip().lower()
        if "voltage" in name:
            kind = "voltage"
        elif "field" in name or name.startswith("b"):
            kind = "field"
        else:
            raise ValueError(
                f"{path}: cannot infer abscissa kind from header {header!r}; "
                "pass it explicitly"
            )
    return Spectrum(data[:, 0], data[:, 1], AbscissaKind(kind), metadata)


def read_fiducials_csv(path: str | Path) -> np.ndarray:
    return _read_pairs(Path(path), "(voltage, frequency_MHz)", "fiducial")[1]
