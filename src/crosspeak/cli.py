"""Command-line entry point.

Subcommands: predict (transition curves), crossings (resonance search),
fit (PL-scan pipeline), invert (ZFS from a dip position), map (angular
degeneracy map).  Exit codes: 0 success, 2 configuration or input error,
3 numerical diagnostic (tracking overlap), 4 no solution in the domain.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io as iomod
from .angular import AngleGrid, plane_loci, simulate_map
from .catalog import CatalogError, default_catalog_path, load_catalog
from .crossings import SweepSpec, find_crossings, p1_three_body_fields, sweep_curves
from .spectrum import NoSolutionError, analyze_scan
from .spin import ManifoldRule, TrackingWarning
from .zfs import infer_zfs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DOMAIN = 4

_AXIS_NAMES = {
    "100": (1.0, 0.0, 0.0),
    "010": (0.0, 1.0, 0.0),
    "001": (0.0, 0.0, 1.0),
    "110": (1.0, 1.0, 0.0),
    "011": (0.0, 1.0, 1.0),
    "111": (1.0, 1.0, 1.0),
}


def _parse_axis(text: str) -> np.ndarray:
    if text in _AXIS_NAMES:
        v = np.asarray(_AXIS_NAMES[text], dtype=float)
    else:
        try:
            v = np.asarray([float(p) for p in text.split(",")], dtype=float)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse axis {text!r}") from None
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise argparse.ArgumentTypeError(f"axis {text!r} needs 3 finite components")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    # zero, or a length that under- or overflows (1e-320,0,0; 1e200,1e200,0)
    if not 0 < norm < np.inf:
        raise argparse.ArgumentTypeError(f"axis {text!r} has no finite nonzero length")
    return v / norm


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("range must be B_MIN:B_MAX[:STEP]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 0.1
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse range {text!r}") from None
    return lo, hi, step


def _parse_formats(text: str) -> tuple[str, ...]:
    formats = tuple(text.split(","))
    if not set(formats) <= {"csv", "json"}:
        raise argparse.ArgumentTypeError(f"format must be csv, json or csv,json, not {text!r}")
    return formats


def _parse_windows(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            out.append((float(lo), float(hi)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse window {part!r}") from None
    return out


def _lookup(catalog, name: str):
    if name in catalog:
        return catalog[name]
    # forgiving lookup: case and dash insensitive (NV13C -> NV-13C)
    norm = name.lower().replace("-", "").replace("_", "")
    hits = [s for key, s in catalog.items()
            if key.lower().replace("-", "").replace("_", "") == norm]
    if len(hits) == 1:
        return hits[0]
    raise CatalogError(f"unknown species {name!r}; catalog has {', '.join(catalog)}")


def _write(outdir: Path, name: str, text: str, written: list[Path]):
    path = outdir / name
    iomod.write_text_atomic(path, text)
    written.append(path)


def cmd_predict(args, catalog) -> int:
    lo, hi, step = args.range
    spec = SweepSpec(args.axis, lo, hi, step)
    rule = ManifoldRule(args.rule) if args.rule else None
    written: list[Path] = []
    for name in args.species.split(","):
        species = _lookup(catalog, name.strip())
        curves = sweep_curves(species, spec, rule=rule)
        fname = f"curves_{species.name.replace('-', '_')}.csv"
        _write(args.outdir, fname, iomod.curves_to_csv(curves), written)
        print(f"{species.name}: {len(curves)} curves -> {written[-1]}")
    return EXIT_OK


def cmd_crossings(args, catalog) -> int:
    lo, hi, step = args.range
    spec = SweepSpec(args.axis, lo, hi, step)
    if args.p1_three_body:
        events = p1_three_body_fields(_lookup(catalog, args.nv), _lookup(catalog, "P1"), spec)
    else:
        if not args.a or not args.b:
            print("crossings: need --a and --b (or --p1-three-body)", file=sys.stderr)
            return EXIT_CONFIG
        curves_a = sweep_curves(_lookup(catalog, args.a), spec)
        curves_b = sweep_curves(_lookup(catalog, args.b), spec)
        events = find_crossings(curves_a, curves_b)
    written: list[Path] = []
    if "csv" in args.format:
        _write(args.outdir, "crossings.csv", iomod.events_to_csv(events), written)
    if "json" in args.format:
        _write(args.outdir, "crossings.json", iomod.events_to_json(events), written)
    for e in events:
        print(
            f"{e.species_a} {e.transition_a} x {e.species_b} {e.transition_b}: "
            f"B* = {e.B_star:.4f} G, f* = {e.f_star:.4f} MHz"
        )
    print(f"{len(events)} events -> {', '.join(str(p) for p in written)}")
    return EXIT_OK


def cmd_fit(args, catalog) -> int:
    spectrum = iomod.read_scan_csv(args.scan, kind=args.kind)
    fiducials = iomod.read_fiducials_csv(args.fiducials) if args.fiducials else None
    nv = _lookup(catalog, args.nv)
    report = analyze_scan(
        spectrum,
        fiducials=fiducials,
        nv=nv,
        axis=args.axis,
        windows=args.windows,
        k=args.threshold,
    )
    written: list[Path] = []
    _write(args.outdir, "report.json", iomod.report_to_json(report), written)
    if "csv" in args.format:
        _write(args.outdir, "peaks.csv", iomod.peaks_to_csv(report), written)
    for p in report.peaks:
        flag = f"  [{';'.join(p.flags)}]" if p.flags else ""
        print(
            f"dip at {p.center:.4f} G  sigma {p.sigma:.4f} G  "
            f"contrast {p.contrast:.5f}{flag}"
        )
    print(f"{len(report.peaks)} dips -> {', '.join(str(p) for p in written)}")
    return EXIT_OK


def cmd_invert(args, catalog) -> int:
    nv = _lookup(catalog, args.nv)
    jobs = []
    if args.center is not None:
        jobs.append((args.center, args.fit_sigma))
    elif args.report:
        try:
            payload = json.loads(Path(args.report).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.report}: not valid JSON: {exc}") from None
        try:
            for p in payload.get("peaks", []):
                # null stands for a non-finite value, which the inversion rejects
                pair = (p["center_G"], p.get("center_sigma_G", 0.0))
                jobs.append(tuple(float("nan") if v is None else float(v) for v in pair))
        except (AttributeError, KeyError, TypeError):
            raise ValueError(f"{args.report}: expected {{\"peaks\": [...]}} with a number "
                             "or null as each peak's center_G and center_sigma_G") from None
    if not jobs:
        print("invert: need --center or --report with peaks", file=sys.stderr)
        return EXIT_CONFIG
    estimates = []
    for center, fit_sigma in jobs:
        estimates.append(
            infer_zfs(
                center,
                cal_uncertainty=args.cal_sigma,
                angle_uncertainty=args.angle_sigma,
                nv=nv,
                assumed_crossing=(args.nv_branch, args.target_branch),
                axis=args.axis,
                fit_sigma=fit_sigma,
                nv_d_sigma=args.nv_d_sigma,
            )
        )
    written: list[Path] = []
    text = (
        iomod.zfs_to_json(estimates[0])
        if len(estimates) == 1
        else iomod.dump_json([iomod.zfs_to_dict(z) for z in estimates])
    )
    _write(args.outdir, "zfs.json", text, written)
    for z in estimates:
        parts = ", ".join(f"{k} {v:.2f}" for k, v in sorted(z.contributions.items()))
        print(f"D = {z.D:.4f} +- {z.sigma_D:.4f} MHz  ({parts})")
    print(f"-> {written[0]}")
    return EXIT_OK


def cmd_map(args, catalog) -> int:
    nv = _lookup(catalog, args.species)
    grid = AngleGrid(args.phi_max, args.theta_max, args.steps, args.steps)
    deg_map = simulate_map(
        grid, args.amplitude, nv, linewidth=args.linewidth, contrast=args.contrast
    )
    written: list[Path] = []
    _write(args.outdir, "map.csv", iomod.map_to_csv(deg_map), written)
    _write(args.outdir, "map_meta.json", iomod.map_meta_to_json(deg_map), written)
    _write(args.outdir, "loci.csv", iomod.loci_to_csv(plane_loci(grid)), written)
    # mirror cells tie exactly; the first minimal cell in row-major order
    i, j = np.unravel_index(np.argmin(deg_map.pl_proxy), deg_map.pl_proxy.shape)
    print(
        f"minimum pl_proxy {deg_map.pl_proxy[i, j]:.6f} at "
        f"(phi, theta) = ({grid.phis[i]:.2f}, {grid.thetas[j]:.2f}) deg"
    )
    if deg_map.flags:
        print(f"flags: {';'.join(deg_map.flags)}")
    print(f"-> {', '.join(str(p) for p in written)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosspeak",
        description="Cross-relaxation resonance prediction and PL-scan analysis "
        "for spin defects in diamond.",
    )
    # shared flags, accepted both before and after the subcommand (the
    # subparser copy uses SUPPRESS so an absent flag keeps the outer value)
    catalog_help = "species catalog JSON (default: $CROSSPEAK_CATALOG or the shipped one)"
    parser.add_argument("--catalog", type=Path, default=None, help=catalog_help)
    parser.add_argument("--outdir", type=Path, default=Path("."), help="output directory")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", type=Path, default=argparse.SUPPRESS, help=catalog_help)
    common.add_argument("--outdir", type=Path, default=argparse.SUPPRESS,
                        help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", parents=[common],
                       help="transition-frequency curves over a field sweep")
    p.add_argument("--species", required=True, help="comma-separated catalog names")
    p.add_argument("--axis", type=_parse_axis, default="100")
    p.add_argument("--range", type=_parse_range, default=(0.0, 145.0, 0.1),
                   help="B_MIN:B_MAX[:STEP] in gauss (default 0:145:0.1)")
    p.add_argument("--rule", choices=[r.value for r in ManifoldRule], default=None,
                   help="transition selection (default: natural rule per species)")

    p = sub.add_parser("crossings", parents=[common], help="resonance conditions between two species")
    p.add_argument("--a", help="first species")
    p.add_argument("--b", help="second species")
    p.add_argument("--p1-three-body", action="store_true",
                   help="NV-NV-P1 condition instead of a direct crossing")
    p.add_argument("--nv", default="NV", help="probe species for --p1-three-body")
    p.add_argument("--axis", type=_parse_axis, default="100")
    p.add_argument("--range", type=_parse_range, default=(15.0, 145.0, 0.1))
    p.add_argument("--format", type=_parse_formats, default="csv,json",
                   help="outputs to write: csv, json or csv,json")

    p = sub.add_parser("fit", parents=[common], help="calibrate, baseline, and fit a PL scan")
    p.add_argument("scan", type=Path, help="scan CSV (header + abscissa,counts)")
    p.add_argument("--kind", choices=["voltage", "field"], default=None,
                   help="abscissa kind (default: sidecar metadata or header)")
    p.add_argument("--fiducials", type=Path, default=None,
                   help="CSV of (voltage, frequency_MHz) microwave anchors")
    p.add_argument("--windows", type=_parse_windows, default=None,
                   help="excluded windows LO:HI[,LO:HI...] in gauss")
    p.add_argument("--nv", default="NV")
    p.add_argument("--axis", type=_parse_axis, default="100")
    p.add_argument("--threshold", type=float, default=5.0,
                   help="detection threshold in robust-sigma units (default 5)")
    p.add_argument("--format", type=_parse_formats, default="csv,json",
                   help="csv adds peaks.csv; report.json is always written")

    p = sub.add_parser("invert", parents=[common], help="zero-field splitting from a dip position")
    p.add_argument("--center", type=float, default=None, help="dip center in gauss")
    p.add_argument("--fit-sigma", type=float, default=1.0,
                   help="dip-center fit sigma in gauss (default 1)")
    p.add_argument("--report", type=Path, default=None,
                   help="report.json from `fit`; inverts every peak in it")
    p.add_argument("--cal-sigma", type=float, default=1.0,
                   help="field calibration uncertainty in gauss (default 1)")
    p.add_argument("--angle-sigma", type=float, default=0.5,
                   help="axis alignment uncertainty in degrees (default 0.5)")
    p.add_argument("--nv-d-sigma", type=float, default=1.0,
                   help="NV reference D uncertainty in MHz (default 1)")
    p.add_argument("--nv", default="NV")
    p.add_argument("--nv-branch", default="ms=0>ms=-1")
    p.add_argument("--target-branch", default="ms=0>ms=+1")
    p.add_argument("--axis", type=_parse_axis, default="100")

    p = sub.add_parser("map", parents=[common], help="angular degeneracy map around [100]")
    p.add_argument("--amplitude", type=float, default=115.0, help="field in gauss")
    p.add_argument("--phi-max", type=float, default=20.0)
    p.add_argument("--theta-max", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=101, help="grid points per axis")
    p.add_argument("--linewidth", type=float, default=6.0, help="FWHM in MHz")
    p.add_argument("--contrast", type=float, default=0.05)
    p.add_argument("--species", default="NV")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged,
    and each string default (such as --axis "100") is converted afresh on
    every parse, so no parsed value is shared between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        catalog = load_catalog(args.catalog)
    except CatalogError as exc:
        print(f"crosspeak: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        try:
            # looked up per call, not bound into the cached parser
            code = globals()[f"cmd_{args.command}"](args, catalog)
        except NoSolutionError as exc:
            print(f"crosspeak: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        except (CatalogError, ValueError, OSError) as exc:
            print(f"crosspeak: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    tracked = [w for w in captured if issubclass(w.category, TrackingWarning)]
    if tracked:
        for w in tracked:
            print(f"crosspeak: tracking diagnostic: {w.message}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
