"""The four CLI workloads: input generation and output checks.

Every operation draws its inputs from ``numpy.random.default_rng([seed,
index])``, so a seed fixes the whole sequence and no two operations of
a run share an input.  Within a workload every operation does the same
amount of work: sweep spans, grid sizes, scan lengths and the cells the
calibration bracketing walks through are held fixed while the values in
them are drawn.  Each check compares an output file against a value
computed apart from the program (``oracle``) or against a documented
property, and raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle


class CheckFailed(AssertionError):
    """An output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: the CLI calls it makes and what they must produce."""

    argvs: list[list[str]]
    outdir: Path
    expected: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, catalog: list[dict]):
        nv = next(e for e in catalog if e["name"] == "NV")
        self.catalog = catalog
        self.d_nv = float(nv["D_MHz"])
        self.gamma = float(nv["gamma_e_MHz_per_G"])

    def make(self, seed: int, index: int, workdir: Path) -> Op:
        raise NotImplementedError

    def read(self, op: Op) -> dict:
        raise NotImplementedError

    def check(self, op: Op, out: dict) -> None:
        raise NotImplementedError


class Crossings(Workload):
    """NV x drawn S=1 target over 130 G, then the P1 three-body search."""

    name = "crossings"
    SPAN_G = 130.0
    P1_POINTS = 2500

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])
        d_target = float(rng.uniform(2440.0, 2790.0))
        # b_min in (14.5, 15] keeps the 0.5 G label ramp at 30 points
        b_min = round(float(rng.uniform(14.501, 15.0)), 4)
        b_max = round(b_min + self.SPAN_G, 4)
        p1_max = float(rng.uniform(250.0, 255.0))
        p1_step = p1_max / self.P1_POINTS
        catalog = [*self.catalog, {"name": "target", "S": 1, "D_MHz": d_target,
                                   "gamma_e_MHz_per_G": self.gamma, "orientation": "111"}]
        cat_path = workdir / "catalog.json"
        cat_path.write_text(json.dumps(catalog))
        out = workdir / "out"
        return Op(
            argvs=[
                ["crossings", "--catalog", str(cat_path), "--a", "NV", "--b", "target",
                 "--range", f"{b_min:.4f}:{b_max:.4f}:0.1", "--outdir", str(out / "direct")],
                ["crossings", "--catalog", str(cat_path), "--p1-three-body",
                 "--range", f"0:{p1_max!r}:{p1_step!r}", "--outdir", str(out / "p1")],
            ],
            outdir=out,
            expected={"B_star": oracle.crossing_field(self.d_nv, d_target, self.gamma)},
        )

    def read(self, op):
        return {
            "direct": json.loads((op.outdir / "direct" / "crossings.json").read_text()),
            "p1": json.loads((op.outdir / "p1" / "crossings.json").read_text()),
        }

    def check(self, op, out):
        direct = out["direct"]
        require(len(direct) == 1, f"expected one NV x target event, got {len(direct)}")
        e = direct[0]
        require((e["species_a"], e["species_b"]) == ("NV", "target"),
                f"event between {e['species_a']} and {e['species_b']}")
        require((e["transition_a"], e["transition_b"]) == ("ms=0>ms=-1", "ms=0>ms=+1"),
                f"event on branches {e['transition_a']} x {e['transition_b']}")
        b_ref = op.expected["B_star"]
        require(abs(e["B_star_G"] - b_ref) <= 1e-3,
                f"B* {e['B_star_G']} G vs reference {b_ref:.6f} G")
        fields = np.array([p["B_star_G"] for p in out["p1"]])
        require(len(fields) > 0, "no three-body events")
        for ref in oracle.P1_PUBLISHED_FIELDS:
            miss = float(np.min(np.abs(fields - ref)))
            require(miss <= 1.0, f"published P1 field {ref} G missed by {miss:.3f} G")


class Invert(Workload):
    """Full error budget at the CLI defaults for a dip from a drawn D."""

    name = "invert"

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])
        d_target = float(rng.uniform(2440.0, 2790.0))
        b_star = oracle.crossing_field(self.d_nv, d_target, self.gamma)
        out = workdir / "out"
        return Op(
            argvs=[["invert", "--center", repr(b_star), "--outdir", str(out)]],
            outdir=out,
            expected={"D": d_target},
        )

    def read(self, op):
        return json.loads((op.outdir / "zfs.json").read_text())

    def check(self, op, out):
        d_ref = op.expected["D"]
        require(abs(out["D_MHz"] - d_ref) <= 0.01, f"D {out['D_MHz']} vs drawn {d_ref:.4f} MHz")
        parts = out["contributions_MHz"]
        require(sorted(parts) == ["angle", "calibration", "fit", "nv_reference"],
                f"contributions {sorted(parts)}")
        for name, value in parts.items():
            require(value > 0, f"contribution {name} is {value}")
        # each term is rounded to 1e-4 MHz in the file
        quad = math.sqrt(sum(v * v for v in parts.values()))
        require(abs(out["sigma_D_MHz"] - quad) <= 2e-4,
                f"sigma_D {out['sigma_D_MHz']} vs quadrature sum {quad:.4f}")


class Fit(Workload):
    """Calibrate, baseline and fit a fresh synthetic voltage scan."""

    name = "fit"
    N_POINTS = 1200
    BASE = 1.0e6
    # (depth, sigma G) of the three dips; centres are drawn in DIP_RANGES
    DIPS = ((0.015, 1.0), (0.012, 1.2), (0.010, 1.5))
    DIP_RANGES = ((18.0, 30.0), (45.0, 75.0), (95.0, 128.0))
    # field_for_frequency brackets in 2 G steps from 0: drawing each
    # fiducial inside a fixed 2 G cell keeps the bracketing work constant
    FIDUCIAL_CELLS = (10.0, 50.0, 90.0, 130.0)
    # At the default threshold of 5 noise sigmas about 1 scan in 4,000
    # gets a noise wiggle inside a deep dip detected as a second, narrow
    # window: `fit` then exits 2 ("window holds fewer than 7 points") or
    # reports a fourth dip, on some seeds only.  7 sigmas keeps every
    # operation whole while the shallowest dip still sits at 10 sigmas.
    THRESHOLD = 7

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])
        offset = float(rng.uniform(-2.0, 2.0))  # field = offset + slope * V
        slope = float(rng.uniform(18.0, 24.0))
        centers = [float(rng.uniform(lo, hi)) for lo, hi in self.DIP_RANGES]
        fid_fields = [c + float(rng.uniform(0.2, 1.8)) for c in self.FIDUCIAL_CELLS]

        volts = np.linspace((0.0 - offset) / slope, (145.0 - offset) / slope, self.N_POINTS)
        b = offset + slope * volts
        u = b / 145.0
        model = self.BASE * (1.0 + 0.02 * u - 0.015 * u**2 + 0.004 * u**4)
        for c, (depth, sigma) in zip(centers, self.DIPS):
            model *= 1.0 - depth * np.exp(-((b - c) ** 2) / (2 * sigma**2))
        counts = rng.poisson(model)

        scan = workdir / "scan.csv"
        scan.write_text("voltage_V,counts\n" + "".join(
            f"{v!r},{int(n)}\n" for v, n in zip(volts.tolist(), counts.tolist())))
        fid = workdir / "fid.csv"
        fid_volts = [(f - offset) / slope for f in fid_fields]
        fid.write_text("voltage_V,frequency_MHz\n" + "".join(
            f"{v!r},{oracle.probe_frequencies_100(self.d_nv, self.gamma, f)[1]!r}\n"
            for v, f in zip(fid_volts, fid_fields)))
        out = workdir / "out"
        return Op(
            argvs=[["fit", str(scan), "--fiducials", str(fid), "--threshold", str(self.THRESHOLD),
                    "--outdir", str(out)]],
            outdir=out,
            expected={"anchors": fid_fields, "dips": list(zip(centers, (s for _, s in self.DIPS)))},
        )

    def read(self, op):
        return json.loads((op.outdir / "report.json").read_text())

    def check(self, op, out):
        anchors = out["calibration"]["anchors"] if out["calibration"] else []
        got = sorted(a["field_G"] for a in anchors)
        want = sorted(op.expected["anchors"])
        require(len(got) == len(want), f"{len(got)} calibration anchors, expected {len(want)}")
        for g, w in zip(got, want):
            require(abs(g - w) <= 1e-3, f"anchor at {g} G vs true field {w:.6f} G")
        centers = [p["center_G"] for p in out["peaks"]]
        require(len(centers) == 3, f"{len(centers)} dips found, expected 3")
        for c_true, sigma in op.expected["dips"]:
            miss = min(abs(c - c_true) for c in centers)
            require(miss <= sigma / 5.0,
                    f"dip at {c_true:.4f} G missed by {miss:.4f} G (limit {sigma / 5.0} G)")


class Map(Workload):
    """101 x 101 angular degeneracy map at a drawn amplitude."""

    name = "map"
    STEPS = 101
    CONTRAST = 0.05  # CLI default
    LINEWIDTH = 6.0  # CLI default, MHz FWHM
    N_SAMPLES = 6

    def make(self, seed, index, workdir):
        rng = np.random.default_rng([seed, index])
        amplitude = float(rng.uniform(100.0, 130.0))
        samples = rng.integers(0, self.STEPS * self.STEPS, size=self.N_SAMPLES).tolist()
        out = workdir / "out"
        return Op(
            argvs=[["map", "--steps", str(self.STEPS), "--amplitude", repr(amplitude),
                    "--outdir", str(out)]],
            outdir=out,
            expected={"amplitude": amplitude, "samples": samples},
        )

    def read(self, op):
        return np.loadtxt(op.outdir / "map.csv", delimiter=",", skiprows=1)

    def check(self, op, out):
        require(out.shape == (self.STEPS * self.STEPS, 3), f"map has shape {out.shape}")
        k = int(np.argmin(out[:, 2]))
        phi, theta, pl_min = out[k]
        require(phi == 0.0 and theta == 0.0, f"minimum at ({phi}, {theta}), not (0, 0)")
        require(abs(pl_min - (1.0 - self.CONTRAST)) <= 1e-6,
                f"minimum {pl_min} vs 1 - contrast = {1.0 - self.CONTRAST}")
        amp = op.expected["amplitude"]
        peak = oracle.lorentzian_sum(self.d_nv, self.gamma, amp, oracle.field_axis(0.0, 0.0),
                                     self.LINEWIDTH)
        for s in op.expected["samples"]:
            phi, theta, pl = out[s]
            raw = oracle.lorentzian_sum(self.d_nv, self.gamma, amp,
                                        oracle.field_axis(phi, theta), self.LINEWIDTH)
            ref = 1.0 - self.CONTRAST * raw / peak
            # the file holds 6 decimals of both the angles and the value
            require(abs(pl - ref) <= 2e-6,
                    f"pl_proxy {pl} at ({phi}, {theta}) vs longhand {ref:.7f}")


WORKLOADS = {cls.name: cls for cls in (Crossings, Invert, Fit, Map)}
