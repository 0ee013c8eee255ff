"""Shows that every output check of the benchmark can fail.

Run from the root of a checkout:

    python3 bench/selftest.py

For each workload one operation runs through ``crosspeak.cli.main`` and
its real outputs must pass the check; then each perturbed copy of those
outputs must make the check fail.  The closed-form oracle is also held
against numpy's eigensolver.  Exits 1 if anything behaves otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def _edit(fn):
    """Perturbation that edits a deep copy of the outputs in place."""
    def apply(out, op):
        out = copy.deepcopy(out)
        fn(out, op)
        return out
    return apply


def _map_value(k_of, delta):
    def apply(out, op):
        out = out.copy()
        out[k_of(out, op), 2] += delta
        return out
    return apply


def _drop_peak(out, op):
    out["peaks"].pop(1)


def _shift_nearest_peak(out, op):
    c_true, sigma = op.expected["dips"][0]
    peak = min(out["peaks"], key=lambda p: abs(p["center_G"] - c_true))
    peak["center_G"] = c_true + sigma / 5.0 + 0.01


def _zero_term(out, op):
    out["contributions_MHz"]["angle"] = 0.0
    out["sigma_D_MHz"] = float(np.sqrt(sum(
        v * v for v in out["contributions_MHz"].values())))


def _p1_miss(out, op):
    for e in out["p1"]:
        if abs(e["B_star_G"] - 137.52) < 1.0:
            e["B_star_G"] += 1.5


PERTURBATIONS = {
    "crossings": {
        "B* off by 2e-3 G": _edit(lambda o, op: o["direct"][0].update(
            B_star_G=o["direct"][0]["B_star_G"] + 2e-3)),
        "a second event": _edit(lambda o, op: o["direct"].append(dict(o["direct"][0]))),
        "branches swapped": _edit(lambda o, op: o["direct"][0].update(
            transition_a="ms=0>ms=+1", transition_b="ms=0>ms=-1")),
        "P1 field 137.52 G missed": _edit(_p1_miss),
    },
    "invert": {
        "D off by 0.02 MHz": _edit(lambda o, op: o.update(D_MHz=o["D_MHz"] + 0.02)),
        "sigma_D off the quadrature sum": _edit(
            lambda o, op: o.update(sigma_D_MHz=o["sigma_D_MHz"] + 1e-3)),
        "a zero contribution": _edit(_zero_term),
    },
    "fit": {
        "anchor off by 2e-3 G": _edit(lambda o, op: o["calibration"]["anchors"][2].update(
            field_G=o["calibration"]["anchors"][2]["field_G"] + 2e-3)),
        "a dip lost": _edit(_drop_peak),
        "a centre beyond sigma/5": _edit(_shift_nearest_peak),
    },
    "map": {
        "minimum not at (0, 0)": _map_value(lambda o, op: 7, -0.5),
        "minimum not 1 - contrast": _map_value(lambda o, op: int(np.argmin(o[:, 2])), 1e-5),
        "sampled point off by 1e-5": _map_value(lambda o, op: op.expected["samples"][0], 1e-5),
    },
}


def main() -> int:
    root = Path.cwd()
    problems = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2000):
        a = rng.normal(size=(3, 3)) * rng.uniform(1.0, 3000.0)
        a = a + a.T
        ref = np.linalg.eigvalsh(a)
        worst = max(worst, float(np.max(np.abs(np.array(oracle.eigvals_sym3(a.tolist())) - ref))
                                 / np.max(np.abs(ref))))
    print(f"oracle: closed-form 3x3 eigenvalues within {worst:.1e} (relative) of numpy")
    if worst > 1e-12:
        problems.append("closed-form eigenvalues disagree with numpy")

    cli = run.import_cli(root)
    from crosspeak.catalog import default_catalog_path

    catalog = json.loads(default_catalog_path().read_text())
    workdir = root / ".bench_work" / "selftest"
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(catalog)
            opdir = workdir / name
            opdir.mkdir(parents=True, exist_ok=True)
            op = workload.make(0, 1, opdir)
            if not run.run_op(cli, op):
                problems.append(f"{name}: the operation itself failed")
                continue
            out = workload.read(op)
            try:
                workload.check(op, out)
                print(f"{name}: real output passes")
            except CheckFailed as exc:
                problems.append(f"{name}: real output rejected: {exc}")
            for label, perturb in PERTURBATIONS[name].items():
                try:
                    workload.check(op, perturb(out, op))
                except CheckFailed as exc:
                    print(f"{name}: {label}: rejected ({exc})")
                else:
                    problems.append(f"{name}: {label}: accepted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"SELFTEST FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
