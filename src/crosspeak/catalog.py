"""Species catalog: JSON-backed defect parameter sets.

The catalog is a JSON array of entries

    {"name", "S", "D_MHz", "E_MHz"?, "gamma_e_MHz_per_G"?,
     "orientation": "111" | "lab",
     "nuclear"?: {"I", "gamma_n_MHz_per_G", "A_MHz" (3x3 row-major),
                  "quadrupole_P_MHz"?}}

and is validated in full before anything is computed from it.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path

import numpy as np

from .spin import GAMMA_E, NuclearSpin, SpinSpecies

ENV_CATALOG = "CROSSPEAK_CATALOG"


class CatalogError(ValueError):
    """Malformed catalog file or unknown species."""


def default_catalog_path() -> Path:
    env = os.environ.get(ENV_CATALOG)
    if env:
        return Path(env)
    return Path(str(resources.files("crosspeak") / "data" / "species.json"))


def _require(entry: dict, key: str, where: str):
    if key not in entry:
        raise CatalogError(f"{where}: missing required field {key!r}")
    return entry[key]


def _number(value, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CatalogError(f"{where}: field {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = float("inf")
    if not abs(number) < float("inf"):  # NaN fails the comparison too
        raise CatalogError(f"{where}: field {key!r} must be finite, not {number}")
    return number


def _parse_nuclear(obj, where: str) -> NuclearSpin:
    if not isinstance(obj, dict):
        raise CatalogError(f"{where}: 'nuclear' must be an object")
    allowed = {"I", "gamma_n_MHz_per_G", "A_MHz", "quadrupole_P_MHz"}
    unknown = set(obj) - allowed
    if unknown:
        raise CatalogError(f"{where}: unknown nuclear fields {sorted(unknown)}")
    I = _number(_require(obj, "I", where), "I", where)
    gamma_n = _number(_require(obj, "gamma_n_MHz_per_G", where), "gamma_n_MHz_per_G", where)
    a_raw = _require(obj, "A_MHz", where)
    try:
        a = np.asarray(a_raw, dtype=float)
    except (OverflowError, TypeError, ValueError):
        a = np.array([np.nan])  # ragged, not numeric, or beyond the float range
    if not np.all(np.isfinite(a)):
        raise CatalogError(f"{where}: field 'A_MHz' must hold finite numbers")
    if a.size != 9:
        raise CatalogError(f"{where}: A_MHz must hold 9 numbers (3x3 row-major)")
    try:
        return NuclearSpin(
            I=I,
            gamma_n=gamma_n,
            A=a.reshape(3, 3),
            quadrupole_P=_number(obj.get("quadrupole_P_MHz", 0.0), "quadrupole_P_MHz", where),
        )
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _parse_entry(entry, index: int) -> SpinSpecies:
    where = f"catalog entry {index}"
    if not isinstance(entry, dict):
        raise CatalogError(f"{where}: must be an object")
    allowed = {"name", "S", "D_MHz", "E_MHz", "gamma_e_MHz_per_G", "orientation", "nuclear"}
    unknown = set(entry) - allowed
    if unknown:
        raise CatalogError(f"{where}: unknown fields {sorted(unknown)}")
    name = _require(entry, "name", where)
    if not isinstance(name, str) or not name:
        raise CatalogError(f"{where}: 'name' must be a non-empty string")
    where = f"catalog entry {name!r}"
    orientation = _require(entry, "orientation", where)
    if orientation not in ("111", "lab"):
        raise CatalogError(f"{where}: orientation must be '111' or 'lab'")
    nuclear = None
    if "nuclear" in entry and entry["nuclear"] is not None:
        nuclear = _parse_nuclear(entry["nuclear"], where)
    gamma_e = _number(entry.get("gamma_e_MHz_per_G", GAMMA_E), "gamma_e_MHz_per_G", where)
    if gamma_e <= 0:
        raise CatalogError(f"{where}: field 'gamma_e_MHz_per_G' must be > 0")
    try:
        return SpinSpecies(
            name=name,
            S=_number(_require(entry, "S", where), "S", where),
            D=_number(_require(entry, "D_MHz", where), "D_MHz", where),
            E=_number(entry.get("E_MHz", 0.0), "E_MHz", where),
            gamma_e=gamma_e,
            nuclear=nuclear,
            orientation_kind=orientation,
        )
    except ValueError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def load_catalog(path: str | Path | None = None) -> dict[str, SpinSpecies]:
    """Parse and validate a catalog file; returns name -> species.

    ``path=None`` uses $CROSSPEAK_CATALOG or the shipped catalog.
    """
    path = Path(path) if path is not None else default_catalog_path()
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise CatalogError(f"catalog {path} must be a non-empty JSON array")
    out: dict[str, SpinSpecies] = {}
    for i, entry in enumerate(raw):
        species = _parse_entry(entry, i)
        if species.name in out:
            raise CatalogError(f"duplicate species name {species.name!r}")
        out[species.name] = species
    return out

