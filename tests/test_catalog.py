"""Catalog loading and validation."""

import json

import numpy as np
import pytest

from crosspeak.catalog import CatalogError, load_catalog


def test_shipped_catalog_contents(catalog):
    assert set(catalog) == {"NV", "NV-2872", "VH-", "WAR1", "P1", "NV-13C"}
    assert catalog["NV"].D == 2870.0
    assert catalog["VH-"].D == 2694.0
    assert catalog["WAR1"].D == 2470.0
    assert catalog["NV-2872"].D == 2872.0
    p1 = catalog["P1"]
    assert p1.S == 0.5 and p1.D == 0.0
    assert p1.nuclear is not None and p1.nuclear.I == 1.0
    assert p1.nuclear.quadrupole_P == -3.97
    a13 = catalog["NV-13C"].nuclear.A
    assert np.allclose(a13, [[190.2, 0, -25.0], [0, 120.3, 0], [-25.0, 0, 129.1]])


def test_orientation_kinds(catalog):
    # every shipped defect is <111>-oriented, four classes each
    for species in catalog.values():
        assert species.orientation_kind == "111"
        assert len(species.orientations()) == 4


def test_env_override(tmp_path, monkeypatch):
    entry = [{"name": "TOY", "S": 1.0, "D_MHz": 1000.0, "orientation": "lab"}]
    f = tmp_path / "cat.json"
    f.write_text(json.dumps(entry))
    monkeypatch.setenv("CROSSPEAK_CATALOG", str(f))
    cat = load_catalog()
    assert set(cat) == {"TOY"}
    assert cat["TOY"].D == 1000.0


def _write(tmp_path, payload):
    f = tmp_path / "cat.json"
    f.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return f


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("{not json", "not valid JSON"),
        ({}, "non-empty JSON array"),
        ([], "non-empty JSON array"),
        ([7], "must be an object"),
        ([{"name": "A", "S": 1.0, "orientation": "lab"}], "missing required field 'D_MHz'"),
        ([{"name": "A", "S": 1.0, "D_MHz": 1.0, "orientation": "110"}], "orientation"),
        ([{"name": "A", "S": 1.0, "D_MHz": 1.0, "orientation": "lab", "spam": 1}], "unknown fields"),
        ([{"name": "", "S": 1.0, "D_MHz": 1.0, "orientation": "lab"}], "non-empty string"),
        ([{"name": "A", "S": True, "D_MHz": 1.0, "orientation": "lab"}], "must be a number"),
        ([{"name": "A", "S": 1.0, "D_MHz": "big", "orientation": "lab"}], "must be a number"),
        ([{"name": "A", "S": 1.25, "D_MHz": 1.0, "orientation": "lab"}], "spin"),
        (
            [
                {"name": "A", "S": 1.0, "D_MHz": 1.0, "orientation": "lab"},
                {"name": "A", "S": 1.0, "D_MHz": 2.0, "orientation": "lab"},
            ],
            "duplicate",
        ),
        (
            [{"name": "A", "S": 0.5, "D_MHz": 0.0, "orientation": "lab",
              "nuclear": {"I": 1.0, "gamma_n_MHz_per_G": 1e-4, "A_MHz": [1, 2, 3]}}],
            "9 numbers",
        ),
        (
            [{"name": "A", "S": 0.5, "D_MHz": 0.0, "orientation": "lab",
              "nuclear": {"I": 1.0, "gamma_n_MHz_per_G": 1e-4,
                          "A_MHz": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}}],
            "symmetric",
        ),
        (
            [{"name": "A", "S": 0.5, "D_MHz": 0.0, "orientation": "lab",
              "nuclear": {"I": 0.5, "gamma_n_MHz_per_G": 1e-4,
                          "A_MHz": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          "quadrupole_P_MHz": -3.97}}],
            "quadrupole",
        ),
        # json reads NaN and Infinity as numbers; the catalog must not
        ('[{"name": "A", "S": 1.0, "D_MHz": NaN, "orientation": "lab"}]',
         "'D_MHz' must be finite"),
        ('[{"name": "A", "S": 1.0, "D_MHz": 1.0, "E_MHz": -Infinity, "orientation": "lab"}]',
         "'E_MHz' must be finite"),
        ('[{"name": "A", "S": 1.0, "D_MHz": 1e400, "orientation": "lab"}]',
         "'D_MHz' must be finite"),
        ([{"name": "A", "S": 1.0, "D_MHz": 10**400, "orientation": "lab"}],
         "'D_MHz' must be finite"),
        ([{"name": "A", "S": 1.0, "D_MHz": 1.0, "gamma_e_MHz_per_G": 0, "orientation": "lab"}],
         "'gamma_e_MHz_per_G' must be > 0"),
        ([{"name": "A", "S": 1.0, "D_MHz": 1.0, "gamma_e_MHz_per_G": -2.8,
           "orientation": "lab"}],
         "'gamma_e_MHz_per_G' must be > 0"),
        (
            '[{"name": "A", "S": 0.5, "D_MHz": 0.0, "orientation": "lab", "nuclear": '
            '{"I": 1.0, "gamma_n_MHz_per_G": 1e-4, "A_MHz": [1, 0, 0, 0, NaN, 0, 0, 0, 1]}}]',
            "'A_MHz' must hold finite numbers",
        ),
        (
            '[{"name": "A", "S": 0.5, "D_MHz": 0.0, "orientation": "lab", "nuclear": '
            '{"I": 1.0, "gamma_n_MHz_per_G": 1e-4, "A_MHz": [1, 0, 0, 0, 1, 0, 0, 0, 1], '
            '"quadrupole_P_MHz": Infinity}}]',
            "'quadrupole_P_MHz' must be finite",
        ),
        (
            [{"name": "A", "S": 0.5, "D_MHz": 0.0, "orientation": "lab",
              "nuclear": {"I": 1.0, "gamma_n_MHz_per_G": 1e-4,
                          "A_MHz": [1, 0, 0, 0, 10**400, 0, 0, 0, 1]}}],
            "'A_MHz' must hold finite numbers",
        ),
        (
            [{"name": "A", "S": 0.5, "D_MHz": 0.0, "orientation": "lab",
              "nuclear": {"I": 1.0, "gamma_n_MHz_per_G": 1e-4,
                          "A_MHz": [[1, 0, 0], [0, 1], [0, 0, 1]]}}],
            "'A_MHz' must hold finite numbers",
        ),
    ],
)
def test_malformed_catalog_rejected(tmp_path, payload, fragment):
    with pytest.raises(CatalogError, match=fragment):
        load_catalog(_write(tmp_path, payload))


def test_missing_file():
    with pytest.raises(CatalogError, match="cannot read"):
        load_catalog("/no/such/file.json")


def test_defaults_applied(tmp_path):
    cat = load_catalog(
        _write(tmp_path, [{"name": "A", "S": 1.0, "D_MHz": 10.0, "orientation": "lab"}])
    )
    a = cat["A"]
    assert a.E == 0.0
    assert a.gamma_e == pytest.approx(2.8025)
    assert a.nuclear is None
