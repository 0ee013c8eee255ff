import os
from pathlib import Path

import numpy as np
import pytest

import crosspeak
from crosspeak.catalog import load_catalog


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def nv(catalog):
    return catalog["NV"]


@pytest.fixture(scope="session")
def vh(catalog):
    return catalog["VH-"]


@pytest.fixture(scope="session")
def war1(catalog):
    return catalog["WAR1"]


@pytest.fixture(scope="session")
def p1(catalog):
    return catalog["P1"]


@pytest.fixture(scope="session")
def nv13c(catalog):
    return catalog["NV-13C"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child interpreter that imports this package from
    where the tests import it (an installed copy is not needed)."""
    src = str(Path(crosspeak.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, path] if path else [src]))
