"""crosspeak: cross-relaxation resonance prediction and PL-scan analysis
for spin defects in diamond."""

from .catalog import load_catalog
from .spin import (
    MagneticField,
    ManifoldRule,
    NuclearSpin,
    Orientation,
    SpinSpecies,
    TrackingWarning,
    build_hamiltonian,
    eigensystem,
    spin_operators,
    track_levels,
)

__version__ = "0.1.0"

__all__ = [
    "MagneticField",
    "ManifoldRule",
    "NuclearSpin",
    "Orientation",
    "SpinSpecies",
    "TrackingWarning",
    "build_hamiltonian",
    "eigensystem",
    "load_catalog",
    "spin_operators",
    "track_levels",
    "__version__",
]
