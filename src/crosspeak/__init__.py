"""crosspeak: cross-relaxation resonance prediction and PL-scan analysis
for spin defects in diamond."""

from .catalog import load_catalog
from .spin import (
    ManifoldRule,
    NuclearSpin,
    Orientation,
    SpinSpecies,
    TrackingWarning,
    spin_operators,
    track_levels,
)

__version__ = "0.1.0"

__all__ = [
    "ManifoldRule",
    "NuclearSpin",
    "Orientation",
    "SpinSpecies",
    "TrackingWarning",
    "load_catalog",
    "spin_operators",
    "track_levels",
    "__version__",
]
