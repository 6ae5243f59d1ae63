"""Numerical laboratory for thin-barrier scattering resonances on convex planar domains."""

__version__ = "0.1.0"

from .billiards import (  # noqa: F401
    Model,
    OrbitSegment,
    PhasePoint,
    PotentialSpec,
    SabineReport,
    billiard_step,
    iterate,
    sabine_diameter_bound,
    sabine_gap,
)
from .disk_oracle import (  # noqa: F401
    ResonanceCandidate,
    mode_resonance,
    mode_sweep,
)
from .geometry import BoundaryCurve, CurveKind, SurfacePoint  # noqa: F401
from .resonance_search import SearchWindow, find_resonances, refine, scan  # noqa: F401
