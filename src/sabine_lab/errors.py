"""Exception hierarchy shared by all sabine_lab modules.

Every numerical failure raised by the library derives from SabineLabError so
the CLI can map them to a single exit code while keeping the message verbatim.
"""


class SabineLabError(Exception):
    """Base class for all errors raised by sabine_lab."""


class UnsupportedCurveKindError(SabineLabError):
    """Curve kind that BoundaryCurve does not implement."""


class TangentLaunchError(SabineLabError):
    """Ray launched with inward component below tolerance; no transversal exit."""


class GlancingInputError(SabineLabError):
    """Phase point too close to the glancing set |xi| = 1."""


class DegenerateChordError(SabineLabError):
    """Billiard step produced a chord shorter than the geometric tolerance."""


class OrbitError(SabineLabError):
    """Failure while iterating the billiard map; carries the failing index."""

    def __init__(self, message: str, step_index: int):
        super().__init__(f"{message} (at orbit step {step_index})")
        self.step_index = step_index


class AllOrbitsEscapeError(SabineLabError):
    """Every grid orbit left the support of the potential profile."""


class NoValidDiameterPairError(SabineLabError):
    """Potential profile vanishes on every diameter-realizing pair."""


class RegionError(SabineLabError):
    """Argument outside the validated special-function region."""


class ZeroArgumentError(SabineLabError):
    """Hankel function requested at z = 0 (logarithmic singularity)."""


class RecurrenceBudgetError(SabineLabError):
    """Requested order exceeds the order budget, or H_n leaves double range."""


class NewtonConditionError(SabineLabError):
    """The sampled contraction check a + L*eps < eps*b failed at a Newton root."""


class NewtonConvergenceError(SabineLabError):
    """Newton stalled, left its lattice cell, or reached a root that fails the gates."""


class WindowMissError(SabineLabError):
    """Mode anchor at glancing, or solved root outside the configured window."""


class NotAResonanceError(SabineLabError):
    """Local refinement converged but failed the residual/conditioning gates."""
