"""Billiard dynamics on the coball bundle of a convex boundary.

Implements the billiard ball map, chord and log-reflectivity averages along
orbits, the plane-wave reflection coefficients of thin delta / delta-prime
barriers, and the decay-rate (resonance-free region) bounds obtained by
optimizing those averages over phase space.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    AllOrbitsEscapeError,
    DegenerateChordError,
    GlancingInputError,
    NoValidDiameterPairError,
    OrbitError,
)
from .geometry import BoundaryCurve

_GLANCING_MARGIN = 1e-10
_MIN_CHORD = 1e-10


class Model(enum.Enum):
    """Barrier model: surface delta or its normal-derivative counterpart."""

    DELTA = "delta"
    DELTA_PRIME = "delta_prime"


@dataclass(frozen=True)
class PhasePoint:
    """Point of the open unit coball bundle: arclength s, tangential momentum xi."""

    s: float
    xi: float

    def __post_init__(self):
        if not abs(self.xi) < 1.0:
            raise GlancingInputError(f"|xi| = {abs(self.xi)} is not < 1")


@dataclass(frozen=True)
class PotentialSpec:
    """Barrier strength model sigma_V(s) = h^(-+alpha) * V0 * v(s).

    The sign of the exponent depends on the model: the delta barrier scales
    like h^(-alpha), the delta-prime barrier like h^(+alpha).  The optional
    profile v >= 0 defaults to 1.
    """

    V0: float
    alpha: float
    profile: Optional[Callable] = None

    def __post_init__(self):
        if self.V0 <= 0:
            raise ValueError("V0 must be positive")

    @property
    def is_constant(self) -> bool:
        return self.profile is None

    def symbol(self, s, h: float, model: Model):
        """Effective symbol at boundary position(s) s and scale h."""
        if model is Model.DELTA:
            amp = h ** (-self.alpha) * self.V0
        else:
            amp = h ** (self.alpha) * self.V0
        if self.profile is None:
            return amp * np.ones_like(np.asarray(s, dtype=float)) if np.ndim(s) else amp
        return amp * np.asarray(self.profile(s), dtype=float)


@dataclass(frozen=True)
class OrbitSegment:
    """One chord of a billiard orbit."""

    start: PhasePoint
    end: PhasePoint
    chord_length: float


@dataclass(frozen=True)
class SabineReport:
    """Computed decay-rate bound with its minimizing phase point."""

    bound: float
    minimizer: PhasePoint
    model: Model
    h: float
    delta1: float
    n_average: int
    grid: tuple
    converged: bool
    capped: bool = False
    within_theory: bool = True
    notes: str = ""


# ---------------------------------------------------------------------------
# billiard map
# ---------------------------------------------------------------------------

def _step_arrays(curve: BoundaryCurve, s, xi):
    """Vectorized billiard step: arrays (s, xi) -> (s', xi', chord)."""
    s = np.asarray(s, dtype=float)
    xi = np.asarray(xi, dtype=float)
    data = curve.point_many(s)
    xi1 = np.sqrt(np.maximum(0.0, 1.0 - xi * xi))
    direction = xi[:, None] * data["tangent"] - xi1[:, None] * data["normal"]
    # renormalize: the eps-level length bias would otherwise accumulate
    # linearly in the tangential momentum over long orbits
    direction /= np.sqrt(np.sum(direction * direction, axis=1))[:, None]
    arrive, travel = curve._ray_exit_many(data["position"], direction)
    xi_next = np.sum(direction * arrive["tangent"], axis=1)
    return arrive["s"], xi_next, travel


def billiard_step(curve: BoundaryCurve, q: PhasePoint) -> OrbitSegment:
    """One application of the billiard ball map.

    Launches the unit ray with tangential component xi and inward normal
    component sqrt(1 - xi^2), takes the first boundary intersection and
    projects the direction onto the arrival tangent.
    """
    if abs(q.xi) >= 1.0 - _GLANCING_MARGIN:
        raise GlancingInputError(
            f"phase point with |xi| = {abs(q.xi)} is within {_GLANCING_MARGIN} of glancing"
        )
    s_next, xi_next, travel = _step_arrays(curve, [q.s], [q.xi])
    chord = float(travel[0])
    if chord < _MIN_CHORD:
        raise DegenerateChordError(f"chord length {chord:.3e} below {_MIN_CHORD}")
    end = PhasePoint(float(s_next[0]), float(xi_next[0]))
    return OrbitSegment(start=q, end=end, chord_length=chord)


def iterate(curve: BoundaryCurve, q: PhasePoint, n_steps: int) -> list[OrbitSegment]:
    """Chain n_steps billiard steps; failures carry the failing index."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    segments = []
    current = q
    for index in range(n_steps):
        try:
            seg = billiard_step(curve, current)
        except (GlancingInputError, DegenerateChordError) as exc:
            raise OrbitError(str(exc), index) from exc
        segments.append(seg)
        current = seg.end
    return segments


def chord_average(curve: BoundaryCurve, q: PhasePoint, n_steps: int) -> float:
    """Mean chord length over the first n_steps iterates (l_N)."""
    segs = iterate(curve, q, n_steps)
    return sum(s.chord_length for s in segs) / n_steps


# ---------------------------------------------------------------------------
# reflection coefficients
# ---------------------------------------------------------------------------

def reflect_delta(q: PhasePoint, h: float, pot: PotentialSpec) -> complex:
    """Plane-wave reflection coefficient of the delta barrier at q.

    R = h*sigma_V / (2i*xi1 - h*sigma_V) with xi1 = sqrt(1 - xi^2); the
    modulus is strictly below 1 whenever sigma_V > 0.
    """
    xi1 = math.sqrt(1.0 - q.xi * q.xi)
    sv = float(pot.symbol(q.s, h, Model.DELTA))
    return (h * sv) / (2j * xi1 - h * sv)


def reflect_delta_prime(q: PhasePoint, h: float, pot: PotentialSpec) -> complex:
    """Reflection coefficient of the delta-prime barrier at q.

    R = i*sigma_V*xi1 / (i*sigma_V*xi1 - 2h); vanishes at glancing instead
    of saturating, in contrast to the delta barrier.
    """
    xi1 = math.sqrt(1.0 - q.xi * q.xi)
    sv = float(pot.symbol(q.s, h, Model.DELTA_PRIME))
    return (1j * sv * xi1) / (1j * sv * xi1 - 2.0 * h)


def _log_reflectivity_sq(xi, sv, h: float, model: Model):
    """log |R|^2 elementwise; -inf where the symbol vanishes."""
    xi1sq = np.maximum(0.0, 1.0 - np.asarray(xi) ** 2)
    sv = np.asarray(sv, dtype=float)
    with np.errstate(divide="ignore"):
        if model is Model.DELTA:
            num = (h * sv) ** 2
            den = 4.0 * xi1sq + (h * sv) ** 2
        else:
            num = sv * sv * xi1sq
            den = sv * sv * xi1sq + 4.0 * h * h
        return np.where(num > 0.0, np.log(num / den), -np.inf)


def reflectivity_log_average(curve: BoundaryCurve, q: PhasePoint, n_steps: int,
                             h: float, pot: PotentialSpec, model: Model) -> float:
    """Logarithmic average reflectivity over n_steps iterates (r_N).

    (1/2N) sum_{n=1..N} log |R(beta^n q)|^2; returns -inf when the orbit
    meets the zero set of the profile.
    """
    segs = iterate(curve, q, n_steps)
    total = 0.0
    for seg in segs:
        sv = float(pot.symbol(seg.end.s, h, model))
        val = _log_reflectivity_sq(seg.end.xi, sv, h, model)
        if val == -np.inf:
            return -math.inf
        total += float(val)
    return total / (2.0 * n_steps)


# ---------------------------------------------------------------------------
# decay-rate bounds
# ---------------------------------------------------------------------------

def _grid_bound(curve, h, pot, model, delta1, n_average, n_s, n_xi, cap):
    """min over the phase grid, max over averaging depth, of -r_N / l_N."""
    s = np.linspace(0.0, curve.total_length, n_s, endpoint=False)
    # odd transversal count so the center xi = 0 is always sampled; the
    # minimizing orbit of a convex table is typically the diameter orbit there
    if n_xi % 2 == 0:
        n_xi += 1
    xi = np.linspace(-(1.0 - delta1), 1.0 - delta1, n_xi)
    S, XI = np.meshgrid(s, xi, indexing="ij")
    cur_s = S.ravel().copy()
    cur_xi = XI.ravel().copy()
    m = cur_s.size
    cum_chord = np.zeros(m)
    cum_logr = np.zeros(m)
    best_value = -np.inf
    best_idx = 0
    best_n = 1
    capped = False
    for depth in range(1, n_average + 1):
        cur_s, cur_xi, travel = _step_arrays(curve, cur_s, cur_xi)
        cum_chord += travel
        sv = pot.symbol(cur_s, h, model)
        cum_logr += _log_reflectivity_sq(cur_xi, sv, h, model)
        with np.errstate(invalid="ignore"):
            values = -cum_logr / (2.0 * cum_chord)
        finite = np.isfinite(values)
        if finite.any():
            idx = int(np.argmin(np.where(finite, values, np.inf)))
            depth_value = float(values[idx])
        else:
            # every orbit has escaped the profile support at this depth
            idx = 0
            depth_value = cap
            capped = True
        if depth_value > best_value:
            best_value = depth_value
            best_idx = idx
            best_n = depth
    minimizer = PhasePoint(float(S.ravel()[best_idx]), float(XI.ravel()[best_idx]))
    return best_value, minimizer, best_n, capped


def sabine_gap(curve: BoundaryCurve, h: float, pot: PotentialSpec, model: Model,
               delta1: float = 0.05, n_average: int = 8,
               grid: tuple = (64, 64), escape_cap_factor: float = 10.0) -> SabineReport:
    """Decay-rate bound sup_{N<=N1} inf_grid of -r_N/l_N, in -Im z/h units.

    The grid is uniform in (s, xi) over the coball bundle shrunk by the
    glancing margin delta1; the convergence flag compares against one grid
    doubling at the 1% level.  Orbits escaping the profile support are
    capped at escape_cap_factor * log(1/h).
    """
    if not (0.0 < delta1 < 1.0):
        raise ValueError("delta1 must lie in (0, 1)")
    n_s, n_xi = grid
    if n_s < 16 or n_xi < 16:
        raise ValueError("grid must be at least 16x16")
    if model is Model.DELTA and pot.alpha >= 2.0 / 3.0:
        warnings.warn(
            "delta-barrier strength exponent alpha >= 2/3 exceeds the regime "
            "where the hyperbolic-region bound is controlled; result is heuristic",
            stacklevel=2,
        )
    cap = escape_cap_factor * math.log(1.0 / h)
    bound, minimizer, best_n, capped = _grid_bound(
        curve, h, pot, model, delta1, n_average, n_s, n_xi, cap)
    bound2, _, _, capped2 = _grid_bound(
        curve, h, pot, model, delta1, n_average, 2 * n_s, 2 * n_xi, cap)
    if capped and capped2 and bound >= cap and bound2 >= cap:
        raise AllOrbitsEscapeError(
            "every grid orbit meets the zero set of the potential profile; "
            f"the decay-rate bound is +inf (reported cap {cap:.6g})"
        )
    converged = abs(bound2 - bound) <= 0.01 * max(abs(bound), 1e-300)
    notes = "" if curve.is_strictly_convex else (
        "stadium boundary is only C^{1,1}; the strictly-convex theory does not "
        "cover it and this bound is reported as outside-theorem"
    )
    return SabineReport(
        bound=bound, minimizer=minimizer, model=model, h=h, delta1=delta1,
        n_average=best_n, grid=(n_s, n_xi), converged=converged, capped=capped,
        within_theory=curve.is_strictly_convex, notes=notes,
    )


def sabine_diameter_bound(curve: BoundaryCurve, h: float, pot: PotentialSpec) -> float:
    """Closed-form logarithmic bound from the diameter pairs (delta model).

    (1/d) * [log(1/h) - (1/2) sup over diameter pairs of
    log(sigma_V(a) sigma_V(b) / 4)], in -Im z/h units.  Requires alpha < 1.
    """
    if pot.alpha >= 1.0:
        raise ValueError("diameter bound requires alpha < 1")
    d, pairs = curve.diameter()
    best = -math.inf
    for pa, pb in pairs:
        sa = float(pot.symbol(pa.s, h, Model.DELTA))
        sb = float(pot.symbol(pb.s, h, Model.DELTA))
        if sa > 0.0 and sb > 0.0:
            best = max(best, math.log(sa * sb / 4.0))
    if best == -math.inf:
        raise NoValidDiameterPairError(
            "potential profile vanishes on every diameter-realizing pair"
        )
    return (math.log(1.0 / h) - 0.5 * best) / d
