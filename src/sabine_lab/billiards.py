"""Billiard dynamics on the coball bundle of a convex boundary.

Implements the billiard ball map and the decay-rate (resonance-free region)
bounds: the log-average of the plane-wave reflectivity of a thin delta /
delta-prime barrier over the mean chord length along orbits, optimized over
a phase-space grid and checked in the same pass on the finer grid that
contains it (``sabine_gap``), and the diameter-orbit closed form.

Phase points are reported in arclength s, but the map steps in each curve's
native parameter u (see geometry), so the ellipse's arclength map runs once
per orbit or grid and not at every step.  One orbit takes the step on Python
floats through math; the decay-rate grid takes the same formulas on numpy
arrays, one call for all its orbits.
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
from .geometry import BoundaryCurve, math_or_numpy

_GLANCING_MARGIN = 1e-10
_MIN_CHORD = 1e-10


def _check_h(h: float) -> None:
    """The semiclassical scale every entry point takes: h in (0, 1)."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must lie in (0, 1), got {h}")


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
        if not 0.0 < self.V0 < math.inf:
            raise ValueError(f"V0 must be finite and positive, got {self.V0}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

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

def _step(curve: BoundaryCurve, frame, xi):
    """One billiard step in the curve's native parameter u.

    Takes the boundary frame (x, y, tx, ty) of the start and its tangential
    momentum xi, as floats for one orbit or arrays for a grid of them, and
    returns (u', frame', xi', chord) at the next boundary hit.
    """
    x, y, tx, ty = frame
    xp = math_or_numpy(xi)
    xi1 = xp.sqrt(1.0 - xi * xi)
    # launch along xi * tangent - xi1 * normal, the outward normal being (ty, -tx)
    dx = xi * tx - xi1 * ty
    dy = xi * ty + xi1 * tx
    # renormalize: the eps-level length bias would otherwise accumulate
    # linearly in the tangential momentum over long orbits
    norm = xp.sqrt(dx * dx + dy * dy)
    dx, dy = dx / norm, dy / norm
    u, travel = curve._exit(x, y, dx, dy)
    arrive = curve._frame(u)
    return u, arrive, dx * arrive[2] + dy * arrive[3], travel


def _start_frame(curve: BoundaryCurve, q: PhasePoint):
    return curve._frame(float(curve._u_of_s(q.s)))


def _orbit_step(curve: BoundaryCurve, q: PhasePoint, frame):
    """billiard_step from q, whose boundary frame is given; also returns
    the arrival frame, so an orbit maps arclength to u only once."""
    if abs(q.xi) >= 1.0 - _GLANCING_MARGIN:
        raise GlancingInputError(
            f"phase point with |xi| = {abs(q.xi)} is within {_GLANCING_MARGIN} of glancing"
        )
    u, arrive, xi_next, chord = _step(curve, frame, q.xi)
    if chord < _MIN_CHORD:
        raise DegenerateChordError(f"chord length {chord:.3e} below {_MIN_CHORD}")
    end = PhasePoint(float(curve._s_of_u(u)), xi_next)
    return OrbitSegment(start=q, end=end, chord_length=chord), arrive


def billiard_step(curve: BoundaryCurve, q: PhasePoint) -> OrbitSegment:
    """One application of the billiard ball map.

    Launches the unit ray with tangential component xi and inward normal
    component sqrt(1 - xi^2), takes the first boundary intersection and
    projects the direction onto the arrival tangent.
    """
    return _orbit_step(curve, q, _start_frame(curve, q))[0]


def iterate(curve: BoundaryCurve, q: PhasePoint, n_steps: int) -> list[OrbitSegment]:
    """Chain n_steps billiard steps; failures carry the failing index.

    The orbit is carried in the curve's native parameter and reported in
    arclength.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    frame = _start_frame(curve, q)
    segments = []
    for index in range(n_steps):
        try:
            seg, frame = _orbit_step(curve, q, frame)
        except (GlancingInputError, DegenerateChordError) as exc:
            raise OrbitError(str(exc), index) from exc
        segments.append(seg)
        q = seg.end
    return segments


# ---------------------------------------------------------------------------
# reflection coefficients
# ---------------------------------------------------------------------------

def _log_reflectivity_sq(xi, sv, h: float, model: Model):
    """log |R|^2 of the plane-wave reflection coefficient, elementwise.

    With xi1 = sqrt(1 - xi^2) and the symbol sigma = sv, the delta barrier
    has R = h sigma / (2i xi1 - h sigma), which saturates at glancing, and
    the delta-prime barrier R = i sigma xi1 / (i sigma xi1 - 2h), which
    vanishes there.  |R| < 1 whenever sigma > 0; the value is -inf where
    the symbol vanishes.
    """
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


# ---------------------------------------------------------------------------
# decay-rate bounds
# ---------------------------------------------------------------------------

def _sup_inf(values, cap):
    """sup over depth of the inf over the grid of values (n_average, n_s, n_xi).

    A non-finite value is an orbit that escaped the profile support; a depth
    where every orbit escaped takes the cap.  Returns the bound, its depth
    index, the grid index of its minimizer and whether any depth escaped.
    """
    flat = values.reshape(len(values), -1)
    masked = np.where(np.isfinite(flat), flat, np.inf)
    idx = masked.argmin(axis=1)
    per_depth = masked[np.arange(len(flat)), idx]
    escaped = np.isinf(per_depth)
    per_depth = np.where(escaped, cap, per_depth)
    best = int(per_depth.argmax())
    return (float(per_depth[best]), best, np.unravel_index(idx[best], values.shape[1:]),
            bool(escaped.any()))


def sabine_gap(curve: BoundaryCurve, h: float, pot: PotentialSpec, model: Model,
               delta1: float = 0.05, n_average: int = 8,
               grid: tuple = (64, 64), escape_cap_factor: float = 10.0) -> SabineReport:
    """Decay-rate bound sup_{N<=N1} inf_grid of -r_N/l_N, in -Im z/h units.

    The grid is uniform in (s, xi) over the coball bundle shrunk by the
    glancing margin delta1.  The convergence flag compares, at the 1% level,
    with the check grid of half the spacing in s and xi (2 n_s by 2m - 1 for
    m sampled xi values); the sampled grid is its even-indexed points, so one
    pass steps both.  Orbits escaping the profile support are capped at
    escape_cap_factor * log(1/h).
    """
    _check_h(h)
    if not (0.0 < delta1 < 1.0):
        raise ValueError("delta1 must lie in (0, 1)")
    n_s, n_xi = grid
    if n_s < 16 or n_xi < 16:
        raise ValueError("grid must be at least 16x16")
    if n_average < 1:
        raise ValueError("n_average must be at least 1")
    if model is Model.DELTA and pot.alpha >= 2.0 / 3.0:
        warnings.warn(
            "delta-barrier strength exponent alpha >= 2/3 exceeds the regime "
            "where the hyperbolic-region bound is controlled; result is heuristic",
            stacklevel=2,
        )
    cap = escape_cap_factor * math.log(1.0 / h)
    # odd transversal counts so the center xi = 0 is always sampled; the
    # minimizing orbit of a convex table is typically the diameter orbit there
    m = n_xi | 1
    s = np.linspace(0.0, curve.total_length, 2 * n_s, endpoint=False)
    xi = np.linspace(-(1.0 - delta1), 1.0 - delta1, 2 * m - 1)
    # the start points, s-major: each boundary point is mapped and framed
    # once, then repeated over the xi values
    frame = tuple(np.repeat(c, xi.size) for c in curve._frame(curve._u_of_s(s)))
    cur_xi = np.tile(xi, s.size)
    cum_chord = np.zeros(cur_xi.size)
    cum_logr = np.zeros(cur_xi.size)
    values = np.empty((n_average, s.size, xi.size))
    for depth in range(n_average):
        u, frame, cur_xi, travel = _step(curve, frame, cur_xi)
        cum_chord += travel
        # only a non-constant profile needs the landing arclengths
        sv = pot.symbol(u if pot.is_constant else curve._s_of_u(u), h, model)
        cum_logr += _log_reflectivity_sq(cur_xi, sv, h, model)
        with np.errstate(invalid="ignore"):
            values[depth] = (-cum_logr / (2.0 * cum_chord)).reshape(s.size, xi.size)
    bound, depth, (i, j), capped = _sup_inf(values[:, ::2, ::2], cap)
    bound2, _, _, capped2 = _sup_inf(values, cap)
    # the grids nest, so a check grid that escaped to the cap has the
    # sampled grid escaped with it
    if capped2 and bound2 >= cap:
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
        bound=bound, minimizer=PhasePoint(float(s[2 * i]), float(xi[2 * j])), model=model,
        h=h, delta1=delta1, n_average=depth + 1, grid=(n_s, m), converged=converged,
        capped=capped, within_theory=curve.is_strictly_convex, notes=notes,
    )


def sabine_diameter_bound(curve: BoundaryCurve, h: float, pot: PotentialSpec) -> float:
    """Closed-form logarithmic bound from the diameter chords (delta model).

    (1/d) * [log(1/h) - (1/2) sup over diameter chords (a, b) of
    log(sigma_V(a) sigma_V(b) / 4)], in -Im z/h units.  Requires alpha < 1.
    On a round curve with a non-constant profile the sup runs over the
    sampled chord starts of ``BoundaryCurve.diameter``.
    """
    _check_h(h)
    if pot.alpha >= 1.0:
        raise ValueError("diameter bound requires alpha < 1")
    d, starts = curve.diameter()
    sa = pot.symbol(starts, h, Model.DELTA)
    sb = pot.symbol(starts + 0.5 * curve.total_length, h, Model.DELTA)
    products = (sa * sb)[(sa > 0.0) & (sb > 0.0)]
    if not products.size:
        raise NoValidDiameterPairError(
            "potential profile vanishes on every diameter-realizing pair"
        )
    # the sup of the logs is the log of the largest product
    return (math.log(1.0 / h) - 0.5 * math.log(float(products.max()) / 4.0)) / d
