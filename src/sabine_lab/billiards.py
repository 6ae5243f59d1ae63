"""Billiard dynamics on the coball bundle of a convex boundary.

Implements the billiard ball map and the decay-rate (resonance-free region)
bounds: the log-average of the plane-wave reflectivity of a thin delta /
delta-prime barrier over the mean chord length along orbits, optimized over
a phase-space grid and checked in the same pass on the finer grid that
contains it (``sabine_gap``), and the diameter-orbit closed form.  With a
constant barrier the grid steps one orbit per class of grid points that the
table's symmetries map onto each other (``geometry.node_symmetries``).

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
    TangentLaunchError,
)
from .geometry import BoundaryCurve, _wrap, math_or_numpy, node_symmetries

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
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
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
    """Computed decay-rate bound with its minimizing phase point, and the
    number of orbits stepped at each depth."""

    bound: float
    minimizer: PhasePoint
    model: Model
    h: float
    delta1: float
    n_average: int
    grid: tuple
    orbits: int
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


def _start(curve: BoundaryCurve, q: PhasePoint):
    """q with its arclength wrapped to [0, L), and its boundary frame."""
    q = PhasePoint(_wrap(q.s, curve.total_length), q.xi)
    return q, curve._frame(float(curve._u_of_s(q.s)))


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
    return _orbit_step(curve, *_start(curve, q))[0]


def iterate(curve: BoundaryCurve, q: PhasePoint, n_steps: int) -> list[OrbitSegment]:
    """Chain n_steps billiard steps; failures carry the failing index.

    The orbit is carried in the curve's native parameter and reported in
    arclength, the start included, in [0, L).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    q, frame = _start(curve, q)
    segments = []
    for index in range(n_steps):
        try:
            seg, frame = _orbit_step(curve, q, frame)
        except (GlancingInputError, DegenerateChordError, TangentLaunchError) as exc:
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
    """sup over depth of the inf over the grid of values (n_average, ...).

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


def _grid_classes(n: int, m: int, t: int, c):
    """Classes of the s-major n x m grid of (s, xi) start points under the
    shift t and reflection c of ``node_symmetries``; the xi values are
    symmetric, so negating xi maps index j to m - 1 - j.

    Returns the flat indices of the representatives, each its class's
    smallest, and the (n, m) class of every point as an index into them.
    """
    k, j = np.arange(n)[:, None], np.arange(m)
    # the smallest flat index over the shifts of (k, j), then of its mirror
    first = k % t * m + j
    if c is not None:
        first = np.minimum(first, (c - k) % t * m + (m - 1 - j))
    is_rep = first.ravel() == np.arange(n * m)
    return np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[first]


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

    With a constant profile an orbit's value depends only on the table's
    geometry, so the grid points that a symmetry of the table maps onto each
    other (``node_symmetries`` of the start frames: a shift of the start
    index, which keeps xi, and a reflection, which negates it) share one
    stepped orbit, the class's first grid point, and argmin's first-index
    rule still picks among equal values as on the full grid.  On the default
    grid that is 65 orbits on the circle, 4,129 on a 2:1 ellipse and 8,256
    on the stadium instead of 16,512 (65 on the circle at 512:64); where
    images differ, the minimizer can be reported at an image, such as the
    stadium's s - L/2.  A non-constant profile is known only where it is
    evaluated, and the landings fall between the grid nodes, so it keeps one
    class per grid point.
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
    # each boundary point is mapped and framed once; one orbit is stepped
    # per class of the s-major grid, from its representative's s and xi
    start = curve._frame(curve._u_of_s(s))
    t, c = node_symmetries(start) if pot.is_constant else (s.size, None)
    reps, classes = _grid_classes(s.size, xi.size, t, c)
    s_index, xi_index = np.divmod(reps, xi.size)
    frame = tuple(a[s_index] for a in start)
    cur_xi = xi[xi_index]
    cum_chord = np.zeros(reps.size)
    cum_logr = np.zeros(reps.size)
    values = np.empty((n_average, reps.size))
    for depth in range(n_average):
        u, frame, cur_xi, travel = _step(curve, frame, cur_xi)
        cum_chord += travel
        # only a non-constant profile needs the landing arclengths
        sv = pot.symbol(u if pot.is_constant else curve._s_of_u(u), h, model)
        cum_logr += _log_reflectivity_sq(cur_xi, sv, h, model)
        with np.errstate(invalid="ignore"):
            values[depth] = -cum_logr / (2.0 * cum_chord)
    # the sampled grid is the even-indexed view of the check grid; the check
    # grid's inf is its representatives' inf
    bound, depth, (i, j), capped = _sup_inf(values[:, classes[::2, ::2]], cap)
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
        h=h, delta1=delta1, n_average=depth + 1, grid=(n_s, m), orbits=reps.size,
        converged=converged, capped=capped, within_theory=curve.is_strictly_convex,
        notes=notes,
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
