"""Convex planar boundary curves in arclength parametrization.

Supported kinds: circle, ellipse (a >= b > 0) and the Bunimovich stadium
(two straights of half-length l joined by semicircular caps of radius rho).
Circle and ellipse are smooth and strictly convex; the stadium is the C^{1,1}
case with curvature jumps at the four cap junctions.  A curve gives its
positions, its diameter chords and its ray exits, and no curvature.

The stadium is the rho-neighbourhood of the segment [-l, l] x {0}: its point
at arclength s is (c_x + rho cos phi, rho sin phi), where (c_x, 0) is the
nearest point of the segment and phi the outward normal angle.  phi turns
only on the caps and c_x moves only on the straights, so both are sums of
clipped linear functions of s, and a boundary point gives back c_x =
clip(x, -l, l) and phi = atan2(y, x - c_x).

The ellipse x = a cos t, y = b sin t has arclength s(t) = b E(t | 1 - a^2/b^2),
the incomplete elliptic integral of the second kind (DLMF 19.2.5); the inverse
t(s) is a monotone spline through s(t) at equispaced angles, polished by two
Newton steps.

Each curve also has a native parameter u in which its frame and its ray exit
are closed-form: the polar angle on the circle, the angle t on the ellipse and
the arclength itself on the stadium.  The billiard map steps in u, so an orbit
maps s -> u once at its start and u -> s only where an arclength is reported
or a profile is evaluated.  The native-parameter methods take a Python float
(one orbit, through math) or a numpy array (a grid of orbits) and write each
formula once for both.  All objects are immutable after construction, so
every method is safe for concurrent reads.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator

from .errors import TangentLaunchError, UnsupportedCurveKindError

# relative to max(1, perimeter): the shortest travel a ray exit accepts, so a
# boundary launch does not re-hit its own origin
_GEOMETRIC_TOL = 1e-12
_ELLIPSE_SPLINE_INTERVALS = 4096
# diameter-chord starts on [0, L/2) of a round curve; a multiple of 4 has L/4
_ROUND_DIAMETER_STARTS = 1024
# from_spec's keys of each kind, in the order its constructor takes them
_SPEC_KEYS = {"circle": ("r",), "ellipse": ("a", "b"), "stadium": ("l", "r")}


class CurveKind(enum.Enum):
    CIRCLE = "circle"
    ELLIPSE = "ellipse"
    STADIUM = "stadium"


class BoundaryCurve:
    """Closed convex curve with arclength parametrization.

    The tangent is the outward normal rotated by +90 degrees everywhere
    (counterclockwise traversal), so (tangent, outward_normal) keeps one
    fixed handedness along the curve.
    """

    def __init__(self, kind: CurveKind, params: dict):
        self.kind = kind
        self.params = dict(params)
        if kind is CurveKind.CIRCLE:
            r = float(params["radius"])
            if not 0.0 < r < math.inf:
                raise ValueError(f"circle radius must be finite and positive, got {r}")
            self.total_length = 2.0 * math.pi * r
        elif kind is CurveKind.ELLIPSE:
            a, b = float(params["a"]), float(params["b"])
            if not (math.inf > a >= b > 0):
                raise ValueError(f"ellipse requires finite a >= b > 0, got a={a}, b={b}")
            # s(t) = b E(t | m) with the parameter m = 1 - a^2/b^2 <= 0 is one
            # integral from t = 0, so s(0) = 0 and s(2pi) = total_length
            # exactly, and it holds for every real t (s(t + 2pi) = s(t) +
            # total_length).  The form a (E(t - pi/2 | 1 - b^2/a^2) + E(1 -
            # b^2/a^2)) subtracts two equal terms at t = 0 and cancels there:
            # it gives t(s = 0) = -4.4e-16 on the 2:1 ellipse.
            self._m = 1.0 - (a / b) ** 2
            self.total_length = 4.0 * b * float(special.ellipe(self._m))
            t = np.linspace(0.0, 2.0 * math.pi, _ELLIPSE_SPLINE_INTERVALS + 1)
            self._t_of_s_interp = PchipInterpolator(self._s_of_t(t), t)
        elif kind is CurveKind.STADIUM:
            l, rho = float(params["half_length"]), float(params["cap_radius"])
            if not (0.0 < l < math.inf and 0.0 < rho < math.inf):
                raise ValueError("stadium requires finite positive half-length and cap "
                                 f"radius, got l={l}, r={rho}")
            self.total_length = 4.0 * l + 2.0 * math.pi * rho
        else:  # pragma: no cover
            raise UnsupportedCurveKindError(f"unknown curve kind {kind}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def circle(cls, radius: float = 1.0) -> "BoundaryCurve":
        return cls(CurveKind.CIRCLE, {"radius": radius})

    @classmethod
    def ellipse(cls, a: float, b: float) -> "BoundaryCurve":
        return cls(CurveKind.ELLIPSE, {"a": a, "b": b})

    @classmethod
    def stadium(cls, half_length: float, cap_radius: float) -> "BoundaryCurve":
        return cls(CurveKind.STADIUM, {"half_length": half_length, "cap_radius": cap_radius})

    @classmethod
    def from_spec(cls, spec: str) -> "BoundaryCurve":
        """Parse a CLI curve string: "circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1".

        Each of the kind's keys must appear exactly once, and no other key.
        """
        kind, _, rest = spec.partition(":")
        keys = _SPEC_KEYS.get(kind)
        if keys is None:
            raise ValueError(f"unknown curve kind in spec {spec!r} "
                             "(expected circle:, ellipse: or stadium:)")
        fields = {}
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in keys or key in fields:
                raise ValueError(f"curve spec {spec!r} has an unknown or repeated key "
                                 f"{key!r} ({kind} takes {', '.join(keys)})")
            try:
                fields[key] = float(val)
            except ValueError:
                raise ValueError(f"curve spec {spec!r} gives {key} no number") from None
        if len(fields) < len(keys):
            raise ValueError(f"curve spec {spec!r} lacks a key ({kind} takes "
                             f"{', '.join(keys)})")
        return getattr(cls, kind)(*(fields[key] for key in keys))

    def describe(self) -> str:
        if self.kind is CurveKind.CIRCLE:
            return f"circle:r={self.params['radius']:g}"
        if self.kind is CurveKind.ELLIPSE:
            return f"ellipse:a={self.params['a']:g},b={self.params['b']:g}"
        return f"stadium:l={self.params['half_length']:g},r={self.params['cap_radius']:g}"

    @property
    def is_strictly_convex(self) -> bool:
        return self.kind is not CurveKind.STADIUM

    # -- ellipse parametrization -------------------------------------------

    def _speed(self, t):
        """Ellipse speed |d(a cos t, b sin t)/dt|."""
        return np.hypot(self.params["a"] * np.sin(t), self.params["b"] * np.cos(t))

    def _s_of_t(self, t):
        """Arclength of ellipse parameter t, for any real t (vectorized)."""
        return self.params["b"] * special.ellipeinc(t, self._m)

    def _t_of_s(self, s):
        """Ellipse parameter of arclength s: monotone spline + Newton polish."""
        s = _wrap(np.asarray(s, dtype=float), self.total_length)
        t = np.asarray(self._t_of_s_interp(s), dtype=float)
        for _ in range(2):
            t = t - (self._s_of_t(t) - s) / self._speed(t)
        return t

    # -- native parameter ----------------------------------------------------

    def _u_of_s(self, s):
        """Native parameter of arclength s (wrapped modulo total_length)."""
        if self.kind is CurveKind.ELLIPSE:
            return self._t_of_s(s)
        s = _wrap(s, self.total_length)
        return s / self.params["radius"] if self.kind is CurveKind.CIRCLE else s

    def _s_of_u(self, u):
        """Arclength in [0, total_length) of the native parameter u."""
        if self.kind is CurveKind.CIRCLE:
            return _wrap(self.params["radius"] * u, self.total_length)
        if self.kind is CurveKind.ELLIPSE:
            return _wrap(self._s_of_t(u), self.total_length)
        return u

    def _frame(self, u):
        """Position and unit tangent (x, y, tx, ty) at the native parameter u.

        The outward normal is (ty, -tx).
        """
        xp = math_or_numpy(u)
        if self.kind is CurveKind.CIRCLE:
            r = self.params["radius"]
            c, sn = xp.cos(u), xp.sin(u)
            return r * c, r * sn, -sn, c
        if self.kind is CurveKind.ELLIPSE:
            a, b = self.params["a"], self.params["b"]
            c, sn = xp.cos(u), xp.sin(u)
            sp = xp.hypot(a * sn, b * c)
            return a * c, b * sn, -a * sn / sp, b * c / sp
        l, rho = self.params["half_length"], self.params["cap_radius"]
        phi, cx = self._stadium_normal(u)
        # cos(pi/2) rounds to 6e-17, not 0: zero it inside the straights, so
        # that their tangents are exactly (-+1, 0)
        c, sn = xp.cos(phi) * (abs(cx) >= l), xp.sin(phi)
        return cx + rho * c, rho * sn, -sn, c

    def _stadium_normal(self, s):
        """Outward normal angle phi and nearest segment abscissa c_x of the
        stadium point at arclength s in [0, total_length].

        s = 0 is the junction (l, -rho); the right cap turns phi from -pi/2
        to pi/2, the top runs c_x from l to -l, the left cap turns phi on to
        3pi/2 and the bottom runs c_x back to l.
        """
        l, rho = self.params["half_length"], self.params["cap_radius"]
        cap = math.pi * rho
        phi = (_clip(s, 0.0, cap) + _clip(s - cap - 2.0 * l, 0.0, cap)) / rho - 0.5 * math.pi
        cx = l - _clip(s - cap, 0.0, 2.0 * l) + _clip(s - 2.0 * cap - 2.0 * l, 0.0, 2.0 * l)
        return phi, cx

    def _exit(self, x, y, dx, dy):
        """Native parameter of a ray's boundary exit, and the travel to it.

        The ray starts inside the curve or on it, pointing strictly inward,
        along the unit vector (dx, dy).
        """
        xp = math_or_numpy(x)
        if self.kind is CurveKind.STADIUM:
            travel = self._stadium_travel(x, y, dx, dy)
            u = self._stadium_s_of_point(x + travel * dx, y + travel * dy)
        else:
            # larger root of qa t^2 + 2 qb t + qc = 0, where the ray crosses
            # (x/a)^2 + (y/b)^2 = 1; the other root is <= 0.  On the circle
            # qa = 1 exactly, since the direction is a unit vector.
            if self.kind is CurveKind.CIRCLE:
                a = b = self.params["radius"]
                qa, qb, qc = 1.0, x * dx + y * dy, x * x + y * y - a * a
            else:
                a, b = self.params["a"], self.params["b"]
                ox, oy, ex, ey = x / a, y / b, dx / a, dy / b
                qa, qb, qc = ex * ex + ey * ey, ox * ex + oy * ey, ox * ox + oy * oy - 1.0
            disc = qb * qb - qa * qc
            # a tangent launch may round disc below 0; it then fails the
            # travel check below instead of the square root
            travel = (xp.sqrt(disc * (disc > 0)) - qb) / qa
            u = xp.atan2((y + travel * dy) / b, (x + travel * dx) / a) % (2.0 * math.pi)
        ok = travel > _GEOMETRIC_TOL * max(1.0, self.total_length)
        if not (ok if xp is math else ok.all()):
            raise TangentLaunchError(
                "ray has no transversal boundary exit (glancing or outward launch)"
            )
        return u, travel

    def _stadium_travel(self, x, y, dx, dy):
        """Exit travel of rays from inside the stadium.

        A ray leaves through the straight y = +-rho it heads for when it meets
        that line within |x| < l.  Otherwise it leaves through the cap on the
        side where it meets the line (a level ray meets it at x = +-inf, on
        the side dx points to), as the far root of that one cap disc.
        """
        l, rho = self.params["half_length"], self.params["cap_radius"]
        xp = math_or_numpy(x)
        rise = xp.copysign(rho, dy) - y
        # the ray meets the line at x + rise dx / dy; run is that times dy, so
        # a level ray needs no division and sign(run * dy) is its side
        run = x * dy + rise * dx
        straight = abs(run) < l * abs(dy)
        # far root of |o + t d|^2 = rho^2, o the start relative to the cap
        # centre; its discriminant is rho^2 - (o x d)^2 for a unit d, which
        # does not cancel when o is far from the centre
        ox = x - xp.copysign(l, run * dy)
        miss = ox * dy - y * dx
        disc = rho * rho - miss * miss
        through_cap = xp.sqrt(disc * (disc > 0)) - (ox * dx + y * dy)
        if xp is math:
            return rise / dy if straight else through_cap
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(straight, rise / dy, through_cap)

    def _stadium_s_of_point(self, x, y):
        """Arclength of the stadium boundary point (x, y); inverts
        _stadium_normal.

        The caps give rho (phi + pi/2); the straight run l - c_x adds on the
        top and is run backwards from s = 0 on the bottom.  Its sign comes
        from y, whose signed zero also picks atan2's branch at y = +-0.
        """
        l, rho = self.params["half_length"], self.params["cap_radius"]
        xp = math_or_numpy(x)
        cx = _clip(x, -l, l)
        s = rho * (xp.atan2(y, x - cx) + 0.5 * math.pi) + xp.copysign(l - cx, y)
        return _wrap(s, self.total_length)

    # -- pointwise data ------------------------------------------------------

    def point_many(self, s) -> np.ndarray:
        """Boundary positions, shape (n, 2), at an array of n arclengths
        (wrapped modulo total_length)."""
        x, y, _, _ = self._frame(self._u_of_s(np.asarray(s, dtype=float)))
        return np.stack([x, y], axis=-1)

    # -- global metrics ------------------------------------------------------

    def diameter(self):
        """Largest boundary-pair distance d and the arclengths s whose chord to
        s + L/2 has length d, as (d, starts).

        On a round curve (a circle, or an ellipse with a == b) every
        antipodal chord has length d, and
        starts samples [0, L/2) at _ROUND_DIAMETER_STARTS equispaced points.
        Otherwise the one start is 0 on the ellipse (its major axis) and
        pi rho / 2, the point (l + rho, 0), on the stadium.
        """
        if self.kind is CurveKind.STADIUM:
            l, rho = self.params["half_length"], self.params["cap_radius"]
            return 2.0 * (l + rho), np.array([0.5 * math.pi * rho])
        a, b = ((self.params["radius"],) * 2 if self.kind is CurveKind.CIRCLE
                else (self.params["a"], self.params["b"]))
        n = _ROUND_DIAMETER_STARTS if a == b else 1
        return 2.0 * a, 0.5 * self.total_length * np.arange(n) / n

    # -- ray tracing ---------------------------------------------------------

    # No library path calls this (the billiard map steps through _exit); it
    # stays because perfbench/tracing.py wraps it by name through the class
    # __dict__ to count rays, and fails to install without it.
    def _ray_exit_many(self, origins, directions):
        """Vectorized ray exits; origins (N,2), unit directions (N,2).

        Returns _exit's (u, travel): the native parameters of the exit points
        and the distances to them.
        """
        o = np.asarray(origins, dtype=float)
        d = np.asarray(directions, dtype=float)
        return self._exit(o[:, 0], o[:, 1], d[:, 0], d[:, 1])


def node_symmetries(frame):
    """The shift t and reflection c of the index of n equispaced arclength
    nodes, with frames (x, y, tx, ty), that the curve's symmetries realize.

    A shift k -> k + t (mod n) keeps the tangent; a reflection k -> c - k
    reverses it.  Each is read from the edges k -> k + 1: the length and the
    dot products with the tangents at both ends, which a reflection takes to
    the reversed edge with the products swapped.  t is the smallest divisor
    of n that holds (n when none does), c the first reflection below t, or
    None.  The invariants carry a few ulps of the coordinates, not of the
    edge, so they agree to 1e-13 of the largest node radius (the curves are
    centred at the origin); 1e-13 of an edge is below rounding at 1024 nodes.
    """
    x, y, tx, ty = frame
    n = x.size
    ex, ey = np.roll(x, -1) - x, np.roll(y, -1) - y
    edges = np.stack([np.hypot(ex, ey), ex * tx + ey * ty,
                      ex * np.roll(tx, -1) + ey * np.roll(ty, -1)])
    tol = 1e-13 * np.hypot(x, y).max()
    k = np.arange(n)
    # screen on the edge whose ends meet it most unequally: on a table with
    # arcs of one radius (the stadium's caps) most edges are congruent, but
    # the few that straddle a change of curvature are not
    screen = int(np.argmax(abs(edges[1] - edges[2])))

    def first_holding(image, index, candidates):
        # screen every candidate on one edge, then check the whole sequence
        candidates = np.asarray(candidates)
        screened = np.all(abs(image[:, index(screen, candidates)] - edges[:, screen, None])
                          <= tol, axis=0)
        return next((int(a) for a in candidates[screened]
                     if np.all(abs(image[:, index(k, a)] - edges) <= tol)), None)

    t = first_holding(edges, lambda i, d: (i + d) % n,
                      [d for d in range(1, n + 1) if n % d == 0])
    c = first_holding(edges[[0, 2, 1]], lambda i, r: (r - 1 - i) % n, range(t))
    return t, c


def math_or_numpy(x):
    """The module whose elementary functions suit x: numpy for an array,
    math for a float, which costs far less per call on one value."""
    return np if isinstance(x, np.ndarray) else math


def _wrap(s, period):
    """s reduced to [0, period), a float or elementwise: the first % rounds an
    s just below 0 up to period itself, and the second maps that to 0."""
    return s % period % period


def _clip(v, lo, hi):
    """v clipped to [lo, hi], a float or elementwise; saturates exactly."""
    if isinstance(v, np.ndarray):
        return np.clip(v, lo, hi)
    # a third of the cost of min(max(v, lo), hi) on a float
    return lo if v < lo else hi if v > hi else v

