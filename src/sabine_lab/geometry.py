"""Convex planar boundary curves in arclength parametrization.

Supported kinds: circle, ellipse (a >= b > 0) and the Bunimovich stadium
(two straights of half-length l joined by semicircular caps of radius rho).
Circle and ellipse are smooth and strictly convex; the stadium is the C^{1,1}
case with curvature jumps at the four cap junctions.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator

from .errors import TangentLaunchError, UnsupportedCurveKindError

# relative to max(1, perimeter): the shortest travel a ray exit accepts (so a
# boundary launch does not re-hit its own origin) and the arclength window
# at the end of a stadium straight that carries the cap curvature
_GEOMETRIC_TOL = 1e-12
_ELLIPSE_SPLINE_INTERVALS = 4096


class CurveKind(enum.Enum):
    CIRCLE = "circle"
    ELLIPSE = "ellipse"
    STADIUM = "stadium"


@dataclass(frozen=True)
class SurfacePoint:
    """Boundary point with its differential data at arclength s."""

    s: float
    position: np.ndarray
    unit_tangent: np.ndarray
    outward_normal: np.ndarray
    curvature: float

    @classmethod
    def from_data(cls, data: dict, i: int) -> "SurfacePoint":
        """Entry i of a point_many-style dict of point arrays."""
        return cls(
            s=float(data["s"][i]),
            position=data["position"][i],
            unit_tangent=data["tangent"][i],
            outward_normal=data["normal"][i],
            curvature=float(data["curvature"][i]),
        )


class RayHit(NamedTuple):
    point: SurfacePoint
    travel: float


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
            if r <= 0:
                raise ValueError("circle radius must be positive")
            self.total_length = 2.0 * math.pi * r
        elif kind is CurveKind.ELLIPSE:
            a, b = float(params["a"]), float(params["b"])
            if not (a >= b > 0):
                raise ValueError("ellipse requires a >= b > 0")
            # s(t) = b E(t | m) with the parameter m = 1 - a^2/b^2 <= 0 is one
            # integral from t = 0, so s(0) = 0 and s(2pi) = total_length
            # exactly, and it holds for every real t (s(t + 2pi) = s(t) +
            # total_length).  The form a (E(t - pi/2 | 1 - b^2/a^2) + E(1 -
            # b^2/a^2)) subtracts two equal terms at t = 0 and cancels there:
            # it gives angle_of_arclength(0) = -4.4e-16 on the 2:1 ellipse.
            self._m = 1.0 - (a / b) ** 2
            self.total_length = 4.0 * b * float(special.ellipe(self._m))
            t = np.linspace(0.0, 2.0 * math.pi, _ELLIPSE_SPLINE_INTERVALS + 1)
            self._t_of_s_interp = PchipInterpolator(self._s_of_t(t), t)
        elif kind is CurveKind.STADIUM:
            l, rho = float(params["half_length"]), float(params["cap_radius"])
            if l <= 0 or rho <= 0:
                raise ValueError("stadium requires positive half-length and cap radius")
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
        """Parse a CLI curve string: "circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1"."""
        try:
            kind, _, rest = spec.partition(":")
            fields = {}
            for item in rest.split(","):
                key, _, val = item.partition("=")
                fields[key.strip()] = float(val)
            if kind == "circle":
                return cls.circle(fields["r"])
            if kind == "ellipse":
                return cls.ellipse(fields["a"], fields["b"])
            if kind == "stadium":
                return cls.stadium(fields["l"], fields["r"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"unparseable curve spec {spec!r}: {exc}") from None
        raise ValueError(f"unknown curve kind in spec {spec!r} "
                         "(expected circle:, ellipse: or stadium:)")

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

    def point_at(self, s: float) -> SurfacePoint:
        """Boundary point at arclength s (wrapped modulo total_length)."""
        return SurfacePoint.from_data(self.point_many(np.array([float(s)])), 0)

    def point_many(self, s) -> dict:
        """Vectorized point data for an array of arclengths."""
        s = _wrap(np.asarray(s, dtype=float), self.total_length)
        return self._point_data(s, self._u_of_s(s))

    def _point_data(self, s, u):
        """point_many data of the points with arclength s and native parameter u."""
        x, y, tx, ty = self._frame(u)
        if self.kind is CurveKind.CIRCLE:
            kap = np.full_like(s, 1.0 / self.params["radius"])
        elif self.kind is CurveKind.ELLIPSE:
            kap = self.params["a"] * self.params["b"] / self._speed(u) ** 3
        else:
            # a straight's end within eps of a junction carries the one-sided
            # cap curvature
            eps = _GEOMETRIC_TOL * max(1.0, self.total_length)
            inside = np.abs(self._stadium_normal(u)[1]) < self.params["half_length"] - eps
            kap = np.where(inside, 0.0, 1.0 / self.params["cap_radius"])
        return {"s": s, "position": np.stack([x, y], axis=-1),
                "tangent": np.stack([tx, ty], axis=-1),
                "normal": np.stack([ty, -tx], axis=-1), "curvature": kap}

    # -- angle <-> arclength -------------------------------------------------

    def arclength_of_angle(self, t: float) -> float:
        """Arclength of the parameter angle t (circle/ellipse only).

        Monotone bijection [0, 2pi) -> [0, total_length), extended to all of
        R by s(t + 2pi) = s(t) + total_length, so a full turn maps to the
        full perimeter.
        """
        if self.kind is CurveKind.STADIUM:
            raise UnsupportedCurveKindError(
                "arclength_of_angle is undefined for the stadium; it is natively "
                "arclength-parametrized"
            )
        if self.kind is CurveKind.CIRCLE:
            return self.params["radius"] * float(t)
        return float(self._s_of_t(float(t)))

    def angle_of_arclength(self, s: float) -> float:
        """Inverse of arclength_of_angle, in [0, 2pi)."""
        if self.kind is CurveKind.STADIUM:
            raise UnsupportedCurveKindError("angle parametrization undefined for the stadium")
        return float(self._u_of_s(float(s)))

    # -- global metrics ------------------------------------------------------

    def diameter(self):
        """Largest boundary-pair distance and the realizing pairs.

        Returns (d, pairs); pairs lists one representative per symmetry orbit
        (the circle's antipodal continuum is represented by a single pair).
        """
        if self.kind is CurveKind.CIRCLE:
            r = self.params["radius"]
            pairs = [(self.point_at(0.0), self.point_at(0.5 * self.total_length))]
            return 2.0 * r, pairs
        if self.kind is CurveKind.ELLIPSE:
            a = self.params["a"]
            s_half = float(self._s_of_t(math.pi))
            return 2.0 * a, [(self.point_at(0.0), self.point_at(s_half))]
        l = self.params["half_length"]
        rho = self.params["cap_radius"]
        s_right = 0.5 * math.pi * rho                  # (l + rho, 0)
        s_left = 1.5 * math.pi * rho + 2.0 * l         # (-l - rho, 0)
        return 2.0 * (l + rho), [(self.point_at(s_right), self.point_at(s_left))]

    # -- ray tracing ---------------------------------------------------------

    def ray_exit(self, origin, direction) -> RayHit:
        """First boundary intersection of a ray at positive travel time.

        The origin may be interior or on the boundary; a boundary launch must
        point strictly inward (tangent launches are rejected).
        """
        o = np.asarray(origin, dtype=float).reshape(2)
        d = np.asarray(direction, dtype=float).reshape(2)
        nrm = math.hypot(d[0], d[1])
        if nrm == 0.0:
            raise TangentLaunchError("zero direction vector")
        d = d / nrm
        data, travel = self._ray_exit_many(o[None, :], d[None, :])
        return RayHit(SurfacePoint.from_data(data, 0), float(travel[0]))

    def _ray_exit_many(self, origins, directions):
        """Vectorized ray exits; origins (N,2), unit directions (N,2).

        Returns (data, travel): data is the point_many dict of the exit
        points and travel the distance to them.
        """
        o = np.asarray(origins, dtype=float)
        d = np.asarray(directions, dtype=float)
        u, travel = self._exit(o[:, 0], o[:, 1], d[:, 0], d[:, 1])
        return self._point_data(self._s_of_u(u), u), travel


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

