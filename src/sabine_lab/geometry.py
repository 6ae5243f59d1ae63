"""Convex planar boundary curves in arclength parametrization.

Supported kinds: circle, ellipse (a >= b > 0) and the Bunimovich stadium
(two straights of half-length l joined by semicircular caps of radius rho).
Circle and ellipse are smooth and strictly convex; the stadium is the C^{1,1}
case with curvature jumps at the four cap junctions.

The ellipse x = a cos t, y = b sin t has arclength s(t) = b E(t | 1 - a^2/b^2),
the incomplete elliptic integral of the second kind (DLMF 19.2.5); the inverse
t(s) is a monotone spline through s(t) at equispaced angles, polished by two
Newton steps.  All objects are immutable after construction, so every method
is safe for concurrent reads.
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
# around a stadium junction that carries the cap curvature
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
        s = np.mod(np.asarray(s, dtype=float), self.total_length)
        t = np.asarray(self._t_of_s_interp(s), dtype=float)
        for _ in range(2):
            t = t - (self._s_of_t(t) - s) / self._speed(t)
        return t

    # -- pointwise data ------------------------------------------------------

    def point_at(self, s: float) -> SurfacePoint:
        """Boundary point at arclength s (wrapped modulo total_length)."""
        return SurfacePoint.from_data(self.point_many(np.array([float(s)])), 0)

    def point_many(self, s) -> dict:
        """Vectorized point data for an array of arclengths."""
        s = np.mod(np.asarray(s, dtype=float), self.total_length)
        if self.kind is CurveKind.ELLIPSE:
            return self._ellipse_arrays(s, self._t_of_s(s))
        if self.kind is CurveKind.CIRCLE:
            r = self.params["radius"]
            t = s / r
            ct, st = np.cos(t), np.sin(t)
            pos = np.stack([r * ct, r * st], axis=-1)
            nor = np.stack([ct, st], axis=-1)
            tan = np.stack([-st, ct], axis=-1)
            kap = np.full_like(s, 1.0 / r)
        else:
            pos, tan, nor, kap = self._stadium_point_arrays(s)
        return {"s": s, "position": pos, "tangent": tan, "normal": nor, "curvature": kap}

    def _ellipse_arrays(self, s, t):
        """point_many data of the ellipse points with arclength s and angle t."""
        a, b = self.params["a"], self.params["b"]
        ct, st = np.cos(t), np.sin(t)
        sp = self._speed(t)
        pos = np.stack([a * ct, b * st], axis=-1)
        tan = np.stack([-a * st / sp, b * ct / sp], axis=-1)
        nor = np.stack([b * ct / sp, a * st / sp], axis=-1)
        return {"s": s, "position": pos, "tangent": tan, "normal": nor, "curvature": a * b / sp**3}

    def _stadium_point_arrays(self, s):
        l = self.params["half_length"]
        rho = self.params["cap_radius"]
        L_cap = math.pi * rho
        b0, b1, b2, b3 = 0.0, L_cap, L_cap + 2 * l, 2 * L_cap + 2 * l
        pos = np.empty(s.shape + (2,))
        tan = np.empty_like(pos)
        nor = np.empty_like(pos)
        kap = np.zeros_like(s)

        m = s < b1                                    # right cap
        phi = -0.5 * math.pi + s[m] / rho
        pos[m] = np.stack([l + rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
        nor[m] = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        tan[m] = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        kap[m] = 1.0 / rho

        m = (s >= b1) & (s < b2)                      # top straight
        x = l - (s[m] - b1)
        pos[m] = np.stack([x, np.full_like(x, rho)], axis=-1)
        tan[m] = np.tile([-1.0, 0.0], (x.size, 1))
        nor[m] = np.tile([0.0, 1.0], (x.size, 1))

        m = (s >= b2) & (s < b3)                      # left cap
        phi = 0.5 * math.pi + (s[m] - b2) / rho
        pos[m] = np.stack([-l + rho * np.cos(phi), rho * np.sin(phi)], axis=-1)
        nor[m] = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        tan[m] = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        kap[m] = 1.0 / rho

        m = s >= b3                                   # bottom straight
        x = -l + (s[m] - b3)
        pos[m] = np.stack([x, np.full_like(x, -rho)], axis=-1)
        tan[m] = np.tile([1.0, 0.0], (x.size, 1))
        nor[m] = np.tile([0.0, -1.0], (x.size, 1))

        # junction parameters carry the one-sided cap curvature
        eps = _GEOMETRIC_TOL * max(1.0, self.total_length)
        for junction in (0.0, b1, b2, b3, self.total_length):
            kap[np.abs(s - junction) < eps] = 1.0 / rho
        return pos, tan, nor, kap

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
                "arclength-parametrized piecewise"
            )
        if self.kind is CurveKind.CIRCLE:
            return self.params["radius"] * float(t)
        return float(self._s_of_t(float(t)))

    def angle_of_arclength(self, s: float) -> float:
        """Inverse of arclength_of_angle."""
        if self.kind is CurveKind.CIRCLE:
            return float(np.mod(s, self.total_length)) / self.params["radius"]
        if self.kind is CurveKind.ELLIPSE:
            return float(self._t_of_s(float(s)))
        raise UnsupportedCurveKindError("angle parametrization undefined for the stadium")

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
        points and travel the distance to them.  The ellipse builds data from
        the hit angle, so no arclength is inverted.
        """
        o = np.asarray(origins, dtype=float)
        d = np.asarray(directions, dtype=float)
        tmin = _GEOMETRIC_TOL * max(1.0, self.total_length)
        if self.kind is CurveKind.CIRCLE:
            r = self.params["radius"]
            b = np.sum(o * d, axis=1)
            c = np.sum(o * o, axis=1) - r * r
            travel = self._positive_quadratic_root(np.ones_like(b), b, c, tmin)
            hit = o + travel[:, None] * d
            s = np.mod(np.arctan2(hit[:, 1], hit[:, 0]), 2 * math.pi) * r
            return self.point_many(s), travel
        if self.kind is CurveKind.ELLIPSE:
            a, bb = self.params["a"], self.params["b"]
            os_ = o / np.array([a, bb])
            ds_ = d / np.array([a, bb])
            qa = np.sum(ds_ * ds_, axis=1)
            qb = np.sum(os_ * ds_, axis=1)
            qc = np.sum(os_ * os_, axis=1) - 1.0
            travel = self._positive_quadratic_root(qa, qb, qc, tmin)
            hit = o + travel[:, None] * d
            t = np.mod(np.arctan2(hit[:, 1] / bb, hit[:, 0] / a), 2 * math.pi)
            return self._ellipse_arrays(np.mod(self._s_of_t(t), self.total_length), t), travel
        s, travel = self._stadium_ray_exit(o, d)
        return self.point_many(s), travel

    @staticmethod
    def _positive_quadratic_root(qa, qb, qc, tmin):
        """Smallest root > tmin of qa t^2 + 2 qb t + qc = 0 (stable form)."""
        disc = qb * qb - qa * qc
        bad = disc < 0
        sq = np.sqrt(np.where(bad, 0.0, disc))
        # roots via the numerically stable pairing
        qmag = -(qb + np.sign(qb + (qb == 0)) * sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = qmag / qa
            r2 = np.where(qmag != 0, qc / qmag, np.inf)
        lo = np.minimum(r1, r2)
        hi = np.maximum(r1, r2)
        travel = np.where(lo > tmin, lo, hi)
        if np.any(bad) or np.any(travel <= tmin) or not np.all(np.isfinite(travel)):
            raise TangentLaunchError(
                "ray has no transversal boundary exit (glancing or outward launch)"
            )
        return travel

    def _stadium_ray_exit(self, o, d):
        l = self.params["half_length"]
        rho = self.params["cap_radius"]
        eps = _GEOMETRIC_TOL * max(1.0, self.total_length)
        n = o.shape[0]
        best_t = np.full(n, np.inf)
        best_s = np.zeros(n)

        # straights y = +rho (top) and y = -rho (bottom), |x| <= l
        for ysign, s_of_x in (
            (1.0, lambda x: math.pi * rho + (l - x)),
            (-1.0, lambda x: 2 * math.pi * rho + 2 * l + (x + l)),
        ):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (ysign * rho - o[:, 1]) / d[:, 1]
                x = o[:, 0] + t * d[:, 0]
            ok = np.isfinite(t) & (t > eps) & (np.abs(x) <= l + eps) & (t < best_t)
            best_t = np.where(ok, t, best_t)
            best_s = np.where(ok, s_of_x(np.clip(x, -l, l)), best_s)

        # caps centered (+-l, 0); keep hits on the outer half
        for cx, which in ((l, "right"), (-l, "left")):
            oc = o - np.array([cx, 0.0])
            qb = np.sum(oc * d, axis=1)
            qc = np.sum(oc * oc, axis=1) - rho * rho
            disc = qb * qb - qc
            sq = np.sqrt(np.maximum(disc, 0.0))
            for root in (-qb - sq, -qb + sq):
                t = np.where(disc >= 0, root, np.inf)
                with np.errstate(invalid="ignore"):
                    hx = o[:, 0] + t * d[:, 0]
                    hy = o[:, 1] + t * d[:, 1]
                    on_half = hx >= cx - eps if which == "right" else hx <= cx + eps
                ok = (t > eps) & on_half & np.isfinite(t) & (t < best_t)
                if not ok.any():
                    continue
                phi = np.arctan2(hy, hx - cx)
                if which == "right":
                    s = rho * (phi + 0.5 * math.pi)
                else:
                    phi = np.mod(phi, 2 * math.pi)  # [pi/2, 3pi/2]
                    s = math.pi * rho + 2 * l + rho * (phi - 0.5 * math.pi)
                best_t = np.where(ok, t, best_t)
                best_s = np.where(ok, s, best_s)

        if not np.all(np.isfinite(best_t)):
            raise TangentLaunchError(
                "ray has no transversal boundary exit (glancing or outward launch)"
            )
        return np.mod(best_s, self.total_length), best_t
