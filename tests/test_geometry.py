"""Boundary curves: parametrization, metrics and ray tracing."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from sabine_lab import bie
from sabine_lab import billiards as bl
from sabine_lab.errors import TangentLaunchError, UnsupportedCurveKindError
from sabine_lab.geometry import BoundaryCurve


def frame(curve, s):
    """Position, unit tangent and outward normal at arclength s."""
    x, y, tx, ty = curve._frame(curve._u_of_s(s))
    return np.array([x, y]), np.array([tx, ty]), np.array([ty, -tx])


def exit_hit(curve, origin, direction):
    """Exit native parameter, arclength, position and travel of one ray from
    origin along a unit direction."""
    u, travel = curve._ray_exit_many(np.reshape(origin, (1, 2)),
                                     np.reshape(direction, (1, 2)))
    x, y, _, _ = curve._frame(u)
    return u[0], float(curve._s_of_u(u)[0]), np.array([x[0], y[0]]), float(travel[0])


def test_circle_anchors(unit_circle):
    assert np.allclose(unit_circle.point_many([0.0])[0], [1.0, 0.0], atol=1e-15)
    assert np.allclose(unit_circle.point_many([math.pi])[0], [-1.0, 0.0], atol=1e-12)


def test_closure(unit_circle, ellipse21, stadium11):
    for curve in (unit_circle, ellipse21, stadium11):
        a, b = curve.point_many([0.0, curve.total_length])
        assert np.linalg.norm(a - b) < 1e-12


def test_point_many_returns_positions(unit_circle, ellipse21, stadium11):
    for curve in (unit_circle, ellipse21, stadium11):
        s = np.linspace(0, curve.total_length, 7)
        pos = curve.point_many(s)
        assert pos.shape == (7, 2)
        assert np.array_equal(pos, np.stack(curve._frame(curve._u_of_s(s))[:2], axis=-1))


def test_ellipse_builds_silently_with_closed_form_length():
    # the arclength self-check must not warn on elongated ellipses
    for a in (3.0, 10.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = BoundaryCurve.ellipse(a, 1.0)
        exact = 4.0 * a * special.ellipe(1.0 - 1.0 / a**2)
        assert abs(curve.total_length - exact) < 1e-12 * exact


@settings(max_examples=80, deadline=None)
@given(frac=st.floats(0.0, 0.9999))
def test_tangent_normal_frames(frac):
    for curve in (BoundaryCurve.circle(1.0), BoundaryCurve.ellipse(2, 1),
                  BoundaryCurve.stadium(1, 1)):
        _, tangent, normal = frame(curve, frac * curve.total_length)
        assert abs(np.linalg.norm(tangent) - 1) < 1e-10
        assert abs(np.linalg.norm(normal) - 1) < 1e-10
        assert abs(np.dot(tangent, normal)) < 1e-10
        # fixed handedness: +90-degree rotation of the normal is the tangent
        rot = np.array([-normal[1], normal[0]])
        assert np.linalg.norm(rot - tangent) < 1e-9


def test_arclength_property(ellipse21):
    s0 = 1.2345
    p0 = ellipse21.point_many([s0])[0]
    ratios = []
    for delta in (1e-6, 1e-5, 1e-4, 1e-3):
        p1 = ellipse21.point_many([s0 + delta])[0]
        ratios.append(np.linalg.norm(p1 - p0) / delta)
    assert all(abs(r - 1) < 1e-5 for r in ratios)


def test_arclength_of_angle_circle(unit_circle):
    # the circle's native parameter is the polar angle
    assert abs(unit_circle._u_of_s(math.pi / 2) - math.pi / 2) < 1e-14
    assert abs(unit_circle._s_of_u(math.pi / 2) - math.pi / 2) < 1e-14


def test_arclength_of_angle_ellipse(ellipse21):
    total = ellipse21._s_of_t(2 * math.pi)
    assert abs(total - ellipse21.total_length) < 1e-12
    half = ellipse21._s_of_t(math.pi)
    assert abs(half - ellipse21.total_length / 2) < 1e-10
    # independent adaptive-quadrature oracle for a generic angle
    t_probe = 1.234

    def speed(t):
        return math.hypot(2 * math.sin(t), math.cos(t))

    oracle, _ = integrate.quad(speed, 0.0, t_probe, epsabs=1e-13, epsrel=1e-13)
    assert abs(ellipse21._s_of_t(t_probe) - oracle) < 1e-10
    # inverse round trip
    s = ellipse21._s_of_t(t_probe)
    assert abs(ellipse21._u_of_s(s) - t_probe) < 1e-11


@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 5.0, 20.0])
def test_ellipse_arclength_off_the_2to1_case(ratio):
    curve = BoundaryCurve.ellipse(ratio, 1.0)
    L = curve.total_length

    def speed(t):
        return mpmath.sqrt((ratio * mpmath.sin(t)) ** 2 + mpmath.cos(t) ** 2)

    with mpmath.workdps(30):
        for t in (0.3, 1.234, 2.9, 4.0, 6.0):
            # split at the vertices, where the speed has its extrema
            nodes = [0] + [k * mpmath.pi / 2 for k in range(1, 4) if k * math.pi / 2 < t] + [t]
            oracle = float(mpmath.quad(speed, nodes))
            assert abs(curve._s_of_t(t) - oracle) < 1e-13 * L
    for s in (0.0, 1e-3 * L, 0.5 * L, (1.0 - 1e-9) * L):
        t = curve._u_of_s(s)
        assert 0.0 <= t < 2.0 * math.pi
        assert abs(curve._s_of_t(t) - s) < 1e-12 * L


def test_diameter_circle(unit_circle):
    d, _ = unit_circle.diameter()
    assert d == 2.0
    L = unit_circle.total_length
    # every antipodal pair realizes the diameter
    for s in np.linspace(0, L, 37):
        p, q = unit_circle.point_many([s, s + L / 2])
        assert abs(np.linalg.norm(p - q) - 2.0) < 1e-9


def test_diameter_ellipse(ellipse21):
    d, starts = ellipse21.diameter()
    assert abs(d - 4.0) < 1e-12
    assert starts.tolist() == [0.0]
    a, b = ellipse21.point_many([starts[0], starts[0] + ellipse21.total_length / 2])
    assert np.allclose(a, [2, 0], atol=1e-9)
    assert np.allclose(b, [-2, 0], atol=1e-9)


@pytest.mark.parametrize("spec", ["circle:r=1", "circle:r=2.5", "ellipse:a=1,b=1",
                                  "ellipse:a=2,b=1", "stadium:l=1,r=1", "stadium:l=0.3,r=2.7"])
def test_diameter_starts_realize_the_diameter(spec):
    # a round curve (a == b) lists its antipodal chords on [0, L/2), L/4
    # among them; any other curve lists its one diameter chord
    curve = BoundaryCurve.from_spec(spec)
    d, starts = curve.diameter()
    L = curve.total_length
    round_curve = spec.startswith("circle") or spec == "ellipse:a=1,b=1"
    assert starts.size == (1024 if round_curve else 1)
    assert np.all((0.0 <= starts) & (starts < L / 2))
    if round_curve:
        assert np.allclose(np.diff(starts), L / 2 / starts.size, rtol=1e-12)
        assert L / 4 in starts
    chords = curve.point_many(starts) - curve.point_many(starts + L / 2)
    assert np.all(np.abs(np.linalg.norm(chords, axis=1) - d) < 1e-12 * d)


def test_diameter_stadium_brute_force(stadium11):
    d, pairs = stadium11.diameter()
    assert abs(d - 4.0) < 1e-12
    # brute-force oracle over dense boundary pairs
    s = np.linspace(0, stadium11.total_length, 600, endpoint=False)
    pos = stadium11.point_many(s)
    diff = pos[:, None, :] - pos[None, :, :]
    brute = np.sqrt((diff**2).sum(-1)).max()
    assert brute <= d + 1e-12
    assert brute > d - 1e-3


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
@pytest.mark.parametrize("r", [1.0, 2.5])
def test_circle_is_the_round_ellipse(r):
    # the circle is the conic a = b = r: both spellings of one shape give
    # the same bits in every layer, from the frames to the boundary operator
    circle = BoundaryCurve.from_spec(f"circle:r={r}")
    ellipse = BoundaryCurve.from_spec(f"ellipse:a={r},b={r}")
    assert circle.total_length == ellipse.total_length
    s = np.linspace(0.0, circle.total_length, 1000, endpoint=False)
    frames = [c._frame(c._u_of_s(s)) for c in (circle, ellipse)]
    assert all(np.array_equal(a, b) for a, b in zip(*frames))
    q = bl.PhasePoint(0.3, 0.4321)
    assert bl.iterate(circle, q, 500) == bl.iterate(ellipse, q, 500)
    pot = bl.PotentialSpec(1.0, 0.0)
    assert (bl.sabine_gap(circle, 0.1, pot, bl.Model.DELTA)
            == bl.sabine_gap(ellipse, 0.1, pot, bl.Model.DELTA))
    grids = [bie.NystromGrid.build(c, 128) for c in (circle, ellipse)]
    assert np.array_equal(grids[0].dist, grids[1].dist)
    assert np.array_equal(grids[0].group, grids[1].group)
    sigma = [bie.sigma_min_boundary_operator(g, 1.0 - 0.1j, 0.1, pot) for g in grids]
    assert sigma[0] == sigma[1]


def test_diameter_invariant_under_radius_scaling():
    for r in (0.5, 1.0, 3.7):
        d, _ = BoundaryCurve.circle(r).diameter()
        assert abs(d - 2 * r) < 1e-12


def test_ray_exit_circle_diameter(unit_circle):
    _, _, position, travel = exit_hit(unit_circle, (1.0, 0.0), (-1.0, 0.0))
    assert np.allclose(position, [-1, 0], atol=1e-12)
    assert abs(travel - 2.0) < 1e-12


def test_ray_exit_circle_oblique(unit_circle):
    # tangential component 1/2: exit at angle 2pi/3, travel sqrt(3)
    direction = np.array([-math.sqrt(3) / 2, 0.5])
    _, s, _, travel = exit_hit(unit_circle, (1.0, 0.0), direction)
    assert abs(s - 2 * math.pi / 3) < 1e-12
    assert abs(travel - math.sqrt(3)) < 1e-12


def test_ray_exit_ellipse_axis(ellipse21):
    _, _, position, travel = exit_hit(ellipse21, (2.0, 0.0), (-1.0, 0.0))
    assert np.allclose(position, [-2, 0], atol=1e-10)
    assert abs(travel - 4.0) < 1e-12


def test_ray_exit_reversal(rng, unit_circle, ellipse21, stadium11):
    for curve in (unit_circle, ellipse21, stadium11):
        for _ in range(100):
            s = rng.uniform(0, curve.total_length)
            position, tangent, normal = frame(curve, s)
            xi = rng.uniform(-0.95, 0.95)
            direction = xi * tangent - math.sqrt(1 - xi * xi) * normal
            _, _, out, _ = exit_hit(curve, position, direction)
            _, _, back, _ = exit_hit(curve, out, -direction)
            assert np.linalg.norm(back - position) < 1e-9


def test_ray_exit_residual_on_curve(rng, unit_circle, ellipse21, stadium11):
    # the frame at the exit parameter is the boundary frame at the exit arclength
    for curve in (unit_circle, ellipse21, stadium11):
        for _ in range(50):
            s = rng.uniform(0, curve.total_length)
            position, tangent, normal = frame(curve, s)
            xi = rng.uniform(-0.9, 0.9)
            direction = xi * tangent - math.sqrt(1 - xi * xi) * normal
            u, hit_s, _, _ = exit_hit(curve, position, direction)
            x, y, tx, ty = curve._frame(u)
            hit = np.array([x, y]), np.array([tx, ty]), np.array([ty, -tx])
            ref = frame(curve, hit_s)
            assert np.linalg.norm(hit[0] - ref[0]) < 1e-12
            assert np.linalg.norm(hit[1] - ref[1]) < 1e-12
            assert np.linalg.norm(hit[2] - ref[2]) < 1e-12
            if curve is ellipse21:
                assert abs((x / 2) ** 2 + y**2 - 1) < 1e-12


def test_tangent_launch_rejected(unit_circle):
    position, tangent, _ = frame(unit_circle, 0.3)
    with pytest.raises(TangentLaunchError):
        exit_hit(unit_circle, position, tangent)


STADIUM_SHAPES = [(1.0, 1.0), (0.3, 2.7), (5.0, 0.2), (1e-3, 1.0), (100.0, 0.01)]


@pytest.mark.parametrize("l, rho", STADIUM_SHAPES)
def test_stadium_ray_exit_from_centre(l, rho):
    curve = BoundaryCurve.stadium(l, rho)
    cap = math.pi * rho
    cases = [((1.0, 0.0), (l + rho, 0.0), 0.5 * cap, l + rho),
             ((-1.0, 0.0), (-l - rho, 0.0), 1.5 * cap + 2.0 * l, l + rho),
             ((0.0, 1.0), (0.0, rho), cap + l, rho),
             ((0.0, -1.0), (0.0, -rho), 2.0 * cap + 3.0 * l, rho)]
    for direction, position, s, travel in cases:
        _, hit_s, hit, t = exit_hit(curve, (0.0, 0.0), direction)
        assert np.allclose(hit, position, rtol=0.0, atol=1e-14 * (l + rho))
        assert abs(hit_s - s) < 1e-14 * curve.total_length
        assert abs(t - travel) < 1e-14 * travel
        # the single-orbit (float) exit agrees
        u, t = curve._exit(0.0, 0.0, *direction)
        assert abs(curve._s_of_u(u) - s) < 1e-14 * curve.total_length
        assert abs(t - travel) < 1e-14 * travel


@pytest.mark.parametrize("l, rho", STADIUM_SHAPES)
def test_stadium_cap_extremes_at_signed_zero(l, rho):
    # y = -0.0 at the left extreme puts atan2 on the other side of its branch
    # cut; the arclength must not jump by the straights' length
    curve = BoundaryCurve.stadium(l, rho)
    right, left = 0.5 * math.pi * rho, 1.5 * math.pi * rho + 2.0 * l
    tol = 4e-16 * curve.total_length
    for y in (0.0, -0.0):
        assert abs(curve._stadium_s_of_point(l + rho, y) - right) < tol
        assert abs(curve._stadium_s_of_point(-l - rho, y) - left) < tol
        s = curve._stadium_s_of_point(np.array([l + rho, -l - rho]), np.array([y, y]))
        assert abs(s[0] - right) < tol and abs(s[1] - left) < tol


def test_stadium_arclength_of_point_below_total_length(stadium11):
    # one ulp short of the junction s = 0 on the bottom straight
    for x in (np.nextafter(1.0, 0.0), np.array([np.nextafter(1.0, 0.0)])):
        s = stadium11._stadium_s_of_point(x, -1.0 + 0.0 * x)
        assert np.all((0.0 <= s) & (s < stadium11.total_length))


@pytest.mark.parametrize("spec", ["circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1"])
@pytest.mark.parametrize("s", [-1e-17, -1e-300, -0.0, "L"])
def test_arclength_wraps_into_half_open_range(spec, s):
    curve = BoundaryCurve.from_spec(spec)
    s = curve.total_length if s == "L" else s
    assert 0.0 <= curve._s_of_u(curve._u_of_s(s)) < curve.total_length
    assert 0.0 <= curve._s_of_u(curve._u_of_s(np.array([s])))[0] < curve.total_length


@pytest.mark.parametrize("dy", [1e-4, 1e-5, 1e-6, -1e-4, -1e-5, -1e-6])
def test_stadium_shallow_exit_through_straight(stadium11, dy):
    # a shallow ray meets a straight at (+-rho - y) / dy, exact to rounding;
    # the root of a circle tangent to the straight there would lose about
    # eps / dy^2 of it
    dx = math.sqrt(1.0 - dy * dy)
    wall = math.copysign(1.0, dy)
    x0, y0 = -0.5, wall - 0.5 * dy / dx       # meets the straight near x = 0
    expect = (wall - y0) / dy
    _, travel = stadium11._exit(x0, y0, dx, dy)
    assert abs(travel - expect) <= 1e-14 * expect
    _, travels = stadium11._ray_exit_many(np.array([[x0, y0]]), np.array([[dx, dy]]))
    assert abs(travels[0] - expect) <= 1e-14 * expect


def test_curve_spec_parsing():
    c = BoundaryCurve.from_spec("circle:r=2.5")
    assert c.params["radius"] == 2.5
    e = BoundaryCurve.from_spec("ellipse:a=2,b=1")
    assert e.params == {"a": 2.0, "b": 1.0}
    s = BoundaryCurve.from_spec("stadium:l=1,r=1")
    assert s.total_length == pytest.approx(4 + 2 * math.pi)
    with pytest.raises(ValueError):
        BoundaryCurve.from_spec("hexagon:n=6")
    with pytest.raises(ValueError):
        BoundaryCurve.from_spec("circle:radius")
    with pytest.raises(ValueError, match="gives r no number"):
        BoundaryCurve.from_spec("circle:r=x")
    # the constructor takes a CurveKind, not its name
    with pytest.raises(UnsupportedCurveKindError):
        BoundaryCurve("circle", {"radius": 1.0})


@pytest.mark.parametrize("spec", ["circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1"])
def test_describe_round_trips_the_spec(spec):
    assert BoundaryCurve.from_spec(spec).describe() == spec


@pytest.mark.parametrize("spec", ["circle:r=nan", "circle:r=inf", "circle:r=0",
                                  "ellipse:a=inf,b=1", "ellipse:a=2,b=nan",
                                  "stadium:l=nan,r=1", "stadium:l=1,r=inf", "stadium:l=0,r=1"])
def test_curve_requires_finite_positive_parameters(spec):
    with pytest.raises(ValueError, match="finite"):
        BoundaryCurve.from_spec(spec)


@pytest.mark.parametrize("spec", ["circle:r=1,r=2", "circle:r=1,q=2", "ellipse:a=2",
                                  "stadium:r=1", "circle:", "ellipse:a=2,b=1,a=3"])
def test_curve_spec_rejects_repeated_unknown_or_missing_keys(spec):
    with pytest.raises(ValueError, match="key"):
        BoundaryCurve.from_spec(spec)
