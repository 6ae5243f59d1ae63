"""Boundary curves: parametrization, metrics and ray tracing."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from sabine_lab.errors import TangentLaunchError, UnsupportedCurveKindError
from sabine_lab.geometry import BoundaryCurve


def test_circle_anchors(unit_circle):
    p = unit_circle.point_at(0.0)
    assert np.allclose(p.position, [1.0, 0.0], atol=1e-15)
    assert p.curvature == 1.0
    q = unit_circle.point_at(math.pi)
    assert np.allclose(q.position, [-1.0, 0.0], atol=1e-12)


def test_closure(unit_circle, ellipse21, stadium11):
    for curve in (unit_circle, ellipse21, stadium11):
        a = curve.point_at(0.0).position
        b = curve.point_at(curve.total_length).position
        assert np.linalg.norm(a - b) < 1e-12


def test_ellipse_builds_silently_with_closed_form_length():
    # the arclength self-check must not warn on elongated ellipses
    for a in (3.0, 10.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = BoundaryCurve.ellipse(a, 1.0)
        exact = 4.0 * a * special.ellipe(1.0 - 1.0 / a**2)
        assert abs(curve.total_length - exact) < 1e-12 * exact


def test_ellipse_curvature_matches_finite_differences(ellipse21):
    # central finite-difference oracle on the position map
    s0 = 0.0
    delta = 1e-5
    p0 = ellipse21.point_at(s0).position
    pp = ellipse21.point_at(s0 + delta).position
    pm = ellipse21.point_at(s0 - delta).position
    second = (pp - 2 * p0 + pm) / delta**2
    kappa_fd = np.linalg.norm(second)
    analytic = ellipse21.point_at(s0).curvature
    assert abs(analytic - 2.0) < 1e-10          # ab/b^3 at the vertex
    assert abs(kappa_fd - analytic) < 1e-4


def test_curvature_sign_convention(unit_circle, ellipse21, stadium11):
    # convexity: curvature >= 0 everywhere, strictly positive when smooth
    for curve, strict in ((unit_circle, True), (ellipse21, True), (stadium11, False)):
        s = np.linspace(0, curve.total_length, 257)
        kap = curve.point_many(s)["curvature"]
        assert np.all(kap >= 0)
        if strict:
            assert np.all(kap > 0)


@settings(max_examples=80, deadline=None)
@given(frac=st.floats(0.0, 0.9999))
def test_tangent_normal_frames(frac):
    for curve in (BoundaryCurve.circle(1.0), BoundaryCurve.ellipse(2, 1),
                  BoundaryCurve.stadium(1, 1)):
        p = curve.point_at(frac * curve.total_length)
        assert abs(np.linalg.norm(p.unit_tangent) - 1) < 1e-10
        assert abs(np.linalg.norm(p.outward_normal) - 1) < 1e-10
        assert abs(np.dot(p.unit_tangent, p.outward_normal)) < 1e-10
        # fixed handedness: +90-degree rotation of the normal is the tangent
        rot = np.array([-p.outward_normal[1], p.outward_normal[0]])
        assert np.linalg.norm(rot - p.unit_tangent) < 1e-9


def test_arclength_property(ellipse21):
    s0 = 1.2345
    p0 = ellipse21.point_at(s0).position
    ratios = []
    for delta in (1e-6, 1e-5, 1e-4, 1e-3):
        p1 = ellipse21.point_at(s0 + delta).position
        ratios.append(np.linalg.norm(p1 - p0) / delta)
    assert all(abs(r - 1) < 1e-5 for r in ratios)


def test_arclength_of_angle_circle(unit_circle):
    assert abs(unit_circle.arclength_of_angle(math.pi / 2) - math.pi / 2) < 1e-14


def test_arclength_of_angle_ellipse(ellipse21):
    total = ellipse21.arclength_of_angle(2 * math.pi)
    assert abs(total - ellipse21.total_length) < 1e-12
    half = ellipse21.arclength_of_angle(math.pi)
    assert abs(half - ellipse21.total_length / 2) < 1e-10
    # independent adaptive-quadrature oracle for a generic angle
    t_probe = 1.234

    def speed(t):
        return math.hypot(2 * math.sin(t), math.cos(t))

    oracle, _ = integrate.quad(speed, 0.0, t_probe, epsabs=1e-13, epsrel=1e-13)
    assert abs(ellipse21.arclength_of_angle(t_probe) - oracle) < 1e-10
    # inverse round trip
    s = ellipse21.arclength_of_angle(t_probe)
    assert abs(ellipse21.angle_of_arclength(s) - t_probe) < 1e-11


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
            assert abs(curve.arclength_of_angle(t) - oracle) < 1e-13 * L
    for s in (0.0, 1e-3 * L, 0.5 * L, (1.0 - 1e-9) * L):
        t = curve.angle_of_arclength(s)
        assert 0.0 <= t < 2.0 * math.pi
        assert abs(curve.arclength_of_angle(t) - s) < 1e-12 * L


def test_arclength_of_angle_unsupported_for_stadium(stadium11):
    with pytest.raises(UnsupportedCurveKindError):
        stadium11.arclength_of_angle(1.0)


def test_diameter_circle(unit_circle):
    d, pairs = unit_circle.diameter()
    assert d == 2.0
    a, b = pairs[0]
    assert abs(np.linalg.norm(a.position - b.position) - 2.0) < 1e-12
    # every antipodal pair realizes the diameter
    for s in np.linspace(0, unit_circle.total_length, 37):
        p = unit_circle.point_at(s).position
        q = unit_circle.point_at(s + unit_circle.total_length / 2).position
        assert abs(np.linalg.norm(p - q) - 2.0) < 1e-9


def test_diameter_ellipse(ellipse21):
    d, pairs = ellipse21.diameter()
    assert abs(d - 4.0) < 1e-12
    a, b = pairs[0]
    assert np.allclose(a.position, [2, 0], atol=1e-9)
    assert np.allclose(b.position, [-2, 0], atol=1e-9)


def test_diameter_stadium_brute_force(stadium11):
    d, pairs = stadium11.diameter()
    assert abs(d - 4.0) < 1e-12
    # brute-force oracle over dense boundary pairs
    s = np.linspace(0, stadium11.total_length, 600, endpoint=False)
    pos = stadium11.point_many(s)["position"]
    diff = pos[:, None, :] - pos[None, :, :]
    brute = np.sqrt((diff**2).sum(-1)).max()
    assert brute <= d + 1e-12
    assert brute > d - 1e-3


def test_diameter_invariant_under_radius_scaling():
    for r in (0.5, 1.0, 3.7):
        d, _ = BoundaryCurve.circle(r).diameter()
        assert abs(d - 2 * r) < 1e-12


def test_ray_exit_circle_diameter(unit_circle):
    hit = unit_circle.ray_exit((1.0, 0.0), (-1.0, 0.0))
    assert np.allclose(hit.point.position, [-1, 0], atol=1e-12)
    assert abs(hit.travel - 2.0) < 1e-12


def test_ray_exit_circle_oblique(unit_circle):
    # tangential component 1/2: exit at angle 2pi/3, travel sqrt(3)
    direction = np.array([-math.sqrt(3) / 2, 0.5])
    hit = unit_circle.ray_exit((1.0, 0.0), direction)
    assert abs(hit.point.s - 2 * math.pi / 3) < 1e-12
    assert abs(hit.travel - math.sqrt(3)) < 1e-12


def test_ray_exit_ellipse_axis(ellipse21):
    hit = ellipse21.ray_exit((2.0, 0.0), (-1.0, 0.0))
    assert np.allclose(hit.point.position, [-2, 0], atol=1e-10)
    assert abs(hit.travel - 4.0) < 1e-12


def test_ray_exit_reversal(rng, unit_circle, ellipse21, stadium11):
    for curve in (unit_circle, ellipse21, stadium11):
        for _ in range(100):
            s = rng.uniform(0, curve.total_length)
            data = curve.point_at(s)
            xi = rng.uniform(-0.95, 0.95)
            direction = xi * data.unit_tangent - math.sqrt(1 - xi * xi) * data.outward_normal
            out = curve.ray_exit(data.position, direction)
            back = curve.ray_exit(out.point.position, -direction)
            assert np.linalg.norm(back.point.position - data.position) < 1e-9


def test_ray_exit_residual_on_curve(rng, unit_circle, ellipse21, stadium11):
    # the exit data is the boundary point at the exit arclength
    for curve in (unit_circle, ellipse21, stadium11):
        for _ in range(50):
            s = rng.uniform(0, curve.total_length)
            data = curve.point_at(s)
            xi = rng.uniform(-0.9, 0.9)
            direction = xi * data.unit_tangent - math.sqrt(1 - xi * xi) * data.outward_normal
            hit = curve.ray_exit(data.position, direction)
            ref = curve.point_at(hit.point.s)
            assert np.linalg.norm(hit.point.position - ref.position) < 1e-12
            assert np.linalg.norm(hit.point.unit_tangent - ref.unit_tangent) < 1e-12
            assert np.linalg.norm(hit.point.outward_normal - ref.outward_normal) < 1e-12
            assert abs(hit.point.curvature - ref.curvature) < 1e-12 * max(1.0, ref.curvature)
            if curve is ellipse21:
                x, y = hit.point.position
                assert abs((x / 2) ** 2 + y**2 - 1) < 1e-12


def test_tangent_launch_rejected(unit_circle):
    p = unit_circle.point_at(0.3)
    with pytest.raises(TangentLaunchError):
        unit_circle.ray_exit(p.position, p.unit_tangent)


def test_stadium_junction_curvature(stadium11):
    rho = stadium11.params["cap_radius"]
    junctions = [0.0, math.pi * rho, math.pi * rho + 2.0, 2 * math.pi * rho + 2.0]
    for s in junctions:
        assert stadium11.point_at(s).curvature == 1.0 / rho
    assert stadium11.point_at(math.pi * rho + 1.0).curvature == 0.0


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
