"""Billiard map, reflectivity averages and decay-rate bounds."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabine_lab import billiards as bl
from sabine_lab.billiards import Model, PhasePoint, PotentialSpec
from sabine_lab.disk_oracle import mode_sweep
from sabine_lab.errors import (
    DegenerateChordError,
    GlancingInputError,
    NoValidDiameterPairError,
    OrbitError,
    TangentLaunchError,
)
from sabine_lab.geometry import BoundaryCurve
from sabine_lab.resonance_search import SearchWindow, refine

POT1 = PotentialSpec(V0=1.0, alpha=0.0)


def chord_average(curve, q, n_steps):
    """Mean chord length l_N over the first n_steps iterates of q."""
    return sum(seg.chord_length for seg in bl.iterate(curve, q, n_steps)) / n_steps


def reflection_coefficient(q, h, pot, model):
    """Plane-wave reflection coefficient R of the barrier at q, xi1 = sqrt(1 - xi^2).

    delta: R = h sigma / (2i xi1 - h sigma); delta-prime: R = i sigma xi1 /
    (i sigma xi1 - 2h).
    """
    xi1 = math.sqrt(1.0 - q.xi * q.xi)
    sv = float(pot.symbol(q.s, h, model))
    if model is Model.DELTA:
        return (h * sv) / (2j * xi1 - h * sv)
    return (1j * sv * xi1) / (1j * sv * xi1 - 2.0 * h)


def reflectivity_log_average(curve, q, n_steps, h, pot, model):
    """r_N = (1/2N) sum_{n=1..N} log |R(beta^n q)|^2, from the complex R."""
    total = 0.0
    for seg in bl.iterate(curve, q, n_steps):
        r = abs(reflection_coefficient(seg.end, h, pot, model))
        if r == 0.0:
            return -math.inf
        total += math.log(r * r)
    return total / (2.0 * n_steps)


def log_reflectivity(xi, h, pot, model, s=0.0):
    """The library's log |R|^2 at one phase point."""
    return float(bl._log_reflectivity_sq(xi, pot.symbol(s, h, model), h, model))


def test_step_circle_diameter_orbit(unit_circle):
    seg = bl.billiard_step(unit_circle, PhasePoint(0.0, 0.0))
    assert abs(seg.end.s - math.pi) < 1e-12
    assert abs(seg.end.xi) < 1e-12
    assert abs(seg.chord_length - 2.0) < 1e-12


def test_step_circle_oblique(unit_circle):
    seg = bl.billiard_step(unit_circle, PhasePoint(0.0, 0.5))
    assert abs(seg.end.s - 2 * math.pi / 3) < 1e-12
    assert abs(seg.end.xi - 0.5) < 1e-12
    assert abs(seg.chord_length - math.sqrt(3)) < 1e-12


def test_step_ellipse_major_axis(ellipse21):
    seg = bl.billiard_step(ellipse21, PhasePoint(0.0, 0.0))
    assert abs(seg.end.s - ellipse21.total_length / 2) < 1e-9
    assert abs(seg.chord_length - 4.0) < 1e-12
    # brute-force ray-tracing oracle: the chord connects (2,0) to (-2,0)
    end = ellipse21.point_many([seg.end.s])[0]
    assert np.allclose(end, [-2, 0], atol=1e-9)


def test_iterate_chains_and_symmetry(unit_circle):
    segs = bl.iterate(unit_circle, PhasePoint(0.0, 0.0), 4)
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start
    s_values = [seg.end.s for seg in segs]
    for s, expect in zip(s_values, [math.pi, 0.0, math.pi, 0.0]):
        assert abs(math.sin(s)) < 1e-9 and abs(abs(math.cos(s)) - 1) < 1e-12
    segs = bl.iterate(unit_circle, PhasePoint(0.0, 0.5), 3)
    advance = 2 * math.pi / 3
    for k, seg in enumerate(segs, start=1):
        circ = abs((seg.end.s - k * advance + math.pi) % (2 * math.pi) - math.pi)
        assert circ < 1e-10
        assert abs(seg.end.xi - 0.5) < 1e-12


def test_iterate_near_glancing_survives(ellipse21):
    xi = math.sqrt(1 - 0.01**2)
    segs = bl.iterate(ellipse21, PhasePoint(0.3, xi), 50)
    radials = [math.sqrt(1 - seg.end.xi**2) for seg in segs]
    assert all(r < 0.05 for r in radials)


def test_glancing_input_rejected(unit_circle):
    with pytest.raises(GlancingInputError):
        PhasePoint(0.0, 1.0)
    with pytest.raises(GlancingInputError):
        bl.billiard_step(unit_circle, PhasePoint(0.0, 1.0 - 1e-12))
    with pytest.raises(OrbitError):
        bl.iterate(unit_circle, PhasePoint(0.0, 1.0 - 1e-11), 3)


@pytest.mark.parametrize("s0, start", [(7.0, 7.0 - 2 * math.pi), (-1.0, 2 * math.pi - 1.0),
                                       (2 * math.pi, 0.0)])
def test_orbit_start_reported_in_one_period(unit_circle, s0, start):
    # the start is reported in [0, L) like every landing
    seg = bl.billiard_step(unit_circle, PhasePoint(s0, 0.3))
    assert seg.start.s == pytest.approx(start, abs=1e-15)
    segs = bl.iterate(unit_circle, PhasePoint(s0, 0.3), 2)
    assert segs[0].start == seg.start and segs[0].end == seg.end
    assert all(0.0 <= q.s < unit_circle.total_length for q in (seg.start, seg.end))


def test_iterate_requires_a_step(unit_circle):
    # a whole count of steps: 2.5 would fail in range, after the start
    for n_steps in (0, 2.5):
        with pytest.raises(ValueError, match="n_steps"):
            bl.iterate(unit_circle, PhasePoint(0.3, 0.4), n_steps)


def test_phase_point_rejects_non_finite_s():
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="s must be finite"):
            PhasePoint(s, 0.3)


def test_tangent_launch_carries_step_index():
    # near glancing on a cap of radius 1e-8 the chord, about 2.8e-13, is below
    # the exit's travel tolerance: no transversal exit
    curve = BoundaryCurve.stadium(1.0, 1e-8)
    with pytest.raises(OrbitError, match="at orbit step 0") as info:
        bl.iterate(curve, PhasePoint(0.5e-8 * math.pi, 1.0 - 2e-10), 3)
    assert isinstance(info.value.__cause__, TangentLaunchError)
    assert info.value.step_index == 0


def test_degenerate_chord_carries_step_index(unit_circle, monkeypatch):
    # a step whose chord falls below the geometric floor 1e-10, here the
    # second of an orbit (a stand-in step shortens it)
    real = bl._step
    calls = [0]

    def short_second_chord(*args):
        calls[0] += 1
        u, arrive, xi, chord = real(*args)
        return u, arrive, xi, 1e-11 if calls[0] == 2 else chord

    monkeypatch.setattr(bl, "_step", short_second_chord)
    with pytest.raises(OrbitError, match="at orbit step 1") as info:
        bl.iterate(unit_circle, PhasePoint(0.3, 0.4), 3)
    assert isinstance(info.value.__cause__, DegenerateChordError)
    assert info.value.step_index == 1
    calls[0] = 1
    with pytest.raises(DegenerateChordError, match="chord length 1.000e-11 below"):
        bl.billiard_step(unit_circle, PhasePoint(0.3, 0.4))


def test_xi_conservation_long_orbit(unit_circle):
    q = PhasePoint(0.3, 0.4321)
    segs = bl.iterate(unit_circle, q, 10_000)
    drift = max(abs(seg.end.xi - q.xi) for seg in segs)
    assert drift < 1e-12


@pytest.mark.parametrize("s0, xi0", [(1.0, -0.7), (0.1, -0.2), (0.5, 0.05)])
def test_xi_drift_at_most_linear(unit_circle, s0, xi0):
    # xi is the same at every bounce, so its rounding bias repeats and the
    # drift grows linearly with the orbit length: n eps bounds it at n steps.
    # The ray exit divides by the radius, so a radius other than 1 is stepped
    # too
    n = 10_000
    for curve in (unit_circle, BoundaryCurve.circle(2.5)):
        segs = bl.iterate(curve, PhasePoint(s0, xi0), n)
        drift = max(abs(seg.end.xi - xi0) for seg in segs)
        assert drift <= n * np.finfo(float).eps


@pytest.mark.parametrize("l, rho", [(1.0, 1.0), (0.3, 2.7), (5.0, 0.2), (1e-3, 1.0),
                                    (100.0, 0.01)])
@pytest.mark.parametrize("xi", [0.0, -0.0])
def test_stadium_long_axis_step(l, rho, xi):
    # launched level (dy = +-0.0) from the right extreme: the float step must
    # not divide by dy, and lands on the left extreme.  The chord is exact to
    # rounding even when the start is 2l >> rho from the far cap's centre; the
    # landing angle is resolved to eps L / rho, the arclength's resolution.
    curve = BoundaryCurve.stadium(l, rho)
    eps = np.finfo(float).eps
    seg = bl.billiard_step(curve, PhasePoint(0.5 * math.pi * rho, xi))
    assert abs(seg.end.s - (1.5 * math.pi * rho + 2.0 * l)) < 1e-14 * curve.total_length
    assert abs(seg.chord_length - 2.0 * (l + rho)) < 1e-14 * (l + rho)
    assert abs(seg.end.xi) <= eps * curve.total_length / rho


def test_generating_function_momenta(rng, ellipse21):
    # departure momentum = -d_x|x-y| . tangent(x); arrival = d_y|x-y| . tangent(y)
    for _ in range(50):
        q = PhasePoint(rng.uniform(0, ellipse21.total_length), rng.uniform(-0.9, 0.9))
        seg = bl.billiard_step(ellipse21, q)
        x0, x1, tx0, tx1 = ellipse21._frame(ellipse21._u_of_s(seg.start.s))
        y0, y1, ty0, ty1 = ellipse21._frame(ellipse21._u_of_s(seg.end.s))
        u = np.array([y0 - x0, y1 - x1]) / math.hypot(y0 - x0, y1 - x1)
        assert abs(np.dot(u, [tx0, tx1]) - seg.start.xi) < 1e-10
        assert abs(np.dot(u, [ty0, ty1]) - seg.end.xi) < 1e-10


def test_reversibility(rng, ellipse21):
    for _ in range(50):
        q = PhasePoint(rng.uniform(0, ellipse21.total_length), rng.uniform(-0.9, 0.9))
        seg = bl.billiard_step(ellipse21, q)
        back = bl.billiard_step(ellipse21, PhasePoint(seg.end.s, -seg.end.xi))
        assert abs(back.end.s - q.s) < 1e-9 or \
            abs(back.end.s - q.s - ellipse21.total_length) < 1e-9 or \
            abs(back.end.s - q.s + ellipse21.total_length) < 1e-9
        assert abs(back.end.xi + q.xi) < 1e-9


def test_near_glancing_quadratic_drift(ellipse21):
    # |r(beta q) - r(q)| <= C r^2 with a stable constant over two decades
    s0 = 1.234
    constants = []
    for r in np.geomspace(1e-3, 1e-1, 9):
        xi = math.sqrt(1 - r * r)
        seg = bl.billiard_step(ellipse21, PhasePoint(s0, xi))
        r_next = math.sqrt(1 - seg.end.xi**2)
        constants.append(abs(r_next - r) / (r * r))
    assert max(constants) / min(constants) < 2.0


def test_scalar_and_array_steps_agree(rng, unit_circle, ellipse21, stadium11):
    # one orbit steps on floats through math, the Sabine grid on arrays
    for curve in (unit_circle, ellipse21, stadium11):
        L = curve.total_length
        s = rng.uniform(0, L, 200)
        xi = rng.uniform(-0.9, 0.9, 200)
        u, _, xi_next, chord = bl._step(curve, curve._frame(curve._u_of_s(s)), xi)
        s_next = curve._s_of_u(u)
        for k in range(s.size):
            seg = bl.billiard_step(curve, PhasePoint(float(s[k]), float(xi[k])))
            assert abs((seg.end.s - s_next[k] + 0.5 * L) % L - 0.5 * L) < 1e-12
            assert abs(seg.end.xi - xi_next[k]) < 1e-12
            assert abs(seg.chord_length - chord[k]) < 1e-12


def test_chord_average(unit_circle, ellipse21):
    assert abs(chord_average(unit_circle, PhasePoint(0, 0), 7) - 2.0) < 1e-12
    assert abs(chord_average(unit_circle, PhasePoint(0, 0.5), 3) - math.sqrt(3)) < 1e-12
    assert abs(chord_average(ellipse21, PhasePoint(0, 0), 2) - 4.0) < 1e-12


def test_reflect_delta_values():
    # h*sigma = 2 at normal incidence: R = 2/(2i-2) = -(1+i)/2, |R|^2 = 1/2
    assert abs(log_reflectivity(0.0, 2.0, POT1, Model.DELTA) - math.log(0.5)) < 1e-15
    # no barrier
    zero_pot = PotentialSpec(V0=1.0, alpha=0.0,
                             profile=lambda s: np.zeros_like(np.asarray(s, float)))
    assert log_reflectivity(0.0, 1.0, zero_pot, Model.DELTA) == -math.inf


def test_reflect_delta_glancing_limit():
    # |R_delta| -> 1 while |R_delta'| -> 0 as xi -> 1 at fixed strength
    vals_d, vals_p = [], []
    for xi in (0.9, 0.99, 0.999, 0.99999):
        vals_d.append(math.exp(0.5 * log_reflectivity(xi, 1.0, POT1, Model.DELTA)))
        vals_p.append(math.exp(0.5 * log_reflectivity(xi, 0.2, POT1, Model.DELTA_PRIME)))
    assert all(b > a for a, b in zip(vals_d, vals_d[1:]))
    assert vals_d[-1] > 0.999
    assert all(b < a for a, b in zip(vals_p, vals_p[1:]))
    assert vals_p[-1] < 2e-2


def test_reflect_delta_prime_values():
    # sigma = 2h at xi1 = 1: R = i/(i-1) = (1-i)/2, |R|^2 = 1/2
    assert abs(log_reflectivity(0.0, 0.5, POT1, Model.DELTA_PRIME) - math.log(0.5)) < 1e-15
    # perfect-barrier limit: sigma -> infinity gives |R| -> 1
    strong = PotentialSpec(V0=1e12, alpha=0.0)
    assert abs(log_reflectivity(0.0, 1.0, strong, Model.DELTA_PRIME)) < 1e-10


@settings(max_examples=120, deadline=None)
@given(xi=st.floats(-0.999, 0.999), h=st.floats(1e-3, 2.0),
       v0=st.floats(1e-3, 1e3), alpha=st.floats(0.0, 0.95))
def test_reflection_moduli_below_one(xi, h, v0, alpha):
    pot = PotentialSpec(V0=v0, alpha=alpha)
    assert log_reflectivity(xi, h, pot, Model.DELTA) < 0.0
    assert log_reflectivity(xi, h, pot, Model.DELTA_PRIME) < 0.0


def test_log_reflectivity_average_circle(unit_circle):
    # constant strength: value independent of depth, equals log|R|
    for n in (1, 3, 5):
        ends = [seg.end for seg in bl.iterate(unit_circle, PhasePoint(0, 0), n)]
        xi = np.array([q.xi for q in ends])
        sv = POT1.symbol(np.array([q.s for q in ends]), 2.0, Model.DELTA)
        val = bl._log_reflectivity_sq(xi, sv, 2.0, Model.DELTA).sum() / (2 * n)
        assert abs(val - 0.5 * math.log(0.5)) < 1e-12


def test_log_reflectivity_sentinel(unit_circle):
    gap_profile = PotentialSpec(
        V0=1.0, alpha=0.0,
        profile=lambda s: np.where(np.abs(np.asarray(s) - math.pi) < 0.5, 0.0, 1.0))
    # the diameter orbit from s = 0 lands at s = pi, where the profile vanishes
    landing = bl.billiard_step(unit_circle, PhasePoint(0, 0)).end
    assert log_reflectivity(landing.xi, 2.0, gap_profile, Model.DELTA, landing.s) == -math.inf


def test_sabine_gap_circle_closed_form(unit_circle):
    report = bl.sabine_gap(unit_circle, 0.01, POT1, Model.DELTA)
    closed = math.log(1 + 4 / 0.01**2) / 4
    assert abs(report.bound - closed) <= 0.01 * closed
    assert abs(report.minimizer.xi) < 1e-12
    assert report.converged
    assert report.within_theory


def test_sabine_gap_delta_prime_closed_form(unit_circle):
    pot = PotentialSpec(V0=1.0, alpha=0.9)
    report = bl.sabine_gap(unit_circle, 0.01, pot, Model.DELTA_PRIME)
    closed = math.log(1 + 4 * 0.01**0.2) / 4
    assert abs(report.bound - closed) <= 0.01 * closed


@pytest.mark.parametrize("h", [0.01, 0.03, 0.1])
def test_sabine_gap_ellipse_closed_forms(ellipse21, h):
    d = 4.0
    delta = bl.sabine_gap(ellipse21, h, POT1, Model.DELTA).bound
    diameter = (math.log(1 / h) + 0.5 * math.log(4.0)) / d
    assert abs(delta - diameter) <= 1e-3 * diameter
    prime = bl.sabine_gap(ellipse21, h, PotentialSpec(V0=1.0, alpha=0.8), Model.DELTA_PRIME).bound
    orbit = math.log(1 + 4 * h ** (2 - 2 * 0.8)) / (2 * d)
    assert abs(prime - orbit) <= 1e-2 * orbit


@pytest.mark.parametrize("spec", ["circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1"])
@pytest.mark.parametrize("model, alpha", [(Model.DELTA, 0.0), (Model.DELTA_PRIME, 0.8)])
@pytest.mark.parametrize("varying", [False, True])
def test_grid_bound_is_orbit_average_at_minimizer(spec, model, alpha, varying):
    # the grid's array orbits and iterate's scalar orbits give one value
    curve = BoundaryCurve.from_spec(spec)
    L = curve.total_length
    profile = (lambda s: 1.0 + 0.5 * np.cos(2 * np.pi * np.asarray(s) / L)) if varying else None
    pot = PotentialSpec(V0=1.0, alpha=alpha, profile=profile)
    h = 0.05
    report = bl.sabine_gap(curve, h, pot, model, grid=(32, 17), n_average=6)
    n = report.n_average
    logr = reflectivity_log_average(curve, report.minimizer, n, h, pot, model)
    expect = -logr / chord_average(curve, report.minimizer, n)
    assert abs(report.bound - expect) <= 1e-12 * abs(expect)


def test_constant_profile_steps_without_arclength_map(monkeypatch):
    # the grid maps s -> t once; its steps evaluate no elliptic integral
    ellipse = BoundaryCurve.ellipse(2.0, 1.0)
    calls = collections.Counter()
    for name in ("_s_of_t", "_t_of_s"):
        def counted(self, x, _original=getattr(BoundaryCurve, name), _name=name):
            calls[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(BoundaryCurve, name, counted)
    counts = []
    for n_average in (2, 8):
        calls.clear()
        bl.sabine_gap(ellipse, 0.05, POT1, Model.DELTA, n_average=n_average)
        counts.append(dict(calls))
    assert counts[0]["_t_of_s"] == 1
    assert counts[0] == counts[1]


# (curve, model, alpha, h, bound, minimizer s, minimizer xi, depth) on the
# default grid, as float.hex.  The stadium's delta rows come from the orbit at
# s - L/2 of the minimizer that the unfolded grid picked, its image under the
# half turn; their bounds differ from it by at most 3.1e-14 relative
GOLDEN = [
    ("circle:r=1", Model.DELTA, 0.0, 0.01, "0x1.5317d626e4a88p+1", "0x0.0p+0", "0x0.0p+0", 1),
    ("circle:r=1", Model.DELTA, 0.0, 0.05, "0x1.d83770522a3c7p+0", "0x0.0p+0", "0x0.0p+0", 1),
    ("circle:r=1", Model.DELTA_PRIME, 0.8, 0.01, "0x1.f6c9f9b09c6bep-4", "0x0.0p+0", "0x0.0p+0", 7),
    ("circle:r=1", Model.DELTA_PRIME, 0.8, 0.05, "0x1.954748dcd4b1cp-3", "0x0.0p+0", "0x0.0p+0", 1),
    ("ellipse:a=2,b=1", Model.DELTA, 0.0, 0.01, "0x1.5317d626e4a88p+0", "0x0.0p+0", "0x0.0p+0", 2),
    ("ellipse:a=2,b=1", Model.DELTA, 0.0, 0.05, "0x1.d83770522a3c7p-1", "0x0.0p+0", "0x0.0p+0", 3),
    ("ellipse:a=2,b=1", Model.DELTA_PRIME, 0.8, 0.01, "0x1.f6c9f9b09c6bep-5", "0x0.0p+0",
     "0x0.0p+0", 7),
    ("ellipse:a=2,b=1", Model.DELTA_PRIME, 0.8, 0.05, "0x1.954748dcd4b1cp-4", "0x0.0p+0",
     "0x0.0p+0", 1),
    ("stadium:l=1,r=1", Model.DELTA, 0.0, 0.01, "0x1.87e13e4c486ecp+0", "0x1.9b53d14aa9c2fp+1",
     "0x1.d733333333332p-1", 7),
    ("stadium:l=1,r=1", Model.DELTA, 0.0, 0.05, "0x1.0ebc63bd26a3fp+0", "0x1.9b53d14aa9c2fp+1",
     "0x1.d733333333332p-1", 7),
    ("stadium:l=1,r=1", Model.DELTA_PRIME, 0.8, 0.01, "0x1.61264515197bbp-4",
     "0x1.9b53d14aa9c2fp+1", "0x1.d733333333332p-1", 7),
    ("stadium:l=1,r=1", Model.DELTA_PRIME, 0.8, 0.05, "0x1.138b41f3e1353p-3",
     "0x1.9b53d14aa9c2fp+1", "0x1.d733333333332p-1", 7),
]


@pytest.mark.parametrize("spec, model, alpha, h, bound, s, xi, depth", GOLDEN)
def test_sabine_gap_golden_values(spec, model, alpha, h, bound, s, xi, depth):
    report = bl.sabine_gap(BoundaryCurve.from_spec(spec), h, PotentialSpec(1.0, alpha), model)
    assert report.bound.hex() == bound
    assert (report.minimizer.s.hex(), report.minimizer.xi.hex()) == (s, xi)
    assert report.n_average == depth


@pytest.mark.parametrize("spec", ["circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1"])
@pytest.mark.parametrize("model, alpha", [(Model.DELTA, 0.0), (Model.DELTA_PRIME, 0.8)])
@pytest.mark.parametrize("grid, doubled", [((32, 32), (64, 64)), ((32, 17), (64, 32))])
def test_convergence_check_is_the_nested_grid(spec, model, alpha, grid, doubled):
    # the check grid doubles the s count and takes 2m - 1 of the m sampled xi
    # values, which is the sampled grid of the doubled call
    curve = BoundaryCurve.from_spec(spec)
    pot = PotentialSpec(1.0, alpha)
    report = bl.sabine_gap(curve, 0.05, pot, model, grid=grid)
    b, b2 = report.bound, bl.sabine_gap(curve, 0.05, pot, model, grid=doubled).bound
    assert report.converged == (abs(b2 - b) <= 0.01 * abs(b))


def test_escape_cap_from_an_orbit_off_the_sampled_grid(ellipse21):
    # the profile lives only near the landings of one orbit that starts on
    # an odd s index of the check grid: every sampled orbit escapes, the
    # check grid keeps a finite value, so the bound is the cap, not an error
    h, n_s, n_xi = 0.05, 64, 64
    L = ellipse21.total_length
    start = PhasePoint(11 * L / (2 * n_s), float(np.linspace(-0.95, 0.95, 2 * n_xi + 1)[40]))
    landings = np.array([seg.end.s for seg in bl.iterate(ellipse21, start, 8)])

    def profile(s):
        dist = np.abs((np.asarray(s, float)[..., None] - landings + 0.5 * L) % L - 0.5 * L)
        return np.where(dist.min(axis=-1) < 1e-6, 1.0, 0.0)

    report = bl.sabine_gap(ellipse21, h, PotentialSpec(1.0, 0.0, profile), Model.DELTA)
    assert report.capped and not report.converged
    assert report.bound == 10.0 * math.log(1.0 / h)


# worst relative gap between the folded bound and the full grid's over the
# cases below, measured: 0 (circle r = 1, ellipse 1:1), 2.9e-16 (r = 2.5),
# 9.8e-16 (2:1), 1.4e-12 (stadium 1, 1; its orbits and their s + L/2 images
# part by rounding over 8 bounces) and 1.7e-14 (stadium 0.3, 2).  The 5:1
# ellipse is left out: near its major axis xi grows about 98x a bounce, from
# 6.1e-16 to 5.5e-2 in 8, so its depth-8 values there are rounding noise that
# differs between an orbit and its image by far more than rounding
@pytest.mark.parametrize("spec, tol", [("circle:r=1", 0.0), ("circle:r=2.5", 1e-15),
                                       ("ellipse:a=2,b=1", 3e-15), ("ellipse:a=1,b=1", 0.0),
                                       ("stadium:l=1,r=1", 5e-12),
                                       ("stadium:l=0.3,r=2", 1e-13)])
def test_constant_fold_matches_full_grid(spec, tol):
    # a unit profile is not constant to sabine_gap, so it steps every grid point
    curve = BoundaryCurve.from_spec(spec)
    ones = lambda s: np.ones_like(np.asarray(s, float))
    for model, alpha in [(Model.DELTA, 0.0), (Model.DELTA, 0.5), (Model.DELTA_PRIME, 0.8)]:
        for h in (0.01, 0.1):
            for grid in [(64, 64), (32, 17), (17, 33), (20, 32)]:
                for n_average in (1, 8):
                    kwargs = dict(grid=grid, n_average=n_average)
                    a = bl.sabine_gap(curve, h, PotentialSpec(1.0, alpha), model, **kwargs)
                    b = bl.sabine_gap(curve, h, PotentialSpec(1.0, alpha, ones), model, **kwargs)
                    assert abs(a.bound - b.bound) <= tol * abs(b.bound)
                    assert (a.converged, a.capped) == (b.converged, b.capped)
                    assert a.orbits < b.orbits == 2 * grid[0] * (2 * (grid[1] | 1) - 1)


def orbit_case(spec, varying, orbits, grid=(64, 64)):
    # the default grid adds nothing to a case's id
    label = f"{spec}-{varying}-{orbits}"
    if grid != (64, 64):
        label += f"-{grid[0]}:{grid[1]}"
    return pytest.param(spec, varying, orbits, grid, id=label)


@pytest.mark.parametrize("spec, varying, orbits, grid", [
    orbit_case("circle:r=1", False, 65), orbit_case("ellipse:a=2,b=1", False, 4_129),
    orbit_case("stadium:l=1,r=1", False, 8_256),
    orbit_case(f"stadium:l={math.pi / 2!r},r=1", False, 4_129),
    orbit_case("ellipse:a=2,b=1", True, 16_512),
    orbit_case("circle:r=1", False, 65, (512, 64)),
    orbit_case("ellipse:a=2,b=1", False, 16_513, (256, 64)),
    orbit_case("stadium:l=1,r=1", False, 66_048, (512, 64))])
def test_orbits_stepped_per_depth(monkeypatch, spec, varying, orbits, grid):
    # one orbit per symmetry class of the 2 n_s x 129 check grid (128 x 129
    # by default): the circle's rotations and reflections leave one per
    # |xi|, the ellipse's half turn and axis reflections four per class, the
    # stadium's half turn two (its arclength origin puts no grid node on an
    # axis unless pi rho is a whole number of grid steps, as at l = pi/2,
    # rho = 1); a varying profile steps every grid point.  The fine grids
    # fold alike: a map tolerance set by the edge length, not by the
    # coordinates, falls below rounding there and steps all 132,096, 66,048
    # and 132,096 points
    steps = []

    def counted(curve, frame, xi, _step=bl._step):
        steps.append(np.size(xi))
        return _step(curve, frame, xi)

    monkeypatch.setattr(bl, "_step", counted)
    curve = BoundaryCurve.from_spec(spec)
    profile = (lambda s: 1.0 + 0.5 * np.cos(np.asarray(s))) if varying else None
    report = bl.sabine_gap(curve, 0.05, PotentialSpec(1.0, 0.0, profile), Model.DELTA,
                           grid=grid)
    assert steps == [orbits] * 8
    assert report.orbits == orbits


@pytest.mark.parametrize("grid, sampled", [((16, 16), (16, 17)), ((16, 17), (16, 17)),
                                           ((20, 32), (20, 33))])
def test_sabine_report_records_sampled_grid(unit_circle, grid, sampled):
    report = bl.sabine_gap(unit_circle, 0.1, POT1, Model.DELTA, grid=grid, n_average=2)
    assert report.grid == sampled


def test_sabine_gap_rotation_invariance(unit_circle):
    # rotating a non-constant profile by a whole grid cell leaves the bound
    # unchanged on the rotationally symmetric circle
    n_s = 32
    shift = unit_circle.total_length / n_s

    def prof(s):
        return 1.0 + 0.5 * np.sin(np.asarray(s))

    def prof_shifted(s):
        return 1.0 + 0.5 * np.sin(np.asarray(s) - shift)

    kwargs = dict(delta1=0.05, n_average=4, grid=(n_s, 17))
    a = bl.sabine_gap(unit_circle, 0.05, PotentialSpec(1.0, 0.0, prof),
                      Model.DELTA, **kwargs)
    b = bl.sabine_gap(unit_circle, 0.05, PotentialSpec(1.0, 0.0, prof_shifted),
                      Model.DELTA, **kwargs)
    assert abs(a.bound - b.bound) < 1e-12


def test_sabine_gap_grid_validation(unit_circle):
    with pytest.raises(ValueError):
        bl.sabine_gap(unit_circle, 0.1, POT1, Model.DELTA, grid=(8, 8))
    with pytest.raises(ValueError):
        bl.sabine_gap(unit_circle, 0.1, POT1, Model.DELTA, delta1=1.5)
    # grid counts are integers, or linspace fails after the checks
    for grid in [(20.5, 20), (20, 20.5), (64.0, 64)]:
        with pytest.raises(ValueError, match="grid"):
            bl.sabine_gap(unit_circle, 0.1, POT1, Model.DELTA, grid=grid)
    # a nan factor would report bound nan as capped, where the default
    # factor raises AllOrbitsEscapeError
    for factor in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="escape_cap_factor"):
            bl.sabine_gap(unit_circle, 0.1, POT1, Model.DELTA, escape_cap_factor=factor)


def test_sabine_gap_rejects_empty_average(unit_circle):
    # no orbit length N >= 1 to take the supremum over: the bound would be -inf
    for n_average in (0, -1, 2.5):
        with pytest.raises(ValueError, match="n_average"):
            bl.sabine_gap(unit_circle, 0.1, POT1, Model.DELTA, n_average=n_average)


@pytest.mark.parametrize("h", [0.0, 1.0, 2.0, -0.1, 1.5, math.nan])
@pytest.mark.parametrize("entry", ["sabine_gap", "SearchWindow", "mode_sweep",
                                   "sabine_diameter_bound", "refine"])
def test_library_rejects_h_outside_unit_interval(unit_circle, entry, h):
    # h = 0 would divide by zero in all five, and h >= 1 makes log(1/h) <= 0
    calls = {
        "sabine_gap": lambda: bl.sabine_gap(unit_circle, h, POT1, Model.DELTA),
        "SearchWindow": lambda: SearchWindow(re_range=(0.9, 1.1), im_range=(-0.2, -0.02),
                                             coarse_grid=(5, 4), h=h, quad_n=64),
        "mode_sweep": lambda: mode_sweep(h, POT1, Model.DELTA, 0, window=(0.9, 1.1)),
        "sabine_diameter_bound": lambda: bl.sabine_diameter_bound(unit_circle, h, POT1),
        "refine": lambda: refine(1 - 0.1j, unit_circle, POT1, h, 64),
    }
    with pytest.raises(ValueError, match=r"^h must lie in \(0, 1\)"):
        calls[entry]()


def test_sabine_gap_warns_for_large_alpha(unit_circle):
    with pytest.warns(UserWarning):
        bl.sabine_gap(unit_circle, 0.1, PotentialSpec(V0=1.0, alpha=0.7),
                      Model.DELTA, grid=(16, 16), n_average=2)


def test_sabine_gap_stadium_flagged(stadium11):
    report = bl.sabine_gap(stadium11, 0.1, POT1, Model.DELTA,
                           grid=(32, 17), n_average=4)
    assert not report.within_theory
    assert "outside-theorem" in report.notes


def test_diameter_bound_circle(unit_circle):
    bound = bl.sabine_diameter_bound(unit_circle, 0.01, POT1)
    assert abs(bound - 0.5 * (math.log(100) + math.log(2))) < 1e-12


def test_diameter_bound_ellipse(ellipse21):
    bound = bl.sabine_diameter_bound(ellipse21, 0.01, POT1)
    assert abs(bound - 0.25 * (math.log(100) + math.log(2))) < 1e-12


def test_diameter_bound_agrees_with_gap(unit_circle):
    gap = bl.sabine_gap(unit_circle, 0.01, POT1, Model.DELTA).bound
    diam = bl.sabine_diameter_bound(unit_circle, 0.01, POT1)
    assert abs(gap - diam) <= 1e-3 * diam
    assert abs(diam - 2.64916) < 5e-4


@pytest.mark.parametrize("spec", ["circle:r=1", "ellipse:a=1,b=1"])
@pytest.mark.parametrize("profile", [
    lambda s, L: 1.0 + 0.5 * np.cos(2.0 * np.pi * s / L),
    lambda s, L: np.sin(2.0 * np.pi * s / L) ** 2,
], ids=["1+cos/2", "sin^2"])
def test_diameter_bound_takes_every_antipodal_chord_of_a_round_curve(spec, profile):
    # every antipodal chord is a diameter; the sup of v(s) v(s + L/2) is 1, at
    # s = L/4 for both profiles (the chord from s = 0 gives 0.75 and 0)
    curve = BoundaryCurve.from_spec(spec)
    L = curve.total_length
    pot = PotentialSpec(V0=1.0, alpha=0.0, profile=lambda s: profile(np.asarray(s), L))
    bound = bl.sabine_diameter_bound(curve, 0.05, pot)
    assert abs(bound - 0.5 * (math.log(20.0) + math.log(2.0))) < 1e-12


def test_diameter_bound_requires_support(unit_circle):
    dead = PotentialSpec(V0=1.0, alpha=0.0,
                         profile=lambda s: np.zeros_like(np.asarray(s, float)))
    with pytest.raises(NoValidDiameterPairError):
        bl.sabine_diameter_bound(unit_circle, 0.01, dead)
    with pytest.raises(ValueError):
        bl.sabine_diameter_bound(unit_circle, 0.01, PotentialSpec(V0=1.0, alpha=1.2))


def test_all_orbits_escape(unit_circle):
    dead = PotentialSpec(V0=1.0, alpha=0.0,
                         profile=lambda s: np.zeros_like(np.asarray(s, float)))
    with pytest.raises(bl.AllOrbitsEscapeError):
        bl.sabine_gap(unit_circle, 0.1, dead, Model.DELTA,
                      grid=(16, 16), n_average=2)


@pytest.mark.parametrize("field, V0, alpha", [
    ("V0", math.nan, 0.0), ("V0", math.inf, 0.0), ("V0", 0.0, 0.0), ("V0", -1.0, 0.0),
    ("alpha", 1.0, math.nan), ("alpha", 1.0, math.inf), ("alpha", 1.0, -math.inf),
])
def test_potential_rejects_nonfinite_or_nonpositive(field, V0, alpha):
    with pytest.raises(ValueError, match=f"^{field} must"):
        PotentialSpec(V0=V0, alpha=alpha)


def test_potential_symbol_scaling():
    pot = PotentialSpec(V0=2.0, alpha=0.5)
    h = 0.04
    assert pot.symbol(0.0, h, Model.DELTA) == pytest.approx(2.0 * h**-0.5)
    assert pot.symbol(0.0, h, Model.DELTA_PRIME) == pytest.approx(2.0 * h**0.5)
