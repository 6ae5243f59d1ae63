"""Per-mode transcendental resonances on the unit disk."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from sabine_lab import disk_oracle as do
from sabine_lab.billiards import Model, PotentialSpec
from sabine_lab.errors import (NewtonConditionError, NewtonConvergenceError, SabineLabError,
                               WindowMissError)

mp.mp.dps = 40
POT1 = PotentialSpec(V0=1.0, alpha=0.0)


def mp_mode_function(n, h, pot, model, z):
    """The mode equation's F at z in extended precision (mpmath)."""
    h = mp.mpf(repr(h))
    z = mp.mpc(z)
    lam = z / h
    if model is Model.DELTA:
        return 1 - (mp.pi * h ** (-pot.alpha) * pot.V0 / (2j)) * \
            mp.besselj(n, lam) * mp.hankel1(n, lam)
    if n == 0:
        jp = -mp.besselj(1, lam)
        hp = -mp.hankel1(1, lam)
    else:
        jp = (mp.besselj(n - 1, lam) - mp.besselj(n + 1, lam)) / 2
        hp = (mp.hankel1(n - 1, lam) - mp.hankel1(n + 1, lam)) / 2
    return 1 + (mp.pi * z * z * h ** (pot.alpha - 2) * pot.V0 / (2j)) * jp * hp


def independent_residual(candidate, pot):
    """Re-evaluate the mode equation with the extended-precision oracle."""
    prov = candidate.provenance
    return float(abs(mp_mode_function(prov.n, candidate.h, pot, prov.model, candidate.z)))


def count_bessel_quad(monkeypatch):
    """Monkeypatch specfun.bessel_quad with a call counter; returns the count."""
    calls = [0]
    original = do.specfun.bessel_quad

    def counted(n, z):
        calls[0] += 1
        return original(n, z)

    monkeypatch.setattr(do.specfun, "bessel_quad", counted)
    return calls


# ---------------------------------------------------------------------------
# newton_contract
# ---------------------------------------------------------------------------

def test_newton_contract_quadratic():
    res = do.newton_contract(lambda z: (z * z - 1, 2 * z, 2.0),
                             1.05 + 0j, 0.1, a=abs(1.05**2 - 1), b=2.0, d=2.0)
    assert abs(res.root - 1.0) < 1e-12
    assert res.contraction < 1.0


def test_newton_contract_exponential():
    res = do.newton_contract(lambda z: (np.exp(z) - 1, np.exp(z), np.exp(z)),
                             0.05 + 0j, 0.1,
                             a=abs(np.exp(0.05) - 1), b=np.exp(-0.05), d=np.exp(0.15))
    assert abs(res.root) < 1e-12


def test_newton_contract_condition_guard():
    with pytest.raises(NewtonConditionError):
        do.newton_contract(lambda z: (z, 1.0, 0.0), 0j, 0.1, a=5.0, b=1.0, d=1.0)


def test_newton_leaving_its_cell_raises():
    # the roots of sin are pi apart, so eps0 = pi/4 makes the cell |z - z0| <= pi;
    # from 1.4 the first Newton step jumps by tan(1.4) = 5.8 toward another root
    def sine(z):
        return cmath.sin(z), cmath.cos(z), -cmath.sin(z)

    with pytest.raises(NewtonConvergenceError, match="lattice cell"):
        do._certified_solve(sine, 1.4 + 0j, eps0=math.pi / 4)
    assert abs(do._certified_solve(sine, 0.3 + 0j, eps0=math.pi / 4).root) < 1e-15


# ---------------------------------------------------------------------------
# mode equations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, alpha", [(Model.DELTA, 0.0), (Model.DELTA_PRIME, 0.9)])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_mode_equation_derivatives_match_mpmath(model, alpha, n, monkeypatch):
    # F, F' and F'' from one Bessel evaluation and the Bessel ODE against
    # 40-digit numerical differentiation of the mode equation
    h = 0.1
    pot = PotentialSpec(V0=1.0, alpha=alpha)
    f = do.mode_equation(n, h, pot, model)
    calls = count_bessel_quad(monkeypatch)
    for i, z in enumerate((0.93 - 0.06j, 1.21 - 0.15j)):
        values = f(z)
        assert calls[0] == i + 1
        for k, value in enumerate(values):
            ref = complex(mp.diff(lambda w: mp_mode_function(n, h, pot, model, w), z, k))
            assert abs(value - ref) <= 1e-10 * abs(ref), (k, z, value, ref)


def test_single_root_bessel_work(monkeypatch):
    # exact work counts, which unlike wall-clock budgets do not depend on
    # host load: Newton, then 8 second-derivative samples and 2 evaluations
    # for the certificate
    calls = count_bessel_quad(monkeypatch)
    do.delta_resonance(0, 6, 0.05, POT1)
    assert calls[0] <= 15
    calls[0] = 0
    do.delta_prime_resonance(0, 32, 0.01, PotentialSpec(V0=1.0, alpha=0.9))
    assert calls[0] <= 15


@pytest.mark.parametrize("n, root", [(172, 0.904261736747844 - 0.037718081591802j),
                                     (190, 0.995882526097658 - 0.039396458225169j),
                                     (210, 1.097574643032375 - 0.041156168413443j)])
def test_far_guess_within_one_lattice_cell(n, root):
    # these k = 0 guesses sit 2.3-2.8 eps0 from their roots, inside the
    # one-spacing reach of the Newton solve
    assert abs(do.delta_resonance(n, 0, 0.005, POT1).z - root) < 1e-12


# ---------------------------------------------------------------------------
# delta model
# ---------------------------------------------------------------------------

def test_delta_resonance_reference_mode():
    cand = do.delta_resonance(0, 6, 0.05, POT1)
    target = 0.05 / 2 * (math.log(1 / 0.05) + math.log(2))
    assert abs(-cand.z.imag - target) <= 3 * 0.05**1.75
    assert cand.z.imag < 0
    assert cand.residual < 1e-10
    assert independent_residual(cand, POT1) < 1e-9
    # the root parks a quarter lattice spacing right of its anchor near 0.98
    assert 0.95 < cand.z.real < 1.06


def test_delta_law_small_h():
    for h, k in ((0.05, 6), (0.02, 16), (0.01, 32)):
        cand = do.delta_resonance(0, k, h, POT1)
        target = h / 2 * (math.log(1 / h) + math.log(2))
        assert abs(-cand.z.imag - target) <= 3 * h**1.75


def test_delta_root_locally_unique(rng):
    h = 0.05
    base = do.delta_resonance(0, 6, h, POT1).z
    f = do.mode_equation(0, h, POT1, Model.DELTA)
    for _ in range(8):
        angle = rng.uniform(0, 2 * math.pi)
        start = base + (h / 100) * complex(math.cos(angle), math.sin(angle))
        res = do._certified_solve(f, start, eps0=math.pi * h / 4)
        assert abs(res.root - base) < 1e-10


def test_delta_alpha_guard():
    with pytest.raises(ValueError):
        do.delta_resonance(0, 6, 0.05, PotentialSpec(V0=1.0, alpha=1.0))
    with pytest.raises(ValueError):
        do.delta_resonance(0, 6, 0.05,
                           PotentialSpec(V0=1.0, alpha=0.0, profile=lambda s: 1 + 0 * s))


def test_window_miss():
    with pytest.raises(WindowMissError):
        do.delta_resonance(0, 6, 0.05, POT1, window=(1.3, 1.5))


# ---------------------------------------------------------------------------
# delta-prime model
# ---------------------------------------------------------------------------

def test_delta_prime_reference_mode():
    pot = PotentialSpec(V0=1.0, alpha=0.9)
    cand = do.delta_prime_resonance(0, 32, 0.01, pot)
    assert cand.z.imag < 0
    assert cand.residual < 1e-10
    assert independent_residual(cand, pot) < 1e-9


def test_delta_prime_rate_approaches_inverse_square_amplitude():
    # -Im z / h^{3-2a} climbs monotonically toward 1/V0^2 = 1; at alpha = 0.8
    # it is within 30% by h = 0.005 (at alpha = 0.9 the o(1) term decays like
    # h^{0.2} and the 30% band is not reached at desk-scale h)
    for alpha, within_30pct in ((0.8, True), (0.9, False)):
        pot = PotentialSpec(V0=1.0, alpha=alpha)
        ratios = []
        for h in (0.02, 0.01, 0.005):
            k = round((4 / (math.pi * h) - 1) / 4)
            cand = do.delta_prime_resonance(0, k, h, pot)
            ratios.append(-cand.z.imag / h ** (3 - 2 * alpha))
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        assert (0.7 <= ratios[2] <= 1.3) == within_30pct


def test_delta_prime_alpha_guard():
    with pytest.raises(ValueError):
        do.delta_prime_resonance(0, 16, 0.02, PotentialSpec(V0=1.0, alpha=0.4))


@pytest.mark.parametrize("model, alpha", [(Model.DELTA, 1.0), (Model.DELTA, 1.2),
                                          (Model.DELTA_PRIME, 0.5), (Model.DELTA_PRIME, 0.3)])
def test_mode_sweep_checks_the_alpha_range(model, alpha):
    # the sweep holds each model to the range its per-mode solvers require,
    # before it tries a single mode
    with pytest.raises(ValueError, match="^alpha must"):
        do.mode_sweep(0.05, PotentialSpec(V0=1.0, alpha=alpha), model, 1, window=(0.9, 1.1))


@pytest.mark.parametrize("window, h", [((0.5, math.inf), 0.1), ((math.nan, 1.0), 0.1),
                                       ((-math.inf, 1.0), 0.1), ((0.9, 1e308), 0.1),
                                       ((0.5, 1.5), 1e-310)])
def test_mode_sweep_rejects_a_window_not_finite_in_lambda(window, h):
    # a non-finite window, or a finite one whose top frequency (hi + 2 pi h)/h
    # overflows, would enumerate modes up to an infinite phase
    with pytest.raises(ValueError, match="finite"):
        do.mode_sweep(h, POT1, Model.DELTA, 2, window=window)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_mode_sweep_single_candidate_window():
    out = do.mode_sweep(0.05, POT1, Model.DELTA, 0, window=(0.9, 1.1))
    assert len(out) == 1
    prov = out[0].provenance
    assert (prov.n, prov.k) == (0, 6)


def test_mode_sweep_empty_window():
    assert do.mode_sweep(0.05, POT1, Model.DELTA, 3, window=(1.1, 1.1)) == []


def test_mode_sweep_sorted_and_deduplicated():
    out = do.mode_sweep(0.1, POT1, Model.DELTA, 9, window=(0.9, 1.1))
    res = [c.z.real for c in out]
    assert res == sorted(res)
    for a, b in zip(out, out[1:]):
        assert abs(a.z - b.z) >= 1e-8
    # ground-truth family set for this window (independent dense-scan oracle)
    assert [c.provenance.n for c in out] == [1, 7, 4, 2, 0]


def test_mode_sweep_n10_family_respects_diameter_bound():
    from sabine_lab.billiards import sabine_diameter_bound
    from sabine_lab.geometry import BoundaryCurve
    h = 0.02
    out = do.mode_sweep(h, POT1, Model.DELTA, 10, window=(0.9, 1.1))
    tens = [c for c in out if c.provenance.n == 10]
    assert tens
    line = sabine_diameter_bound(BoundaryCurve.circle(1.0), h, POT1)
    for c in tens:
        assert -c.z.imag / h <= line + 0.1


@pytest.mark.parametrize("model, alpha", [(Model.DELTA, 0.0), (Model.DELTA_PRIME, 0.9)])
def test_sweep_roots_carry_their_certificate(model, alpha):
    out = do.mode_sweep(0.02, PotentialSpec(V0=1.0, alpha=alpha), model, 40, window=(0.9, 1.1))
    assert len(out) > 20
    for c in out:
        assert 0.0 < c.provenance.contraction < 1.0
        assert c.provenance.iterations >= 1


def test_mode_sweep_collects_failures_quietly(caplog):
    # near-glancing modes are skipped with a warning, never fatally
    out = do.mode_sweep(0.1, POT1, Model.DELTA, 12, window=(0.9, 1.1))
    assert [c.provenance.n for c in out] == [1, 7, 4, 2, 0]
