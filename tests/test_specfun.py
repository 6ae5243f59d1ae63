"""Bessel/Hankel evaluator: identity suite and independent series oracle."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sabine_lab import specfun
from sabine_lab.errors import RecurrenceBudgetError, RegionError, ZeroArgumentError

mp.mp.dps = 40


def series_oracle_j(n, z, terms=30):
    """Independent power-series oracle in extended precision."""
    z = mp.mpc(z)
    total = mp.mpc(0)
    for m in range(terms):
        total += (-z * z / 4) ** m / (mp.factorial(m) * mp.factorial(m + n))
    return complex((z / 2) ** n * total)


def sample_argument(rng, im_band=5.0):
    re = float(np.exp(rng.uniform(np.log(0.05), np.log(2000.0))))
    im = float(rng.uniform(-im_band, im_band))
    return complex(re, im)


def test_j0_at_zero_and_one():
    assert specfun.bessel_j(0, 0) == 1.0
    assert specfun.bessel_j(1, 0) == 0.0
    oracle = series_oracle_j(0, 1.0)
    assert abs(specfun.bessel_j(0, 1.0) - oracle) < 1e-14
    assert abs(oracle.real - 0.76519768655796655) < 1e-15


def test_series_oracle_agreement_moderate_arguments(rng):
    for _ in range(40):
        z = complex(rng.uniform(0.1, 13.0), rng.uniform(-5, 5))
        n = int(rng.integers(0, 8))
        mine = specfun.bessel_j(n, z)
        oracle = series_oracle_j(n, z, terms=60)
        assert abs(mine - oracle) <= 1e-12 * max(abs(oracle), 1e-30)


def test_wronskian_identity_sampled(rng):
    worst = 0.0
    for _ in range(300):
        z = sample_argument(rng)
        n = int(rng.integers(0, min(100, int(2 * abs(z)) + 60) + 1))
        ev = specfun.bessel_quad(n, z)
        target = 2j / (math.pi * z)
        worst = max(worst, abs(ev.wronskian() - target) / abs(target))
    assert worst < 1e-10


def test_wronskian_named_point():
    ev = specfun.bessel_quad(3, 2 + 1j)
    target = 2j / (math.pi * (2 + 1j))
    assert abs(ev.wronskian() - target) < 1e-10 * abs(target)


def test_three_term_recurrence(rng):
    z = 10 + 0.5j
    row = specfun.bessel_row(7, z)
    n = 5
    lhs = row[n - 1].J + row[n + 1].J
    rhs = (2 * n / z) * row[n].J
    scale = max(abs(row[n - 1].J), abs(row[n].J), abs(row[n + 1].J))
    assert abs(lhs - rhs) <= 1e-10 * scale
    for _ in range(60):
        z = sample_argument(rng)
        nmax = int(rng.integers(2, 40))
        row = specfun.bessel_row(nmax, z)
        n = int(rng.integers(1, nmax))
        for attr in ("J", "H1"):
            vals = [getattr(row[m], attr) for m in (n - 1, n, n + 1)]
            resid = abs(vals[0] + vals[2] - (2 * n / z) * vals[1])
            assert resid <= 1e-10 * max(abs(v) for v in vals)


def test_derivative_identities(rng):
    assert abs(specfun.bessel_j_deriv(0, 2 + 1j) + specfun.bessel_j(1, 2 + 1j)) < 1e-12
    for _ in range(40):
        z = sample_argument(rng)
        nmax = int(rng.integers(1, 30))
        row = specfun.bessel_row(nmax, z)
        for n in range(1, nmax):
            jd = 0.5 * (row[n - 1].J - row[n + 1].J)
            hd = 0.5 * (row[n - 1].H1 - row[n + 1].H1)
            assert abs(row[n].Jp - jd) <= 1e-12 * max(1e-300, abs(jd))
            assert abs(row[n].H1p - hd) <= 1e-12 * max(1e-300, abs(hd))


@settings(max_examples=60, deadline=None)
@given(re=st.floats(0.1, 1500.0), im=st.floats(-4.0, 4.0), n=st.integers(0, 25))
def test_conjugation_symmetry(re, im, n):
    z = complex(re, im)
    a = specfun.bessel_j(n, np.conj(z))
    b = np.conj(specfun.bessel_j(n, z))
    assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300)


def test_row_wronskian_z50_n120():
    row = specfun.bessel_row(120, 50.0 + 0j)
    target = 2j / (math.pi * 50.0)
    for ev in row:
        assert abs(ev.wronskian() - target) <= 1e-9 * abs(target)


def test_row_consistent_with_pointwise():
    z = 37.5 - 2.0j
    row = specfun.bessel_row(24, z)
    for n in (0, 7, 24):
        jn = specfun.bessel_j(n, z)
        hn = specfun.hankel1(n, z)
        assert abs(row[n].J - jn) <= 1e-12 * max(abs(jn), 1e-300)
        assert abs(row[n].H1 - hn) <= 1e-12 * max(abs(hn), 1e-300)


def test_product_asymptotic_structure():
    # leading large-argument form of J0*H0 at z = 100
    val = specfun.bessel_j(0, 100.0) * specfun.hankel1(0, 100.0)
    pred = (1.0 / (100.0 * math.pi)) * (cmath.exp(1j * (200.0 - math.pi / 2)) + 1.0)
    assert abs(val - pred) < 2e-5


def test_product_asymptotic_residual_decays():
    # residual against the leading form must decay at least as fast as the
    # O(1/|z|) error bound (it is in fact ~ 1/z^2 on the real axis)
    zs = [30.0, 60.0, 120.0, 240.0, 480.0, 960.0]
    resid = []
    for z in zs:
        val = specfun.bessel_j(1, z) * specfun.hankel1(1, z)
        pred = (1.0 / (math.pi * z)) * (cmath.exp(1j * (2 * z - math.pi - math.pi / 2)) + 1.0)
        resid.append(abs(val - pred))
    slope = np.polyfit(np.log(zs), np.log(resid), 1)[0]
    assert slope < -0.9
    assert max(r * z for r, z in zip(resid, zs)) < 0.01


def test_hankel_against_mpmath(rng):
    for _ in range(25):
        z = sample_argument(rng)
        n = int(rng.integers(0, 20))
        mine = specfun.hankel1(n, z)
        ref = complex(mp.hankel1(n, mp.mpc(z)))
        assert abs(mine - ref) <= 1e-10 * abs(ref)
        # the quadruple, derivatives included, against an independent reference
        ev = specfun.bessel_quad(n, z)
        zm = mp.mpc(z)
        for deriv, j_val, h_val in ((0, ev.J, ev.H1), (1, ev.Jp, ev.H1p)):
            j_ref = complex(mp.besselj(n, zm, derivative=deriv))
            h_ref = j_ref + 1j * complex(mp.bessely(n, zm, derivative=deriv))
            assert abs(j_val - j_ref) <= 1e-10 * abs(j_ref)
            assert abs(h_val - h_ref) <= 1e-10 * abs(h_ref)


def test_region_and_budget_errors():
    with pytest.raises(RegionError):
        specfun.bessel_j(0, -1.0 + 0j)
    with pytest.raises(RegionError):
        specfun.bessel_j(0, 100 + 80j)
    with pytest.raises(ZeroArgumentError):
        specfun.hankel1(0, 0)
    with pytest.raises(RecurrenceBudgetError):
        specfun.bessel_row(500, 2.0 + 0j)


def test_row_budget_overflow_is_reported():
    # legal order budget but H leaves double range
    with pytest.raises(RecurrenceBudgetError):
        specfun.bessel_row(204, 1.0 + 0j)


def test_vectorized_order0_matches_scalar():
    w = np.array([0.05 + 0.01j, 2.0 - 0.4j, 11.5 + 0j, 12.5 - 1j,
                  45.0 + 3j, 200.0 + 0j, 1600.0 + 0j])
    j0, h0 = specfun.j0_h0_arrays(w)
    for i, wi in enumerate(w):
        assert abs(j0[i] - specfun.bessel_j(0, wi)) < 5e-12
        ref = specfun.hankel1(0, wi)
        assert abs(h0[i] - ref) < 5e-12 * max(1.0, abs(ref))
