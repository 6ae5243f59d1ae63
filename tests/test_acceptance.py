"""Acceptance criteria, one test per numbered criterion.

Each test prints a single pass/fail line (run with -s to see them live) and
asserts the criterion at its stated tolerance, including the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from sabine_lab import bie, billiards, cli, specfun
from sabine_lab import disk_oracle as do
from sabine_lab import resonance_search as rs
from sabine_lab.billiards import Model, PhasePoint, PotentialSpec
from sabine_lab.geometry import BoundaryCurve

POT1 = PotentialSpec(V0=1.0, alpha=0.0)


def check(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_delta_asymptotic_law():
    t0 = time.perf_counter()
    errs = []
    for h, k in ((0.05, 6), (0.02, 16), (0.01, 32)):
        cand = do.mode_resonance(0, k, h, POT1, Model.DELTA)
        target = 0.5 * h * (math.log(1.0 / h) + math.log(2.0))
        errs.append((h, abs(-cand.z.imag - target), 3.0 * h**1.75))
    ok = all(err <= tol for _, err, tol in errs)
    detail = "; ".join(f"h={h}: |dIm|={err:.2e} <= {tol:.2e}" for h, err, tol in errs)
    check(1, ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_2_delta_prime_asymptotic_law():
    # The two-term delta-prime n = 0 law of mode_resonance, to its O(h^2) remainder.
    # Its ratio to the limit h^(3-2a)/V0^2 is about log(1+y)/y with
    # y = 4 h^0.2 at a = 0.9: below 0.7 at every h the Bessel region admits.
    t0 = time.perf_counter()
    pot = PotentialSpec(V0=1.0, alpha=0.9)
    rows = []
    for h in (0.02, 0.01, 0.005):
        k = round((4.0 / (math.pi * h) - 1.0) / 4.0)
        cand = do.mode_resonance(0, k, h, pot, Model.DELTA_PRIME)
        decay = -cand.z.imag
        y = 4.0 * h ** (2.0 - 2.0 * pot.alpha) / (pot.V0 * cand.z.real) ** 2
        law = 0.25 * h * math.log1p(y)
        rows.append((h, law, abs(decay - law), decay / h ** (3.0 - 2.0 * pot.alpha)))
    on_law = all(err <= h * h for h, _, err, _ in rows)
    ratios = [r for *_, r in rows]
    monotone_to_one = ratios[0] < ratios[1] < ratios[2] < 1.0
    detail = ("; ".join(f"h={h}: T={law:.4e}, |dIm|={err:.2e} <= {h * h:.1e}, ratio={r:.4f}"
                        for h, law, err, r in rows)
              + f"; monotone-to-1={monotone_to_one}")
    check(2, on_law and monotone_to_one, detail, time.perf_counter() - t0, 5.0)


def test_criterion_3_sabine_sharpness_on_disk():
    t0 = time.perf_counter()
    circle = BoundaryCurve.circle(1.0)
    h = 0.01
    gap = billiards.sabine_gap(circle, h, POT1, Model.DELTA).bound
    diam = billiards.sabine_diameter_bound(circle, h, POT1)
    agree = abs(gap - diam) <= 1e-3 * diam
    near_2649 = abs(gap - 2.649) < 0.01 and abs(diam - 2.649) < 0.01
    cands = do.mode_sweep(h, POT1, Model.DELTA, 0, window=(0.95, 1.05))
    closest = all(abs(-c.z.imag / h - gap) <= 0.05 for c in cands)
    ok = agree and near_2649 and bool(cands) and closest
    detail = (f"gap={gap:.5f}, diameter={diam:.5f}, rel diff={abs(gap - diam) / diam:.2e}; "
              f"{len(cands)} oracle roots within 0.05 of bound: {closest}")
    check(3, ok, detail, time.perf_counter() - t0, 10.0)


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_criterion_4_operator_norm_exponent():
    t0 = time.perf_counter()
    circle = BoundaryCurve.circle(1.0)
    lams = [50.0, 100.0, 200.0, 400.0, 800.0]
    norms = []
    for lam in lams:
        n_nodes = int(min(1024, max(256, 2 ** math.ceil(math.log2(5.12 * lam)))))
        grid = bie.NystromGrid.build(circle, n_nodes)
        norms.append(bie.operator_norm(bie.assemble_single_layer(grid, lam)))
    slope = float(np.polyfit(np.log(lams), np.log(norms), 1)[0])
    ok = -0.73 <= slope <= -0.60
    check(4, ok, f"slope={slope:.4f} in [-0.73, -0.60]", time.perf_counter() - t0, 60.0)


def test_criterion_5_oracle_bie_equivalence(monkeypatch):
    t0 = time.perf_counter()
    # the work is counted exactly, as in criterion 6
    evals = []
    sigma_min = rs.sigma_min_boundary_operator
    monkeypatch.setattr(rs, "sigma_min_boundary_operator",
                        lambda *a: evals.append(a) or sigma_min(*a))
    circle = BoundaryCurve.circle(1.0)
    h = 0.1
    oracle = do.mode_sweep(h, POT1, Model.DELTA, 8, window=(0.9, 1.1))
    window = rs.SearchWindow(re_range=(0.9, 1.1), im_range=(-0.25, -0.05),
                             coarse_grid=(41, 15), h=h, quad_n=256)
    found = rs.find_resonances(window, circle, POT1, compute_margins=False)
    matches = [min(abs(o.z - f.z) for f in found) if found else math.inf
               for o in oracle]
    recovered = all(m < 5e-3 for m in matches)
    spurious = [f for f in found
                if min(abs(o.z - f.z) for o in oracle) >= 5e-3]
    ok = recovered and not spurious and len(found) == len(oracle)
    ok = ok and (len(evals), len(found)) == (1843, 5)
    detail = (f"{len(oracle)} oracle roots, {len(found)} search hits (5 expected) "
              f"from {len(evals)} sigma_min evaluations (1843 expected), "
              f"worst match {max(matches):.2e}, spurious {len(spurious)}")
    check(5, ok, detail, time.perf_counter() - t0, 300.0)


def test_criterion_6_sabine_gate_on_ellipse(monkeypatch):
    t0 = time.perf_counter()
    # the work is counted exactly, so the check does not rest on the
    # wall-clock budget alone, which depends on the host's load
    evals = []
    sigma_min = rs.sigma_min_boundary_operator
    monkeypatch.setattr(rs, "sigma_min_boundary_operator",
                        lambda *a: evals.append(a) or sigma_min(*a))
    ellipse = BoundaryCurve.ellipse(2.0, 1.0)
    h = 0.1
    gap = billiards.sabine_gap(ellipse, h, POT1, Model.DELTA).bound
    window = rs.SearchWindow(re_range=(0.9, 1.1), im_range=(-0.30, -0.06),
                             coarse_grid=(41, 17), h=h, quad_n=256)
    found = rs.find_resonances(window, ellipse, POT1, compute_margins=False)
    rates = [-c.z.imag / h for c in found]
    ok = bool(found) and all(r >= gap - 0.1 for r in rates)
    ok = ok and (len(evals), len(found)) == (2310, 14)
    detail = (f"gap={gap:.4f}; {len(found)} candidates (14 expected) from "
              f"{len(evals)} sigma_min evaluations (2310 expected), "
              f"shallowest -Im z/h = {min(rates) if rates else math.nan:.4f} "
              f">= {gap - 0.1:.4f}")
    check(6, ok, detail, time.perf_counter() - t0, 600.0)


def test_criterion_7_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst_w = 0.0
    worst_rec = 0.0
    worst_der = 0.0
    for _ in range(1000):
        re = float(np.exp(rng.uniform(np.log(0.05), np.log(2000.0))))
        z = complex(re, float(rng.uniform(-5.0, 5.0)))
        n = int(rng.integers(0, min(100, int(2 * abs(z)) + 60) + 1))
        m = max(n, 1)
        row = {k: specfun.bessel_quad(k, z) for k in {n, m - 1, m, m + 1}}
        target = 2j / (math.pi * z)
        worst_w = max(worst_w, abs(row[n].wronskian() - target) / abs(target))
        scale = max(abs(row[m - 1].J), abs(row[m].J), abs(row[m + 1].J))
        rec = abs(row[m - 1].J + row[m + 1].J - (2 * m / z) * row[m].J)
        worst_rec = max(worst_rec, rec / scale)
        der = abs(row[m].Jp - 0.5 * (row[m - 1].J - row[m + 1].J))
        worst_der = max(worst_der, der / max(abs(row[m].Jp), 1e-300))
    circle = BoundaryCurve.circle(1.0)
    grid = bie.NystromGrid.build(circle, 128)
    mat = bie.assemble_single_layer(grid, 10.0)
    t = 2 * np.pi * np.arange(128) / 128
    worst_diag = 0.0
    for n in range(21):
        v = np.exp(1j * n * t)
        ev = (mat.entries @ v) / v
        quad = specfun.bessel_quad(n, 10.0)
        exact = 0.5j * math.pi * quad.J * quad.H1
        worst_diag = max(worst_diag, float(np.max(np.abs(ev - exact))))
    ok = worst_w < 1e-10 and worst_rec < 1e-10 and worst_der < 1e-10 and worst_diag < 1e-6
    detail = (f"wronskian {worst_w:.1e}, recurrence {worst_rec:.1e}, "
              f"derivative {worst_der:.1e} (tol 1e-10); diagonalization "
              f"{worst_diag:.1e} (tol 1e-6)")
    check(7, ok, detail, time.perf_counter() - t0, 120.0)


def test_criterion_8_billiard_suite():
    t0 = time.perf_counter()
    circle = BoundaryCurve.circle(1.0)
    ellipse = BoundaryCurve.ellipse(2.0, 1.0)
    rng = np.random.default_rng(42)

    q0 = PhasePoint(0.3, 0.4321)
    segs = billiards.iterate(circle, q0, 10_000)
    drift = max(abs(s.end.xi - q0.xi) for s in segs)

    worst_gen = 0.0
    for curve in (circle, ellipse):
        for _ in range(40):
            q = PhasePoint(rng.uniform(0, curve.total_length), rng.uniform(-0.9, 0.9))
            seg = billiards.billiard_step(curve, q)
            x = curve.point_at(seg.start.s)
            y = curve.point_at(seg.end.s)
            u = (y.position - x.position) / np.linalg.norm(y.position - x.position)
            worst_gen = max(worst_gen,
                            abs(float(np.dot(u, x.unit_tangent)) - seg.start.xi),
                            abs(float(np.dot(u, y.unit_tangent)) - seg.end.xi))

    constants = []
    for r in np.geomspace(1e-3, 1e-1, 9):
        seg = billiards.billiard_step(ellipse, PhasePoint(1.234, math.sqrt(1 - r * r)))
        constants.append(abs(math.sqrt(1 - seg.end.xi**2) - r) / r**2)
    stable = max(constants) / min(constants) < 2.0

    ok = drift < 1e-12 and worst_gen < 1e-10 and stable
    detail = (f"xi drift {drift:.1e} (tol 1e-12); generating-function residual "
              f"{worst_gen:.1e} (tol 1e-10); drift constant spread "
              f"x{max(constants) / min(constants):.2f} (< x2)")
    check(8, ok, detail, time.perf_counter() - t0, 120.0)
