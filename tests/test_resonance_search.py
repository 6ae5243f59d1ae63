"""Window scan, simplex basin, secant polish and acceptance gates."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sabine_lab import bie
from sabine_lab import resonance_search as rs
from sabine_lab.billiards import Model, PotentialSpec
from sabine_lab.disk_oracle import mode_sweep
from sabine_lab.errors import NotAResonanceError, SabineLabError

POT1 = PotentialSpec(V0=1.0, alpha=0.0)


def test_window_validation():
    with pytest.raises(ValueError):
        rs.SearchWindow(re_range=(1.1, 0.9), im_range=(-0.2, -0.1),
                        coarse_grid=(4, 4), h=0.1, quad_n=64)
    with pytest.raises(ValueError):
        rs.SearchWindow(re_range=(0.9, 1.1), im_range=(-0.1, 0.2),
                        coarse_grid=(4, 4), h=0.1, quad_n=64)
    for re_lo in (-0.1, 0.0):
        # the Hankel kernel needs Re z > 0
        with pytest.raises(ValueError, match="must be positive"):
            rs.SearchWindow(re_range=(re_lo, 0.1), im_range=(-0.2, -0.02),
                            coarse_grid=(3, 3), h=0.1, quad_n=64)
    with pytest.raises(ValueError, match="coarse_grid"):
        rs.SearchWindow(re_range=(0.9, 1.1), im_range=(-0.2, -0.1),
                        coarse_grid=(0, 4), h=0.1, quad_n=64)
    with pytest.raises(ValueError):
        # below the logarithmic strip -8 h log(1/h) = -1.84
        rs.SearchWindow(re_range=(0.9, 1.1), im_range=(-5.0, -0.1),
                        coarse_grid=(4, 4), h=0.1, quad_n=64)


@pytest.mark.parametrize("re_range, im_range", [
    ((0.9, math.inf), (-0.2, -0.1)), ((-math.inf, 1.1), (-0.2, -0.1)),
    ((math.nan, 1.1), (-0.2, -0.1)), ((0.9, 1.1), (-0.2, math.nan)),
])
def test_window_rejects_nonfinite_ranges(re_range, im_range):
    with pytest.raises(ValueError, match="finite"):
        rs.SearchWindow(re_range=re_range, im_range=im_range,
                        coarse_grid=(4, 4), h=0.1, quad_n=64)


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_degenerate_grid_matches_direct_call(unit_circle):
    w = rs.SearchWindow(re_range=(1.0, 1.0001), im_range=(-0.11, -0.1),
                        coarse_grid=(1, 1), h=0.1, quad_n=64)
    field = rs.scan(w, unit_circle, POT1)
    grid = bie.NystromGrid.build(unit_circle, 64)
    direct = bie.sigma_min_boundary_operator(grid, complex(1.0, -0.11), 0.1, POT1)
    assert field.sigma_min[0, 0] == direct.sigma_min
    assert field.cond[0, 0] == direct.cond
    assert field.sigma_min.shape == (1, 1)
    assert np.all(field.sigma_min >= 0)


def _neighbour_loop_minima(sig):
    """The reference: each node against the neighbours inside the grid."""
    nx, ny = sig.shape
    out = []
    for i in range(nx):
        for j in range(ny):
            nbs = [sig[a, b] for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                   if 0 <= a < nx and 0 <= b < ny]
            if nbs and all(sig[i, j] < nb for nb in nbs):
                out.append((i, j))
    return out


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (2, 2), (5, 4), (9, 7)])
def test_local_minima_match_the_neighbour_loop(rng, shape):
    # one decimal makes ties, which are not strict minima
    for _ in range(20):
        sig = np.round(rng.uniform(0.0, 1.0, shape), 1)
        field = rs.ScanField(re=np.arange(shape[0]) + 0.5, im=-np.arange(shape[1]) - 0.5,
                             sigma_min=sig, cond=1.0 / (sig + 1.0))
        expect = [complex(field.re[i], field.im[j]) for i, j in _neighbour_loop_minima(sig)]
        assert rs._local_minima(field) == expect


def test_resonance_free_window(unit_circle):
    # the oracle places no roots here; the field floor stays high
    w = rs.SearchWindow(re_range=(0.95, 1.0), im_range=(-0.04, -0.01),
                        coarse_grid=(8, 6), h=0.1, quad_n=128)
    field = rs.scan(w, unit_circle, POT1)
    assert field.sigma_min.min() > 0.05
    assert rs.find_resonances(w, unit_circle, POT1, compute_margins=False) == []


def test_refine_converges_to_oracle_root(unit_circle):
    h = 0.1
    oracle = mode_sweep(h, POT1, Model.DELTA, 0, window=(1.05, 1.15))[0]
    start = oracle.z + 0.004 - 0.003j
    cand = rs.refine(start, unit_circle, POT1, h, 256)
    assert abs(cand.z - oracle.z) < 5e-3
    assert cand.provenance.quad_n == 256
    assert cand.provenance.sigma_min < rs.accept_tolerance(256)


def test_refine_rejects_shallow_dip(unit_circle):
    with pytest.raises(NotAResonanceError):
        rs.refine(0.97 - 0.02j, unit_circle, POT1, 0.1, 128)


def test_refinement_stable_under_quadrature_doubling(unit_circle):
    h = 0.1
    oracle = mode_sweep(h, POT1, Model.DELTA, 0, window=(1.05, 1.15))[0]
    c256 = rs.refine(oracle.z + 0.002, unit_circle, POT1, h, 256)
    c512 = rs.refine(oracle.z + 0.002, unit_circle, POT1, h, 512)
    assert abs(c512.z - c256.z) < 1e-12


# five shallow roots of the 2:1 ellipse table (h = 0.1, delta, V0 = 1,
# alpha = 0), which holds the simplex roots at N = 512 to about 5e-9
_ELLIPSE_TABLE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "ellipse.json").read_text())


@pytest.mark.parametrize("index", [1, 2, 3, 4, 6])
def test_polished_ellipse_root_converges_with_the_discretization(ellipse21, index):
    root = complex(*_ELLIPSE_TABLE["roots"][index])
    c256, c512 = (rs.refine(root + 1e-3, ellipse21, POT1, 0.1, n) for n in (256, 512))
    assert abs(c512.z - c256.z) <= 1e-12
    assert abs(c512.z - root) < 1e-8
    for c in (c256, c512):
        assert 1 <= c.provenance.secant_steps <= 20
        assert c.provenance.last_step < 1e-12


@pytest.mark.parametrize("seed", [0.9 - 0.25j, 0.975 - 0.25j, 0.995 - 0.25j])
def test_polish_guard_drops_seeds_far_from_a_root(unit_circle, seed):
    # criterion 5's seeds whose simplex ends far below the window; unguarded
    # secant steps from there can run to another root
    w = rs.SearchWindow(re_range=(0.9, 1.1), im_range=(-0.25, -0.05),
                        coarse_grid=(41, 15), h=0.1, quad_n=256)
    with pytest.raises(NotAResonanceError, match="left its basin"):
        rs.refine(seed, unit_circle, POT1, 0.1, 256, window=w)


@pytest.mark.parametrize("block_function, message", [
    (lambda z: lambda w: 1.0 + 0.0j, "f\\(.*\\) = f\\("),
    (lambda z: lambda w: w - z - 0.05, "left its basin"),
    # a double zero: secant steps shrink only linearly and hit the cap
    (lambda z: lambda w: (w - z - 1e-5) ** 2, "took 20 steps"),
    (lambda z: lambda w: np.linalg.solve(np.zeros((2, 2)), np.ones(2)), "failed: Singular"),
], ids=["repeated-value", "far-zero", "step-cap", "singular-solve"])
def test_polish_guard(unit_circle, monkeypatch, block_function, message):
    def fake(grid, z, h, pot):
        f = block_function(z)
        return f, f(z)

    monkeypatch.setattr(rs, "block_function", fake)
    oracle = mode_sweep(0.1, POT1, Model.DELTA, 0, window=(1.05, 1.15))[0]
    with pytest.raises(NotAResonanceError, match=message):
        rs.refine(oracle.z + 0.002, unit_circle, POT1, 0.1, 128)


def test_simplex_steps_around_a_failed_evaluation(unit_circle, monkeypatch):
    # sigma_min raising a library error right of the root reads as a wall to
    # the simplex (its start vertex z + h/20 lies there); the basin and the
    # polished root are the ones it finds without the wall
    oracle = mode_sweep(0.1, POT1, Model.DELTA, 0, window=(1.05, 1.15))[0]
    real = rs.sigma_min_boundary_operator
    failed = [0]

    def failing_right(grid, z, h, pot):
        if z.real > oracle.z.real + 0.004:
            failed[0] += 1
            raise SabineLabError("stand-in failure")
        return real(grid, z, h, pot)

    free = rs.refine(oracle.z + 0.002, unit_circle, POT1, 0.1, 128)
    monkeypatch.setattr(rs, "sigma_min_boundary_operator", failing_right)
    walled = rs.refine(oracle.z + 0.002, unit_circle, POT1, 0.1, 128)
    assert failed[0] >= 1
    assert abs(walled.z - free.z) < 1e-12


@pytest.mark.parametrize("skew", [
    lambda res, tol: res._replace(sigma_min=res.sigma_min + 2.0 * tol),
    lambda res, tol: res._replace(cond=1.0 / tol),
], ids=["sigma-min", "cond"])
def test_refine_gates_the_polished_root(unit_circle, monkeypatch, skew):
    # sigma_min read high by a constant, or cond low, leaves the simplex and
    # the polish on the root; only the final sigma_min/cond gate rejects it
    tol = rs.accept_tolerance(128)
    real = rs.sigma_min_boundary_operator
    monkeypatch.setattr(rs, "sigma_min_boundary_operator",
                        lambda *args: skew(real(*args), tol))
    oracle = mode_sweep(0.1, POT1, Model.DELTA, 0, window=(1.05, 1.15))[0]
    with pytest.raises(NotAResonanceError, match="fails gates"):
        rs.refine(oracle.z + 0.002, unit_circle, POT1, 0.1, 128)


def test_find_resonances_matches_oracle(unit_circle):
    h = 0.1
    w = rs.SearchWindow(re_range=(1.0, 1.12), im_range=(-0.20, -0.10),
                        coarse_grid=(25, 11), h=h, quad_n=128)
    found = rs.find_resonances(w, unit_circle, POT1, compute_margins=True)
    oracle = [c for c in mode_sweep(h, POT1, Model.DELTA, 9, window=(1.0, 1.12))
              if -0.20 <= c.z.imag <= -0.10]
    assert len(found) == len(oracle)
    for o in oracle:
        assert min(abs(o.z - f.z) for f in found) < 5e-3
    # sorted, deduplicated, annotated
    reals = [f.z.real for f in found]
    assert reals == sorted(reals)
    for f in found:
        assert f.sabine_margin is not None
        assert -f.z.imag / h == pytest.approx(f.sabine_margin + 1.4984, abs=0.01)
        # decay-rate gate on the circle: no violation beyond the tolerance
        assert f.sabine_margin >= -0.1


def test_grid_refinement_only_adds(unit_circle):
    h = 0.1
    base = dict(re_range=(1.0, 1.12), im_range=(-0.20, -0.10), h=h, quad_n=128)
    coarse = rs.find_resonances(
        rs.SearchWindow(coarse_grid=(13, 6), **base), unit_circle, POT1,
        compute_margins=False)
    fine = rs.find_resonances(
        rs.SearchWindow(coarse_grid=(26, 12), **base), unit_circle, POT1,
        compute_margins=False)
    for c in coarse:
        assert min(abs(c.z - f.z) for f in fine) < 1e-4
    assert len(fine) >= len(coarse)
