"""Single-layer Nystrom discretization and conditioning functionals."""

import math
from functools import partial

import numpy as np
import pytest

from sabine_lab import bie, specfun
from sabine_lab.billiards import Model, PotentialSpec
from sabine_lab.disk_oracle import mode_sweep
from sabine_lab.errors import RegionError
from sabine_lab.geometry import BoundaryCurve

POT1 = PotentialSpec(V0=1.0, alpha=0.0)


def circle_eigenvalue(n, lam):
    """Fourier-diagonalization oracle for convolution kernels on the circle."""
    ev = specfun.bessel_quad(n, lam)
    return 0.5j * math.pi * ev.J * ev.H1


def apply_to_mode(matrix, n):
    N = matrix.entries.shape[0]
    t = 2 * np.pi * np.arange(N) / N
    v = np.exp(1j * n * t)
    return (matrix.entries @ v) / v


def cosine_sum_log_weights(N):
    """R_d = -(4 pi / N) [sum_{m=1}^{N/2-1} cos(m t_d)/m + cos(N t_d / 2)/N],
    t_d = 2 pi d / N, summed term by term."""
    ang = 2 * np.pi * np.arange(N) / N
    m = np.arange(1, N // 2)
    sums = (np.cos(np.outer(ang, m)) / m).sum(axis=1) + np.cos(0.5 * N * ang) / N
    return -(4 * np.pi / N) * sums


@pytest.mark.filterwarnings("ignore:stadium")
def test_grid_weights_sum(unit_circle, ellipse21, stadium11):
    # every node carries the arclength step L/N, and the steps sum to L
    for curve in (unit_circle, ellipse21, stadium11):
        grid = bie.NystromGrid.build(curve, 64)
        steps = np.diff(np.append(grid.s, curve.total_length))
        assert np.max(np.abs(steps - curve.total_length / 64)) < 1e-12
        assert abs(steps.sum() - curve.total_length) < 1e-10
        chords = np.linalg.norm(np.roll(grid.points, -1, axis=0) - grid.points, axis=1)
        assert 0 < curve.total_length - chords.sum() < 1e-2 * curve.total_length


def test_grid_validation(unit_circle):
    with pytest.raises(ValueError):
        bie.NystromGrid.build(unit_circle, 15)
    with pytest.raises(ValueError):
        bie.NystromGrid.build(unit_circle, 14)


def test_circle_diagonalization(unit_circle):
    grid = bie.NystromGrid.build(unit_circle, 128)
    mat = bie.assemble_single_layer(grid, 10.0)
    for n in range(21):
        vals = apply_to_mode(mat, n)
        assert np.max(np.abs(vals - circle_eigenvalue(n, 10.0))) < 1e-6


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_matrix_symmetry(unit_circle, ellipse21):
    for curve in (unit_circle, ellipse21):
        grid = bie.NystromGrid.build(curve, 96)
        mat = bie.assemble_single_layer(grid, 7.0)
        sym = mat.entries  # constant weights: already weight-symmetric
        assert np.max(np.abs(sym - sym.T)) < 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_entries_match_per_entry_kernel(unit_circle, ellipse21, stadium11):
    # every off-diagonal entry rebuilt from its own node distance
    for curve in (unit_circle, ellipse21, stadium11):
        for N, lam in ((96, 7.0), (128, 20.0 - 1.5j)):
            grid = bie.NystromGrid.build(curve, N)
            mat = bie.assemble_single_layer(grid, lam)
            i, j = np.nonzero(~np.eye(N, dtype=bool))
            r = np.linalg.norm(grid.points[i] - grid.points[j], axis=1)
            j0, h0 = specfun.j0_h0_arrays(lam * r)
            speed = curve.total_length / (2 * np.pi)
            k1 = -(0.25 / np.pi) * speed * j0
            k2 = 0.25j * speed * h0 - k1 * np.log(4 * np.sin(np.pi * (i - j) / N) ** 2)
            ref = cosine_sum_log_weights(N)[(i - j) % N] * k1 + (2 * np.pi / N) * k2
            err = np.max(np.abs(mat.entries[i, j] - ref))
            assert err <= 1e-11 * np.max(np.abs(mat.entries))


@pytest.mark.parametrize("N", [16, 64, 256, 1024])
def test_log_weights_match_cosine_sums(N):
    # the library's FFT against the cosine sums, within 1e-13 of max |R_d|
    ref = cosine_sum_log_weights(N)
    assert np.max(np.abs(bie._log_quadrature_weights(N) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_eigenvalue_stable_under_doubling(unit_circle):
    vals = []
    for N in (128, 256):
        grid = bie.NystromGrid.build(unit_circle, N)
        mat = bie.assemble_single_layer(grid, 10.0)
        vals.append(apply_to_mode(mat, 5)[0])
    assert abs(vals[0] - vals[1]) < 1e-9


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_operator_norm_matches_diagonalization(unit_circle):
    grid = bie.NystromGrid.build(unit_circle, 256)
    mat = bie.assemble_single_layer(grid, 50.0)
    norm = bie.operator_norm(mat)
    exact = max(abs(circle_eigenvalue(n, 50.0)) for n in range(120))
    assert norm >= exact - 1e-6
    assert abs(norm - exact) < 1e-6


def test_operator_norm_zero_matrix(unit_circle):
    grid = bie.NystromGrid.build(unit_circle, 32)
    mat = bie.LayerMatrix(entries=np.zeros((32, 32), dtype=complex), grid=grid)
    assert bie.operator_norm(mat) == 0.0


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_norm_scaling_exponent(unit_circle):
    lams = [50.0, 100.0, 200.0, 400.0, 800.0]
    n_sched = [256, 512, 1024, 1024, 1024]
    norms = []
    for lam, n in zip(lams, n_sched):
        grid = bie.NystromGrid.build(unit_circle, n)
        norms.append(bie.operator_norm(bie.assemble_single_layer(grid, lam)))
    slope = np.polyfit(np.log(lams), np.log(norms), 1)[0]
    assert -0.73 <= slope <= -0.60


def test_sigma_min_at_oracle_resonance(unit_circle):
    h = 0.1
    cands = mode_sweep(h, POT1, Model.DELTA, 0, window=(1.05, 1.15))
    assert len(cands) == 1
    z0 = cands[0].z
    grid = bie.NystromGrid.build(unit_circle, 256)
    at_root = bie.sigma_min_boundary_operator(grid, z0, h, POT1)
    assert at_root.sigma_min < 1e-3
    displaced = bie.sigma_min_boundary_operator(grid, z0 + 0.05, h, POT1)
    assert displaced.sigma_min > 10 * at_root.sigma_min
    assert at_root.cond > displaced.cond


def test_sigma_min_identity_for_zero_potential(unit_circle):
    grid = bie.NystromGrid.build(unit_circle, 64)
    dead = PotentialSpec(V0=1.0, alpha=0.0,
                         profile=lambda s: np.zeros_like(np.asarray(s, float)))
    res = bie.sigma_min_boundary_operator(grid, 1.0 - 0.1j, 0.1, dead)
    assert res.sigma_min == 1.0
    assert res.cond == 1.0


def test_sigma_min_spectral_convergence(unit_circle):
    h = 0.1
    z = 1.02 - 0.12j
    vals = []
    for N in (128, 256):
        grid = bie.NystromGrid.build(unit_circle, N)
        vals.append(bie.sigma_min_boundary_operator(grid, z, h, POT1).sigma_min)
    assert abs(vals[0] - vals[1]) < 1e-4


def test_log_det_is_harmonic_away_from_resonances(unit_circle):
    # Cauchy-Riemann probe: log|det| of an analytic family is harmonic
    grid = bie.NystromGrid.build(unit_circle, 96)
    h = 0.1
    z0 = 1.0 - 0.05j
    delta = 1e-3

    def logdet(z):
        layer = bie.assemble_single_layer(grid, z / h)
        sv = POT1.symbol(grid.s, h, Model.DELTA)
        op = np.eye(grid.N, dtype=complex) + layer.entries * np.full(grid.N, sv)[None, :]
        sign, val = np.linalg.slogdet(op)
        return val

    lap = (logdet(z0 + delta) + logdet(z0 - delta)
           + logdet(z0 + 1j * delta) + logdet(z0 - 1j * delta)
           - 4 * logdet(z0)) / delta**2
    assert abs(lap) * delta**2 < 1e-4


def test_region_guard(unit_circle):
    grid = bie.NystromGrid.build(unit_circle, 32)
    with pytest.raises(RegionError):
        bie.assemble_single_layer(grid, 1500.0)   # lambda*d exceeds the region
    with pytest.raises(RegionError):
        bie.assemble_single_layer(grid, -5.0)


def test_under_resolution_warns(unit_circle):
    grid = bie.NystromGrid.build(unit_circle, 32)
    with pytest.warns(UserWarning, match="under-resolved"):
        bie.assemble_single_layer(grid, 30.0)


@pytest.mark.filterwarnings("ignore:stadium")
@pytest.mark.parametrize("spec", ["circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1"])
def test_under_resolution_warning_names_the_caller(spec):
    # FFT, parity and dense paths alike: the warning points at this file
    grid = bie.NystromGrid.build(BoundaryCurve.from_spec(spec), 32)
    for call in (lambda: bie.assemble_single_layer(grid, 30.0),
                 lambda: bie.sigma_min_boundary_operator(grid, 3.0, 0.1, POT1)):
        with pytest.warns(UserWarning, match="under-resolved") as record:
            call()
        assert [w.filename for w in record] == [__file__]


def test_stadium_quadrature_warns(stadium11):
    with pytest.warns(UserWarning, match="C"):
        grid = bie.NystromGrid.build(stadium11, 64)
    bie.assemble_single_layer(grid, 3.0)   # once per grid: a repeat is an error here


@pytest.mark.filterwarnings("ignore:stadium")
def test_entry_selections_match_the_full_matrix(unit_circle, ellipse21, stadium11):
    # the FFT path's column and the parity path's rows are the same floats
    # as the dense path's matrix
    lam = (0.93 - 0.147j) / 0.1
    for curve in (unit_circle, ellipse21, stadium11):
        grid = bie.NystromGrid.build(curve, 256)
        full = bie._kernel_entries(grid, lam, np.s_[:, :])
        for sel in (np.s_[:, 0], np.s_[:grid.N // 4 + 1, :]):
            assert np.array_equal(bie._kernel_entries(grid, lam, sel), full[sel])


def dense_conditioning(grid, z, h, pot):
    """sigma_min and cond of I + G V from the dense SVD of the assembled matrix."""
    layer = bie.assemble_single_layer(grid, z / h)
    sv = np.broadcast_to(pot.symbol(grid.s, h, Model.DELTA), (grid.N,))
    svals = np.linalg.svd(np.eye(grid.N) + layer.entries * sv[None, :], compute_uv=False)
    return svals[-1], svals[0] / svals[-1]


def count_full_selections(monkeypatch):
    """Record each kernel-entry call that fills the whole N x N matrix."""
    calls = []
    original = bie._kernel_entries

    def counted(grid, lam, sel):
        entries = original(grid, lam, sel)
        if entries.shape == (grid.N, grid.N):
            calls.append(sel)
        return entries

    monkeypatch.setattr(bie, "_kernel_entries", counted)
    return calls


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_circulant_spectrum_matches_dense_svd(unit_circle):
    h = 0.1
    root = mode_sweep(h, POT1, Model.DELTA, 0, window=(1.05, 1.15))[0].z
    strong = PotentialSpec(V0=2.5, alpha=0.3)
    cases = ((root + 5e-4j, POT1), (root - 7e-4, POT1), (1.02 - 0.12j, strong))
    for N in (64, 256, 1024):
        grid = bie.NystromGrid.build(unit_circle, N)
        assert grid.circulant
        for z, pot in cases:
            fast = bie.sigma_min_boundary_operator(grid, z, h, pot)
            smin, cond = dense_conditioning(grid, z, h, pot)
            assert abs(fast.sigma_min - smin) <= 1e-12 * smin
            assert abs(fast.cond - cond) <= 1e-12 * cond


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_circulant_operator_norm_matches_dense_svd(unit_circle):
    grid = bie.NystromGrid.build(unit_circle, 1024)
    mat = bie.assemble_single_layer(grid, 200.0)
    dense = np.linalg.svd(mat.entries, compute_uv=False)[0]
    assert abs(bie.operator_norm(mat) - dense) <= 1e-13 * dense


@pytest.mark.filterwarnings("ignore:stadium")
def test_circulant_flag_follows_distance_index(unit_circle, ellipse21, stadium11):
    # the flag comes from the node maps; the index's shift invariance is
    # what it stands for.  A map tolerance set by the edge length, not by
    # the coordinates, falls below rounding at 512-1024 nodes and loses the
    # circle's shift
    round_ellipse = BoundaryCurve.from_spec("ellipse:a=1,b=1")
    circles = (unit_circle, round_ellipse, BoundaryCurve.circle(2.5), BoundaryCurve.circle(100.0))
    cases = [(c, True) for c in circles] + [(ellipse21, False), (stadium11, False)]
    for curve, circulant in cases:
        for N in (64, 512, 1024):
            grid = bie.NystromGrid.build(curve, N)
            diagonal = (np.arange(N)[:, None] - np.arange(N)) % N
            assert grid.circulant is circulant
            assert np.array_equal(grid.group, grid.group[diagonal, 0]) is circulant


@pytest.mark.filterwarnings("ignore:stadium")
def test_parity_flag_follows_distance_index(unit_circle, ellipse21, stadium11):
    ellipse51 = BoundaryCurve.from_spec("ellipse:a=5,b=1")
    for curve in (ellipse21, ellipse51, unit_circle, BoundaryCurve.circle(2.5),
                  BoundaryCurve.circle(100.0)):
        for N in (64, 256, 512, 1024):
            grid = bie.NystromGrid.build(curve, N)
            assert grid.parity
            k = np.arange(N)
            assert all(np.array_equal(grid.group, grid.group[np.ix_(g, g)])
                       for g in (-k % N, (N // 2 - k) % N))
        assert not bie.NystromGrid.build(curve, 66).parity   # N % 4 != 0
    # the stadium's node 0 sits at a cap junction, off both symmetry axes
    for N in (64, 512, 1024):
        grid = bie.NystromGrid.build(stadium11, N)
        flip = -np.arange(N) % N
        assert not grid.parity
        assert not np.array_equal(grid.group, grid.group[np.ix_(flip, flip)])


@pytest.mark.filterwarnings("ignore:stadium")
def test_sigma_min_path_choice(monkeypatch, unit_circle, ellipse21, stadium11):
    calls = count_full_selections(monkeypatch)
    z, h = 1.02 - 0.12j, 0.1
    for curve, dense_calls in ((unit_circle, 0), (ellipse21, 0), (stadium11, 1)):
        calls.clear()
        grid = bie.NystromGrid.build(curve, 256)
        bie.sigma_min_boundary_operator(grid, z, h, POT1)
        assert len(calls) == dense_calls
    # cos(s) keeps the reflection k -> -k but not k -> N/2 - k, so it breaks
    # both the circulant and the parity structure of I + G V
    bumpy = PotentialSpec(V0=1.0, alpha=0.0,
                          profile=lambda s: 1.0 + 0.3 * np.cos(np.asarray(s, float)))
    for curve in (unit_circle, ellipse21):
        grid = bie.NystromGrid.build(curve, 256)
        calls.clear()
        res = bie.sigma_min_boundary_operator(grid, z, h, bumpy)
        assert len(calls) == 1
        assert (res.sigma_min, res.cond) == dense_conditioning(grid, z, h, bumpy)


def symmetric_profile(curve):
    """A non-constant profile that both axis reflections of the curve keep."""
    L = curve.total_length
    return PotentialSpec(V0=1.0, alpha=0.0,
                         profile=lambda s: 1.0 + 0.3 * np.cos(4 * np.pi * np.asarray(s, float) / L))


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_parity_spectrum_matches_dense_svd(ellipse21):
    # h keeps each kernel's growth exp(|Im z| d / h) moderate; both SVDs are
    # accurate to about eps * cond relative, so the points stay off the roots
    # (0.98247 - 0.11117i on the 2:1 ellipse at h = 0.1, from the N = 512
    # table, and 1.10083 - 0.18143i on the 5:1 ellipse at h = 0.5)
    strong = PotentialSpec(V0=2.5, alpha=0.3)
    for curve, h, root in ((ellipse21, 0.1, 0.98247 - 0.11117j),
                           (BoundaryCurve.from_spec("ellipse:a=5,b=1"), 0.5,
                            1.10083 - 0.18143j)):
        cases = ((root + 5e-4j, POT1), (1.0 - 0.2j, POT1), (1.02 - 0.12j, strong),
                 (root + 5e-4j, symmetric_profile(curve)))
        for N in (64, 256, 512):
            grid = bie.NystromGrid.build(curve, N)
            assert grid.parity and not grid.circulant
            for z, pot in cases:
                fast = bie.sigma_min_boundary_operator(grid, z, h, pot)
                smin, cond = dense_conditioning(grid, z, h, pot)
                assert abs(fast.sigma_min - smin) <= 1e-12 * smin
                assert abs(fast.cond - cond) <= 1e-12 * cond


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
@pytest.mark.filterwarnings("ignore:stadium")
def test_parity_operator_norm_matches_dense_svd(ellipse21, stadium11):
    # the stadium and N % 4 != 0 take the dense path of operator_norm
    for curve, N, lam, parity in ((ellipse21, 256, 10.0 - 0.5j, True),
                                  (BoundaryCurve.from_spec("ellipse:a=5,b=1"), 512, 12.0, True),
                                  (stadium11, 64, 3.0 - 0.2j, False),
                                  (ellipse21, 66, 5.0, False)):
        grid = bie.NystromGrid.build(curve, N)
        assert grid.parity is parity and not grid.circulant
        mat = bie.assemble_single_layer(grid, lam)
        dense = np.linalg.svd(mat.entries, compute_uv=False)
        assert abs(bie.operator_norm(mat) - dense[0]) <= 1e-13 * dense[0]
        if parity:
            # the four blocks hold every singular value, not only the largest
            blocks = bie._blocks(grid, mat.entries.__getitem__, 0.0, np.ones(N))
            folded = np.sort(bie._singular_values(blocks))[::-1]
            assert folded.shape == dense.shape
            assert np.max(np.abs(folded - dense)) <= 1e-13 * dense[0]


def block_slogdet(blocks):
    """Sum of the blocks' log|det| and product of their det phases."""
    phase, logabs = 1.0, 0.0
    for b in blocks:
        if b.ndim == 1:
            sign, val = np.prod(b / np.abs(b)), np.log(np.abs(b)).sum()
        else:
            sign, val = np.linalg.slogdet(b)
        phase, logabs = phase * sign, logabs + val
    return phase, logabs


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
@pytest.mark.filterwarnings("ignore:stadium")
@pytest.mark.parametrize("spec", ["circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1"])
def test_blocks_are_a_unitary_similarity(spec):
    # the blocks' determinants multiply to the dense one, which a conjugated
    # or wrong-class block would break, and their singular values are the
    # dense matrix's; the three profiles send each curve down every path its
    # grid allows
    curve = BoundaryCurve.from_spec(spec)
    h = 0.1
    profiles = (POT1, symmetric_profile(curve),
                PotentialSpec(V0=1.0, alpha=0.0,
                              profile=lambda s: 1.0 + 0.3 * np.cos(np.asarray(s, float))))
    for N in (64, 256):
        grid = bie.NystromGrid.build(curve, N)
        for z in (0.7, 1.0 - 0.05j):
            lam = z / h
            full = bie._kernel_entries(grid, lam, np.s_[:, :])
            for pot in profiles:
                sv = np.broadcast_to(pot.symbol(grid.s, h, Model.DELTA), (N,)).astype(float)
                blocks = bie._blocks(grid, partial(bie._kernel_entries, grid, lam), 1.0, sv)
                assert sum(b.shape[0] for b in blocks) == N
                dense = np.eye(N) + full * sv[None, :]
                sign, logabs = np.linalg.slogdet(dense)
                phase, total = block_slogdet(blocks)
                assert abs(total - logabs) <= 1e-12
                assert abs(phase - sign) <= 1e-12
                svals = np.linalg.svd(dense, compute_uv=False)
                folded = np.sort(bie._singular_values(blocks))[::-1]
                assert np.max(np.abs(folded - svals)) <= 1e-13 * svals[0]


def test_column_path_keeps_checks(monkeypatch, unit_circle):
    calls = count_full_selections(monkeypatch)
    grid = bie.NystromGrid.build(unit_circle, 32)
    with pytest.warns(UserWarning, match="lambda\\*diameter"):
        bie.sigma_min_boundary_operator(grid, 3.0 - 0.1j, 0.1, POT1)
    with pytest.raises(RegionError):
        bie.sigma_min_boundary_operator(grid, 150.0, 0.1, POT1)
    with pytest.raises(RegionError):
        bie.sigma_min_boundary_operator(grid, -0.5, 0.1, POT1)
    assert calls == []
