"""Nystrom discretization of the single layer operator on a convex curve.

The boundary is sampled at equal arclength steps; the weakly singular
kernel (i/4) H0(lambda |x - y|) is split into a log-singular part handled
by spectrally accurate trigonometric quadrature weights and a smooth
remainder handled by the trapezoid rule.  ``NystromGrid.build`` computes
everything that does not depend on the frequency once: the distinct node
distances and the index into them, one log-quadrature table, the circulant
and parity flags (from ``geometry.node_symmetries``) and the diameter.  The
kernel depends on a node pair only through its distance, so every curve
takes the same path: at each frequency the kernel is evaluated on the
distinct distances and gathered into the entries asked for.  The smallest
singular value of the discretized I + G(lambda) V is the functional whose
near-vanishing marks a resonance.

``_blocks`` splits shift * I + A diag(v) into the blocks of its symmetry
classes, whose spectra together are the operator's, by one of three paths
chosen from the grid's flags and the symbol; ``_singular_values`` reads
every singular value from them, for sigma_min and the operator norm alike:

* FFT.  When every entry depends only on (i - j) mod N, as on the circle,
  the matrix is circulant: with a constant symbol its N 1 x 1 blocks are
  the FFT of its first column, held as one diagonal, so one kernel column
  is assembled and no SVD taken.
* Parity.  When N % 4 == 0 and the nodes are invariant under both
  reflections k -> -k and k -> N/2 - k (mod N), as on any ellipse with the
  grid starting on an axis, the matrix commutes with the four-element
  reflection group.  With a reflection-symmetric symbol the N/4 + 1 rows
  r = 0 .. N/4 fold into four blocks (65/64/64/63 at N = 256).
* Dense.  Everything else, such as the stadium (its s = 0 lies at a cap
  junction, so its nodes fail the reflection test) and profiles without
  the symmetry, is one block: the whole matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import pdist, squareform

from . import specfun
from .billiards import Model, PotentialSpec
from .errors import RegionError
from .geometry import BoundaryCurve, node_symmetries

# relative gap under which two distances, or a symbol and its reflection, are equal
_SYMMETRY_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class NystromGrid:
    """Equal-arclength quadrature grid on a boundary curve, with every
    frequency-free piece of the Nystrom assembly.

    ``dist`` and ``group`` are the distinct off-diagonal node distances and
    the N x N index into them (0 on the diagonal).  ``logw[i, j]`` is the
    log-quadrature table W[(i - j) mod N]: the trigonometric weight R_d with
    the trapezoid rule's log(4 sin^2(pi d / N)) term folded in.  That table
    depends only on (i - j) mod N, so the matrix is ``circulant`` exactly
    when the shift k -> k + 1 maps the nodes onto themselves.  ``parity``
    needs N % 4 == 0 and both reflections k -> -k and k -> N/2 - k (mod N)
    of the nodes, which send d = (i - j) mod N to N - d and keep the log
    table to rounding.  Both are read by ``geometry.node_symmetries`` from
    the node frames, not from the curve kind.
    """

    curve: BoundaryCurve
    N: int
    s: np.ndarray
    points: np.ndarray
    dist: np.ndarray
    group: np.ndarray
    logw: np.ndarray
    circulant: bool
    parity: bool
    diameter: float

    @classmethod
    def build(cls, curve: BoundaryCurve, N: int) -> "NystromGrid":
        if N < 16 or N % 2 != 0:
            raise ValueError("node count must be even and at least 16")
        if not curve.is_strictly_convex:
            warnings.warn(
                "stadium boundary is only C^{1,1}; the spectral log-quadrature "
                "loses accuracy at the cap junctions (expect halved convergence)",
                stacklevel=2,
            )
        s = curve.total_length * np.arange(N) / N
        points = curve.point_many(s)
        # grouped first, so its temporaries and the N x N arrays below do not
        # raise the peak memory together
        dist, group = _distance_groups(points)
        t, c = node_symmetries(curve._frame(curve._u_of_s(s)))
        w = _log_quadrature_weights(N)
        d = np.arange(1, N)
        w[1:] -= (2.0 * np.pi / N) * np.log(4.0 * np.sin(np.pi * d / N) ** 2)
        idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
        # k -> N/2 - k is the reflection c = 0 moved by N/2, a multiple of t
        parity = N % 4 == 0 and c == 0 and (N // 2) % t == 0
        return cls(curve=curve, N=N, s=s, points=points, dist=dist, group=group,
                   logw=w[idx], circulant=t == 1, parity=parity,
                   diameter=curve.diameter()[0])


@dataclass
class LayerMatrix:
    """Discretized single layer operator on its grid."""

    entries: np.ndarray
    grid: NystromGrid


class BoundaryOperatorConditioning(NamedTuple):
    sigma_min: float
    cond: float


def _log_quadrature_weights(N: int) -> np.ndarray:
    """Trigonometric weights R_d for the log(4 sin^2((t-tau)/2)) factor.

    R_d = -(4 pi / N) [ sum_{m=1}^{N/2-1} cos(m t_d)/m + cos(N t_d / 2)/N ]
    on the even periodic grid t_d = 2 pi d / N: the real part of one FFT of
    the even sequence e[m] = e[N - m] = 1/(2m), e[N/2] = 1/N.
    """
    m = np.arange(1, N // 2)
    e = np.zeros(N)
    e[m] = e[N - m] = 0.5 / m
    e[N // 2] = 1.0 / N
    return -(4.0 * np.pi / N) * np.fft.fft(e).real


def _distance_groups(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct off-diagonal node distances and the N x N index into them.

    Entry (i, j) of the index is k + 1 for the distance dist[k]; the
    diagonal holds 0.  Symmetric curves repeat most distances: at N = 256
    the circle has 128 distinct values and the 2:1 ellipse 8,256 of 65,280.
    """
    r = pdist(points)
    rs = np.sort(r)
    # Mirror-image node pairs give distances a few ulps apart.  Exact
    # equality keeps 30,559 groups on the 2:1 ellipse at N = 256 and 1e-15
    # keeps 11,029; every tolerance from 1e-14 to 1e-12 keeps 8,256, and the
    # widest group spans 5.6e-15 of the largest distance (6.8e-15 at 5:1).
    dist = rs[np.concatenate(([True], np.diff(rs) > _SYMMETRY_RTOL * rs[-1]))]
    return dist, squareform(np.searchsorted(dist, r, side="right"))


def _check_frequency(grid: NystromGrid, lam: complex) -> None:
    """Raise RegionError outside the validated region; warn when lambda
    under-resolves the grid.  Called first thing by each public routine, so
    that the warning names that routine's caller."""
    N, d = grid.N, grid.diameter
    if lam.real <= 0:
        raise RegionError(f"frequency {lam} must have positive real part")
    if abs(lam) * d > specfun.REGION_RE_MAX or abs(lam.imag) * d > specfun.REGION_IM_MAX:
        raise RegionError(
            f"kernel arguments up to lambda*d = {abs(lam) * d:.4g} exceed the "
            f"validated special-function region"
        )
    if abs(lam) * d > N / 4.0:
        warnings.warn(
            f"lambda*diameter = {abs(lam) * d:.1f} exceeds N/4 = {N / 4:.0f}; "
            "the discretization is under-resolved (rule of thumb)",
            stacklevel=3,
        )


def _kernel_entries(grid: NystromGrid, lam: complex, sel) -> np.ndarray:
    """Nystrom entries at frequency lambda (checked by the caller) at the
    index selection sel of the N x N matrix: all of it, one column of a
    circulant grid or the representative rows of a parity grid.

    The kernel K = (i/4) H0(lambda r) * speed is split as
    K = K1 * log(4 sin^2((t - tau)/2)) + K2 with K1 = -(1/4pi) J0(lambda r)
    * speed; an entry is logw * K1 + (2pi/N) (i/4) H0 * speed off the
    diagonal, where K2's limit involves the Euler-Mascheroni constant and
    the parametrization speed.  Both factors are scaled on the distinct
    distances, with the diagonal in slot 0, before the gather.
    """
    N = grid.N
    speed = grid.curve.total_length / (2.0 * np.pi)
    k1 = -(0.25 / np.pi) * speed
    a = np.full(grid.dist.size + 1, k1, dtype=complex)     # J0 -> 1 on the diagonal
    b = np.empty_like(a)
    j0, h0 = specfun.j0_h0_arrays(lam * grid.dist)
    a[1:] = k1 * j0
    b[0] = (0.25j - np.euler_gamma / (2.0 * np.pi)
            - np.log(lam * speed / 2.0) / (2.0 * np.pi)) * speed
    b[1:] = 0.25j * speed * h0
    b *= 2.0 * np.pi / N
    group = grid.group[sel]
    return grid.logw[sel] * a[group] + b[group]


def assemble_single_layer(grid: NystromGrid, lam: complex) -> LayerMatrix:
    """Nystrom matrix of the single layer operator at frequency lambda."""
    lam = complex(lam)
    _check_frequency(grid, lam)
    return LayerMatrix(entries=_kernel_entries(grid, lam, np.s_[:, :]), grid=grid)


def _blocks(grid: NystromGrid, entries, shift: float, sv: np.ndarray) -> list[np.ndarray]:
    """shift * I + A diag(sv), where entries(sel) returns A at the index
    selection sel, as the list of blocks named in the module docstring.

    A parity block is the operator M in the orthonormal basis of one
    symmetry class.  Row r = 0 .. N/4 represents its orbit {r, -r, N/2 - r,
    N/2 + r}, which has n = 2 members at r = 0 and r = N/4 and 4 elsewhere.
    For the character chi = (e_y, e_x) of the group {1, k -> -k,
    k -> N/2 - k, k -> N/2 + k} the block is

        M_chi[k, l] = (sqrt(n_k n_l) / 4) sum_g chi(g) M[r_k, g(r_l)].

    r = 0 drops out of the blocks with e_y = -1 and r = N/4 out of those
    with e_x = -1, so the blocks have N/4 + 1, N/4, N/4 and N/4 - 1 rows.
    """
    N = grid.N
    if grid.circulant and (sv == sv[0]).all():
        return [shift + sv[0] * np.fft.fft(entries(np.s_[:, 0]))]
    k = np.arange(N)
    folded = grid.parity and all(np.abs(sv[g] - sv).max() <= _SYMMETRY_RTOL * np.abs(sv).max()
                                 for g in (-k % N, (N // 2 - k) % N))
    m = N // 4 + 1 if folded else N
    op = shift * np.eye(m, N, dtype=complex) + entries(np.s_[:m, :]) * sv[None, :]
    if not folded:
        return [op]
    r = np.arange(m)
    n = np.full(m, 4.0)
    n[[0, -1]] = 2.0
    scale = np.sqrt(np.outer(n, n)) / 4.0
    a, a_y, a_x, a_xy = (op[:, g] for g in (r, -r % N, N // 2 - r, N // 2 + r))
    blocks = []
    for e_y in (1, -1):
        even, odd = a + e_y * a_y, a_x + e_y * a_xy
        for e_x in (1, -1):
            keep = slice(int(e_y < 0), m - int(e_x < 0))
            blocks.append((scale * (even + e_x * odd))[keep, keep])
    return blocks


def _singular_values(blocks: list[np.ndarray]) -> np.ndarray:
    """Every singular value of the operator held as blocks: the moduli of a
    diagonal, the SVD of a square block."""
    return np.concatenate([np.abs(b) if b.ndim == 1 else np.linalg.svd(b, compute_uv=False)
                           for b in blocks])


def operator_norm(matrix: LayerMatrix) -> float:
    """L2(dS) operator norm: largest singular value of the matrix.

    Every node carries the arclength weight L/N, so the weight-symmetrized
    matrix D A D^-1 (D = diag(sqrt(L/N))) is the matrix itself.
    """
    grid = matrix.grid
    return float(_singular_values(_blocks(grid, matrix.entries.__getitem__, 0.0,
                                          np.ones(grid.N))).max())


def sigma_min_boundary_operator(grid: NystromGrid, z: complex, h: float,
                                pot: PotentialSpec) -> BoundaryOperatorConditioning:
    """Smallest singular value (and condition number) of I + G(z/h) V.

    Near-vanishing of sigma_min marks a resonance; the condition number is
    the complementary diagnostic maximized at resonances.
    """
    sv = np.asarray(pot.symbol(grid.s, h, Model.DELTA), dtype=float)
    if not sv.any():
        return BoundaryOperatorConditioning(sigma_min=1.0, cond=1.0)
    lam = complex(z) / h
    _check_frequency(grid, lam)
    svals = _singular_values(_blocks(grid, partial(_kernel_entries, grid, lam), 1.0, sv))
    smin, smax = svals.min(), svals.max()
    return BoundaryOperatorConditioning(
        sigma_min=float(smin),
        cond=float(smax / smin) if smin > 0 else math.inf,
    )
