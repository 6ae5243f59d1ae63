"""Resonance location for I + G(z/h)V by sigma_min landscape search.

A coarse rectangular scan of the complex window produces the smallest
singular value and condition number of the discretized boundary operator at
every node; strict local minima are polished by a derivative-free simplex
(singular values are non-smooth at crossings), and survivors are gated by
residual and conditioning thresholds before being reported as resonances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bie import NystromGrid, sigma_min_boundary_operator
from .billiards import Model, PotentialSpec, sabine_gap
from .disk_oracle import BieProvenance, ResonanceCandidate, _dedup
from .errors import NotAResonanceError, SabineLabError
from .geometry import BoundaryCurve

_DEDUP_TOL = 1e-6
_STRIP_FACTOR = 8.0
_SIMPLEX_DIAMETER = 1e-8


def accept_tolerance(quad_n: int) -> float:
    """Residual gate scaled with discretization: 1e-3 * (256 / N)."""
    return 1e-3 * (256.0 / quad_n)


@dataclass(frozen=True)
class SearchWindow:
    """Complex search rectangle in rescaled coordinates (Im z <= 0).

    The imaginary range must stay inside the logarithmic strip
    [-8 h log(1/h), 0].
    """

    re_range: tuple
    im_range: tuple
    coarse_grid: tuple
    h: float
    quad_n: int

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"h must lie in (0, 1), got {self.h}")
        re_lo, re_hi = self.re_range
        im_lo, im_hi = self.im_range
        if not (re_lo < re_hi):
            raise ValueError("re_range must be increasing")
        if not (im_lo < im_hi <= 0.0):
            raise ValueError("im_range must be increasing and nonpositive")
        strip = _STRIP_FACTOR * self.h * math.log(1.0 / self.h)
        if im_lo < -strip - 1e-15:
            raise ValueError(
                f"im_range reaches {im_lo}, below the logarithmic strip "
                f"-{strip:.6g} = -{_STRIP_FACTOR:g} h log(1/h)"
            )
        nx, ny = self.coarse_grid
        if nx < 1 or ny < 1:
            raise ValueError("coarse_grid must be at least 1x1")

    def contains(self, z: complex) -> bool:
        return (self.re_range[0] <= z.real <= self.re_range[1]
                and self.im_range[0] <= z.imag <= self.im_range[1])


@dataclass
class ScanField:
    """sigma_min / condition-number samples over the window grid."""

    re: np.ndarray
    im: np.ndarray
    sigma_min: np.ndarray   # shape (nx, ny)
    cond: np.ndarray


def scan(window: SearchWindow, curve: BoundaryCurve, pot: PotentialSpec) -> ScanField:
    """Evaluate the boundary-operator conditioning on the full coarse grid."""
    nx, ny = window.coarse_grid
    re = np.linspace(window.re_range[0], window.re_range[1], nx)
    im = np.linspace(window.im_range[0], window.im_range[1], ny)
    grid = NystromGrid.build(curve, window.quad_n)
    sig = np.empty((nx, ny))
    cond = np.empty((nx, ny))
    for i in range(nx):
        for j in range(ny):
            res = sigma_min_boundary_operator(grid, complex(re[i], im[j]), window.h, pot)
            sig[i, j] = res.sigma_min
            cond[i, j] = res.cond
    return ScanField(re=re, im=im, sigma_min=sig, cond=cond)


def _local_minima(field: ScanField) -> list[complex]:
    """Strict local minima of sigma_min (one-sided at window edges)."""
    sig = field.sigma_min
    nx, ny = sig.shape
    out = []
    for i in range(nx):
        for j in range(ny):
            val = sig[i, j]
            neighbors = []
            if i > 0:
                neighbors.append(sig[i - 1, j])
            if i < nx - 1:
                neighbors.append(sig[i + 1, j])
            if j > 0:
                neighbors.append(sig[i, j - 1])
            if j < ny - 1:
                neighbors.append(sig[i, j + 1])
            if neighbors and all(val < nb for nb in neighbors):
                out.append(complex(field.re[i], field.im[j]))
    return out


def refine(z_start: complex, curve: BoundaryCurve, pot: PotentialSpec, h: float,
           quad_n: int, window: SearchWindow = None) -> ResonanceCandidate:
    """Simplex minimization of sigma_min from a coarse-field minimum.

    The initial simplex spans about one coarse cell and a penalty wall keeps
    the search in the seed's basin (resonances can sit a few cells apart).
    Accepts the converged point iff sigma_min < accept_tolerance(quad_n) and
    the condition number exceeds its reciprocal.  A window, when given, only
    sets the simplex scale to its coarse cell; the caller keeps or drops the
    root by the window.
    """
    grid = NystromGrid.build(curve, quad_n)
    big = 1e6
    if window is not None:
        nx, ny = window.coarse_grid
        cell_re = (window.re_range[1] - window.re_range[0]) / max(nx - 1, 1)
        cell_im = (window.im_range[1] - window.im_range[0]) / max(ny - 1, 1)
        scale = 0.6 * max(cell_re, cell_im)
    else:
        scale = h / 20.0
    drift_cap = 10.0 * scale

    def objective(x):
        z = complex(x[0], x[1])
        if z.imag > 0.0:
            return big + z.imag
        if abs(z - z_start) > drift_cap:
            return big + abs(z - z_start)
        try:
            return sigma_min_boundary_operator(grid, z, h, pot).sigma_min
        except SabineLabError:
            return big

    result = minimize(
        objective, [z_start.real, z_start.imag], method="Nelder-Mead",
        options={
            "initial_simplex": [
                [z_start.real, z_start.imag],
                [z_start.real + scale, z_start.imag],
                [z_start.real, z_start.imag + scale],
            ],
            "xatol": _SIMPLEX_DIAMETER,
            "fatol": 1e-6,
            "maxiter": 250,
        },
    )
    z = complex(result.x[0], min(result.x[1], 0.0))
    conditioning = sigma_min_boundary_operator(grid, z, h, pot)
    tol = accept_tolerance(quad_n)
    if not (conditioning.sigma_min < tol and conditioning.cond > 1.0 / tol):
        raise NotAResonanceError(
            f"local minimum at {z} fails gates: sigma_min={conditioning.sigma_min:.3e} "
            f"(need < {tol:.1e}), cond={conditioning.cond:.3e} (need > {1.0 / tol:.1e})"
        )
    return ResonanceCandidate(
        z=z, h=h, residual=conditioning.sigma_min,
        provenance=BieProvenance(sigma_min=conditioning.sigma_min,
                                 cond=conditioning.cond,
                                 quad_n=quad_n, start=complex(z_start)),
    )


def find_resonances(window: SearchWindow, curve: BoundaryCurve, pot: PotentialSpec,
                    compute_margins: bool = True) -> list[ResonanceCandidate]:
    """Scan, refine and gate: all accepted resonances in the window.

    Candidates are deduplicated at 1e-6, sorted by real part, and (when
    compute_margins) annotated with the margin -Im z / h minus the averaged
    decay-rate bound of the window's curve.
    """
    field = scan(window, curve, pot)
    seeds = sorted(_local_minima(field), key=lambda z: (z.real, z.imag))

    def refine_seed(seed):
        try:
            return refine(seed, curve, pot, window.h, window.quad_n, window=window)
        except NotAResonanceError:
            return None

    results = [refine_seed(seed) for seed in seeds]
    accepted = [cand for cand in results
                if cand is not None and window.contains(cand.z)]
    deduped = _dedup(accepted, lambda c: (c.z.real, c.z.imag), _DEDUP_TOL)
    if compute_margins and deduped:
        bound = sabine_gap(curve, window.h, pot, Model.DELTA).bound
        deduped = [
            ResonanceCandidate(
                z=c.z, h=c.h, residual=c.residual, provenance=c.provenance,
                sabine_margin=(-c.z.imag / window.h) - bound,
            )
            for c in deduped
        ]
    return deduped
