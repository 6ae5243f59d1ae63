"""Resonance location for I + G(z/h)V by sigma_min landscape search.

A coarse rectangular scan of the complex window produces the smallest
singular value and condition number of the discretized boundary operator at
every node.  From each strict local minimum a derivative-free simplex on
sigma_min (singular values are non-smooth at crossings) picks the root's
basin, to a diameter of 1e-4; secant steps on an analytic scalar function of
the symmetry block that holds sigma_min there (``bie.block_function``) then
set the digits, to a step below 1e-12.  The polish is guarded: a step that
leaves the basin's reach or the lower half-plane, a repeated value, the step
cap or a failed solve drops the seed.  Survivors are gated by residual and
conditioning thresholds before being reported as resonances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .bie import NystromGrid, block_function, sigma_min_boundary_operator
from .billiards import Model, PotentialSpec, _check_count, _check_h, sabine_gap
from .disk_oracle import BieProvenance, ResonanceCandidate, _dedup
from .errors import NotAResonanceError, SabineLabError
from .geometry import BoundaryCurve

_DEDUP_TOL = 1e-6
_STRIP_FACTOR = 8.0
_BASIN_DIAMETER = 1e-4     # the simplex only picks the root's basin
_SECANT_TOL = 1e-12        # the polish stops at a step below this
_SECANT_STEPS = 20


def accept_tolerance(quad_n: int) -> float:
    """Residual gate scaled with discretization: 1e-9 * (256 / N)."""
    return 1e-9 * (256.0 / quad_n)


@dataclass(frozen=True)
class SearchWindow:
    """Complex search rectangle in rescaled coordinates (Im z <= 0).

    Both ranges must be finite, the real range must be positive (the Hankel
    kernel needs Re z > 0), and the imaginary range must stay inside the
    logarithmic strip [-8 h log(1/h), 0].
    """

    re_range: tuple
    im_range: tuple
    coarse_grid: tuple
    h: float
    quad_n: int

    def __post_init__(self):
        _check_h(self.h)
        re_lo, re_hi = self.re_range
        im_lo, im_hi = self.im_range
        if not all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi))):
            raise ValueError(f"re_range {self.re_range} and im_range {self.im_range} "
                             "must be finite")
        if not (re_lo < re_hi):
            raise ValueError("re_range must be increasing")
        if not re_lo > 0.0:
            raise ValueError(f"re_range {self.re_range} must be positive")
        if not (im_lo < im_hi <= 0.0):
            raise ValueError("im_range must be increasing and nonpositive")
        strip = _STRIP_FACTOR * self.h * math.log(1.0 / self.h)
        if im_lo < -strip - 1e-15:
            raise ValueError(
                f"im_range reaches {im_lo}, below the logarithmic strip "
                f"-{strip:.6g} = -{_STRIP_FACTOR:g} h log(1/h)"
            )
        nx, ny = self.coarse_grid
        _check_count("coarse_grid", nx, 1)
        _check_count("coarse_grid", ny, 1)

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
    """Strict local minima of sigma_min (one-sided at window edges), in
    row-major order; a 1 x 1 grid has none."""
    sig = field.sigma_min
    if sig.size == 1:
        return []
    pad = np.pad(sig, 1, constant_values=np.inf)
    strict = ((sig < pad[:-2, 1:-1]) & (sig < pad[2:, 1:-1])
              & (sig < pad[1:-1, :-2]) & (sig < pad[1:-1, 2:]))
    return [complex(field.re[i], field.im[j]) for i, j in zip(*np.nonzero(strict))]


def refine(z_start: complex, curve: BoundaryCurve, pot: PotentialSpec, h: float,
           quad_n: int, window: SearchWindow = None) -> ResonanceCandidate:
    """The resonance in the basin of a coarse-field minimum: the basin by a
    simplex on sigma_min, the digits by secant steps.

    The initial simplex spans about one coarse cell and a penalty wall keeps
    it in the seed's basin (resonances can sit a few cells apart); it stops
    at a diameter of 1e-4.  From its two best vertices secant steps on the
    analytic function ``bie.block_function`` of the block that holds sigma_min
    at the best vertex z_NM run until a step is below 1e-12.  The polish is
    guarded: it raises NotAResonanceError when a step leaves |z - z_NM| <=
    scale (0.6 of a coarse cell, h / 20 without a window) or the closed
    lower half-plane, when f takes one value twice, after 20 steps, or when a
    solve or the frequency check fails.  The polished point is accepted iff
    sigma_min < accept_tolerance(quad_n) and the condition number exceeds its
    reciprocal.  A window, when given, only sets the scale to its coarse
    cell; the caller keeps or drops the root by the window.
    """
    _check_h(h)
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
            "xatol": _BASIN_DIAMETER,
            "fatol": math.inf,
            "maxiter": 250,
        },
    )
    z, steps, last_step = _secant_polish(grid, result.final_simplex[0], h, pot, scale)
    conditioning = sigma_min_boundary_operator(grid, z, h, pot)
    tol = accept_tolerance(quad_n)
    if not (conditioning.sigma_min < tol and conditioning.cond > 1.0 / tol):
        raise NotAResonanceError(
            f"polished root at {z} fails gates: sigma_min={conditioning.sigma_min:.3e} "
            f"(need < {tol:.1e}), cond={conditioning.cond:.3e} (need > {1.0 / tol:.1e})"
        )
    return ResonanceCandidate(
        z=z, h=h, residual=conditioning.sigma_min,
        provenance=BieProvenance(sigma_min=conditioning.sigma_min,
                                 cond=conditioning.cond,
                                 quad_n=quad_n, start=complex(z_start),
                                 secant_steps=steps, last_step=last_step),
    )


def _secant_polish(grid: NystromGrid, vertices: np.ndarray, h: float, pot: PotentialSpec,
                   reach: float) -> tuple[complex, int, float]:
    """Secant steps from the two best simplex vertices to the zero of the
    block function picked at the best one, z_NM; returns the root, the steps
    taken and the last |dz|.  Raises NotAResonanceError as ``refine`` says."""
    z0, z1 = (complex(x, y) for x, y in vertices[:2])
    z_nm = z0

    def guarded(call, *args):
        try:
            return call(*args)
        except (np.linalg.LinAlgError, SabineLabError) as exc:
            raise NotAResonanceError(f"secant polish from {z_nm} failed: {exc}") from exc

    f, f0 = guarded(block_function, grid, z0, h, pot)
    f1 = guarded(f, z1)
    for step in range(1, _SECANT_STEPS + 1):
        if f1 == f0:
            raise NotAResonanceError(f"secant polish from {z_nm}: f({z1}) = f({z0})")
        dz = -f1 * (z1 - z0) / (f1 - f0)
        z0, f0, z1 = z1, f1, z1 + dz
        if not (abs(z1 - z_nm) <= reach and z1.imag <= 0.0):
            raise NotAResonanceError(
                f"secant polish from {z_nm} left its basin |z - z_NM| <= {reach:.3g} "
                f"in Im z <= 0 at {z1}")
        if abs(dz) < _SECANT_TOL:
            return z1, step, abs(dz)
        f1 = guarded(f, z1)
    raise NotAResonanceError(
        f"secant polish from {z_nm} took {_SECANT_STEPS} steps without |dz| < {_SECANT_TOL:g}")


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
        deduped = [replace(c, sabine_margin=(-c.z.imag / window.h) - bound)
                   for c in deduped]
    return deduped
