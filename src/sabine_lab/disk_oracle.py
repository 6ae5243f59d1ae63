"""Exact resonances of the unit disk by per-mode transcendental solving.

Separation of variables reduces the disk problem to one transcendental
equation per angular mode n, built from products of Bessel and Hankel
functions at argument z/h.  Enumerating n >= 0 is complete: the equations
involve n only through J_n*H1_n products, which modes n and -n share.
Each root is reached by plain Newton from a lattice initial guess
(phase-corrected for higher modes) and must stay in that guess's lattice
cell.  A root that lands in the window then gets one sampled contraction
check: the Newton-Kantorovich condition for a unique root near it, with the
variation of F' over a disk taken as the largest of 8 samples on its
boundary circle, not a proven bound.  Each evaluation takes F and F' from
one Bessel call at its point.  Serves as ground truth for the
boundary-integral search.
"""

from __future__ import annotations

import cmath
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Optional, Union

from . import specfun
from .billiards import Model, PotentialSpec, _check_h
from .errors import NewtonConditionError, NewtonConvergenceError, SabineLabError, WindowMissError

logger = logging.getLogger(__name__)

_RESIDUAL_TOL = 1e-10
_DEDUP_TOL = 1e-8
_MAX_ITER = 100
DEFAULT_WINDOW = (0.5, 1.5)


@dataclass(frozen=True)
class OracleProvenance:
    """Mode (n, k) of a disk root, the factor L/b of its sampled contraction
    check (``_contraction_check``) and the Newton steps that reached it."""

    n: int
    k: int
    model: Model
    contraction: float
    iterations: int


@dataclass(frozen=True)
class BieProvenance:
    """Gate values at a boundary-integral root, its quad_N, the coarse seed
    it was refined from, and the secant steps that polished it with the
    last step's |dz|."""

    sigma_min: float
    cond: float
    quad_n: int
    start: complex
    secant_steps: int
    last_step: float


@dataclass(frozen=True)
class ResonanceCandidate:
    """A located resonance in rescaled coordinates (z = h * lambda)."""

    z: complex
    h: float
    residual: float
    provenance: Union[OracleProvenance, BieProvenance]
    sabine_margin: Optional[float] = None


# ---------------------------------------------------------------------------
# Newton solve and its sampled contraction check
# ---------------------------------------------------------------------------

def _newton(f, z0: complex, eps0: float):
    """Newton from the guess z0; returns the root z, F(z), F'(z) and the steps.

    f(z) returns the pair (F, F') at z.  eps0 is a quarter of the lattice
    spacing of the mode's roots.  Newton takes a fresh derivative at every
    iterate and must stay in the guess's lattice cell |z - z0| <= 4 eps0:
    a path that leaves it would return a neighbouring root, so it raises
    instead.
    """
    z, (fz, dfz) = z0, f(z0)
    steps = 0
    while abs(fz) >= 1e-14:
        if dfz == 0 or steps == _MAX_ITER:
            raise NewtonConvergenceError(f"Newton from {z0} stalled at {z} after {steps} steps")
        step = fz / dfz
        z -= step
        steps += 1
        if abs(z - z0) > 4.0 * eps0:
            raise NewtonConvergenceError(f"Newton from {z0} left its lattice cell at {z}")
        fz, dfz = f(z)
        if abs(step) < 1e-15 * abs(z):
            break
    return z, fz, dfz, steps


def _derivative_variation(f, center: complex, dfz: complex, eps: float) -> float:
    """Sampled L: max |F'(w) - F'(center)| over 8 points w of the eps-circle.
    The maximum over the disk lies on that circle; 8 samples do not bound it."""
    return max(abs(f(center + eps * cmath.exp(2j * math.pi * j / 8.0))[1] - dfz)
               for j in range(8))


def _contraction_check(f, z: complex, fz: complex, dfz: complex, eps0: float) -> float:
    """Sampled contraction check at a Newton root z; returns the factor L/b.

    With a = |F(z)|, b = |F'(z)| and L from ``_derivative_variation``,
    requires a + L*eps < eps*b.  The frozen-derivative map T(w) = w -
    F(w)/F'(z) has T'(w) = (F'(z) - F'(w))/F'(z), and by the maximum-modulus
    principle |F'(w) - F'(z)| over |w - z| <= eps peaks on the circle: were L
    that peak, T would contract the disk into itself with factor L/b, and z
    would be the only root in it.  The radius eps puts eps*b at 0.45, or is
    eps0 if that is smaller.
    """
    a, b = abs(fz), abs(dfz)
    eps = min(eps0, 0.45 / b)
    lip = _derivative_variation(f, z, dfz, eps)
    if not a + lip * eps < eps * b:
        raise NewtonConditionError(f"contraction condition failed: a={a:.3e}, b={b:.3e}, "
                                   f"L={lip:.3e}, eps={eps:.3e} (need a + L*eps < eps*b)")
    return lip / b


# ---------------------------------------------------------------------------
# mode equations and lattice guesses
# ---------------------------------------------------------------------------

def mode_equation(n: int, h: float, pot: PotentialSpec, model: Model):
    """The per-mode transcendental function as f(z) -> (F, F').

    delta:       F(z) = 1 - (pi sigma / 2i) J_n(z/h) H1_n(z/h)
    delta-prime: F(z) = 1 + (pi sigma z^2 / 2i h^2) J_n'(z/h) H1_n'(z/h)

    with the barrier strength sigma = ``pot.symbol(0, h, model)``.  Each
    call makes one ``specfun.bessel_quad`` evaluation, at lam = z/h.
    """
    if not pot.is_constant:
        raise ValueError("the disk oracle requires a constant potential profile")
    delta = model is Model.DELTA
    sigma = pot.symbol(0.0, h, model)
    # 1 - (pi x / 2i) w = 1 + (i pi x / 2) w, and 1 + (pi x / 2i) w = 1 - (i pi x / 2) w
    coeff = 0.5j * math.pi * sigma if delta else -0.5j * math.pi * sigma / (h * h)

    def f(z: complex):
        lam = z / h
        ev = specfun.bessel_quad(n, lam)
        # z-derivatives are lam-derivatives over h
        if delta:
            return (1.0 + coeff * (ev.J * ev.H1),
                    coeff * (ev.Jp / h * ev.H1 + ev.J * (ev.H1p / h)))
        # J'' and H1'' from Bessel's equation y'' = -y'/lam + q y
        q = n * n / (lam * lam) - 1.0
        jpp, hpp = -ev.Jp / lam + q * ev.J, -ev.H1p / lam + q * ev.H1
        p0, p1 = ev.Jp * ev.H1p, jpp / h * ev.H1p + ev.Jp * (hpp / h)
        zz = z * z
        return 1.0 + coeff * (zz * p0), coeff * (2.0 * z * p0 + zz * p1)

    return f


def _phase(lam: float, n: int) -> float:
    """Oscillation phase of J_n H1_n along the real axis (Debye regime)."""
    return 2.0 * math.sqrt(lam * lam - n * n) - 2.0 * n * math.acos(n / lam) - 0.5 * math.pi


def _anchor_lambda(n: int, k: int) -> float:
    """Real frequency where the mode-n phase completes k full turns.

    For n = 0 this is the closed-form lattice pi(4k + 2n + 1)/4; for n >= 1
    the same winding condition is solved on the phase with its tangential
    shift, which keeps the guesses usable up to moderately glancing modes.
    """
    target = 2.0 * math.pi * k
    if n == 0:
        return math.pi * (4 * k + 1) / 4.0
    lam = max(math.pi * (4 * k + 2 * n + 1) / 4.0, n * 1.02 + 0.5)
    for _ in range(60):
        step = (_phase(lam, n) - target) / (2.0 * math.sqrt(lam * lam - n * n) / lam)
        lam, lam_old = max(lam - step, n * (1.0 + 1e-9)), lam
        if abs(lam - lam_old) < 1e-14 * lam_old:
            break
    return lam


def mode_guess(n: int, lam: float, h: float, pot: PotentialSpec, model: Model) -> complex:
    """Initial guess z0 = h*(lam + displacement) for the root anchored at lam.

    The displacement solves the leading asymptotic model of the mode
    equation: e^{i Phi} = B with B = 2i*lam*xi1/sigma - 1 (delta) or
    B = 1 + 2i/(lam*xi1*sigma) (delta-prime), sigma = ``pot.symbol(0, h,
    model)``; for n = 0 this reduces to the -i(h/2)log(...) lattice formula.
    """
    xi1 = math.sqrt(max(1e-300, 1.0 - (n / lam) ** 2))
    sigma = pot.symbol(0.0, h, model)
    if model is Model.DELTA:
        big_b = 2j * lam * xi1 / sigma - 1.0
    else:
        big_b = 1.0 + 2j / (lam * xi1 * sigma)
    displacement = -1j * cmath.log(big_b) / (2.0 * xi1)
    return h * (lam + displacement)


def _solve_mode(n: int, k: int, h: float, pot: PotentialSpec, model: Model,
                window) -> ResonanceCandidate:
    """The root of mode (n, k), which must land in the window lo <= Re z <= hi."""
    lam = _anchor_lambda(n, k)
    if lam <= n * (1.0 + 1e-9):
        raise WindowMissError(f"mode (n={n}, k={k}) anchors at glancing")
    f = mode_equation(n, h, pot, model)
    eps0 = math.pi * h / 4.0
    z0, (lo, hi) = mode_guess(n, lam, h, pot, model), window
    # Newton stays in its lattice cell |z - z0| <= 4 eps0
    if not lo - 4.0 * eps0 <= z0.real <= hi + 4.0 * eps0:
        raise WindowMissError(f"mode (n={n}, k={k}) guess {z0:.6f} cannot reach the window")
    z, fz, dfz, steps = _newton(f, z0, eps0)
    if abs(fz) >= _RESIDUAL_TOL:
        raise NewtonConvergenceError(f"mode (n={n}, k={k}) residual {abs(fz):.3e} "
                                     f"above {_RESIDUAL_TOL}")
    if z.imag >= 0.0:
        raise NewtonConvergenceError(f"mode (n={n}, k={k}) converged to nonnegative "
                                     f"Im z = {z.imag:.3e}")
    if not lo <= z.real <= hi:
        raise WindowMissError(f"mode (n={n}, k={k}) root Re z = {z.real:.6f} "
                              f"outside window [{lo}, {hi}]")
    contraction = _contraction_check(f, z, fz, dfz, eps0)
    return ResonanceCandidate(z=z, h=h, residual=abs(fz), provenance=OracleProvenance(
        n=n, k=k, model=model, contraction=contraction, iterations=steps))


def check_alpha(pot: PotentialSpec, model: Model) -> None:
    """The oracle's range of the strength exponent: alpha < 1 for the delta
    barrier, alpha > 1/2 for the delta-prime barrier."""
    if model is Model.DELTA and not pot.alpha < 1.0:
        raise ValueError(f"alpha must lie below 1 for the delta oracle, got {pot.alpha}")
    if model is Model.DELTA_PRIME and not pot.alpha > 0.5:
        raise ValueError(f"alpha must exceed 1/2 for the delta-prime oracle, got {pot.alpha}")


def check_window(h: float, window) -> None:
    """The sweep's range of the window: finite, with its top frequency HI/h
    inside the Bessel region Re lambda <= specfun.REGION_RE_MAX, and LO <= HI."""
    lo, hi = window
    if not (math.isfinite(lo) and hi / h <= specfun.REGION_RE_MAX):
        raise ValueError(f"window {window} at h = {h} must stay finite in lambda = z/h, "
                         f"with HI/h at most {specfun.REGION_RE_MAX:g}")
    if not lo <= hi:
        raise ValueError(f"window {window} must have LO <= HI")


def _check_inputs(h: float, pot: PotentialSpec, model: Model, window) -> None:
    """The oracle's entry checks, each raising ValueError: h in (0, 1), alpha, window."""
    _check_h(h)
    check_alpha(pot, model)
    check_window(h, window)


def mode_resonance(n: int, k: int, h: float, pot: PotentialSpec, model: Model,
                   window=DEFAULT_WINDOW) -> ResonanceCandidate:
    """Resonance of mode (n, k).  Before any Bessel call n and k must be
    nonnegative integers and the other inputs pass ``_check_inputs``; a root
    outside the window raises WindowMissError.

    For delta-prime at n = 0 the large-argument expansion J_1 H1_1 = (1 +
    e^{2i(lam - 3pi/4)}) / (pi lam) + O(lam^-2) turns F(z) = 0 into the decay law

        -Im z = (h/4) log(1 + 4 h^(2-2 alpha) / (V0^2 (Re z)^2)) + O(h^2),

    which tends to h^(3-2 alpha) / V0^2 as h -> 0 (Re z of order 1). The
    ratio to that limit is about log(1+y)/y with y = 4 h^(2-2 alpha) / V0^2,
    so at alpha near 1 it approaches 1 only slowly.
    """
    if not all(m >= 0 and float(m).is_integer() for m in (n, k)):
        raise ValueError(f"mode (n={n}, k={k}) must be a pair of nonnegative integers")
    _check_inputs(h, pot, model, window)
    return _solve_mode(n, k, h, pot, model, window)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def mode_sweep(h: float, pot: PotentialSpec, model: Model, n_max: int,
               window=DEFAULT_WINDOW) -> list[ResonanceCandidate]:
    """All per-mode resonances whose roots land in the window.

    Lattice anchors are enumerated over the window widened by two spacings
    (roots sit about a quarter spacing right of their anchors and shift
    further for higher modes); each solve keeps its root only if it lands in
    the window, and only a kept root is checked; a guess farther from the
    window than its lattice cell's radius pi h is not solved.  A root outside
    the window is skipped silently; other per-mode failures are logged and
    skipped, never fatal; anchors stop at specfun.REGION_RE_MAX, and modes at
    the first glancing one, n >= 0.995 lam_hi, with one warning.  Inputs that
    fail ``_check_inputs`` raise ValueError before any mode is tried.
    """
    _check_inputs(h, pot, model, window)
    lo, hi = window
    if lo == hi:
        return []
    margin = 2.0 * math.pi * h
    lam_lo = max((lo - margin) / h, 1e-6)
    lam_hi = min((hi + margin) / h, specfun.REGION_RE_MAX)
    out: list[ResonanceCandidate] = []
    for n in range(n_max + 1):
        if n >= 0.995 * lam_hi:
            logger.warning("modes n=%d..%d are glancing/elliptic for the window; skipped",
                           n, n_max)
            break
        lam_start = max(lam_lo, n * 1.005 + 1e-9)
        k_lo = max(0, math.ceil(_phase(lam_start, n) / (2.0 * math.pi)))
        k_hi = math.floor(_phase(lam_hi, n) / (2.0 * math.pi))
        for k in range(k_lo, k_hi + 1):
            try:
                out.append(_solve_mode(n, k, h, pot, model, window))
            except WindowMissError:
                continue
            except SabineLabError as exc:
                logger.warning("mode (n=%d, k=%d) failed: %s", n, k, exc)
    return _dedup(out, lambda c: (c.z.real, c.provenance.n), _DEDUP_TOL)


def _dedup(cands, key, tol: float) -> list[ResonanceCandidate]:
    """The candidates sorted by key, each dropped when it lies within tol of
    one kept before it.  The key sorts by Re z first, so only the kept tail
    with Re z above Re z_cand - tol can match."""
    kept: list[ResonanceCandidate] = []
    for cand in sorted(cands, key=key):
        tail = itertools.takewhile(lambda k: cand.z.real - k.z.real < tol, reversed(kept))
        if not any(abs(cand.z - k.z) < tol for k in tail):
            kept.append(cand)
    return kept
