"""Complex-argument Bessel and Hankel functions of integer order.

The scalar functions (``bessel_j``, ``hankel1``, ``bessel_j_deriv``,
``bessel_quad``, ``bessel_row``) evaluate scipy.special's ``jv``,
``hankel1`` and ``hankel2``, which wrap the AMOS routines (D. E. Amos, ACM
TOMS 12 (1986) 265-273), behind the lab's guards: arguments must lie in the
validated strip Re z in (0, 2000], |Im z| <= 50 (``RegionError``), orders
above 4|z| + 200 are refused and rows that leave double range are reported
(``RecurrenceBudgetError``).  Derivatives come from the neighbour identity
J_n' = (J_{n-1} - J_{n+1})/2.

``j0_h0_arrays`` is the in-house vectorized order-0 pair for kernel
assembly: plain-double series and large-argument Hankel expansions, banded
by magnitude, which is faster than AMOS on the kernel's point sets.

Everything here is stateless and pure.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import RecurrenceBudgetError, RegionError, ZeroArgumentError

# Validated argument region (resonance strip plus margin).
REGION_RE_MAX = 2000.0
REGION_IM_MAX = 50.0

_VEC_SERIES_RADIUS = 12.0    # vectorized switch (plain-double series below)


def _check_region(z: complex, allow_zero: bool = False) -> complex:
    z = complex(z)
    if z == 0:
        if allow_zero:
            return z
        raise ZeroArgumentError("Hankel functions are singular at z = 0")
    if not (0.0 < z.real <= REGION_RE_MAX) or abs(z.imag) > REGION_IM_MAX:
        raise RegionError(
            f"argument {z} outside validated region "
            f"Re z in (0, {REGION_RE_MAX}], |Im z| <= {REGION_IM_MAX}"
        )
    return z


def _j_h1(n_lo: int, n_hi: int, z: complex):
    """Lists of J_n(z) and H^(1)_n(z) for the orders n_lo..n_hi."""
    orders = np.arange(n_lo, n_hi + 1, dtype=float)
    h1 = special.hankel1(orders, z)
    # Below the turning point n = |z| both J_n and H1_n oscillate, and the
    # Wronskian-type products J H1' - J' H1 of the mode equations pick up
    # e^{2|Im z|} times any independent error of J and H1: jv next to
    # hankel1 gives 7e-11 at n = 86, z = 164.0 - 4.66i.  J = (H1 + H2)/2
    # shares H1's phase error, so the H1 H1' terms cancel exactly and leave
    # H2 H1' - H2' H1 (at most 3.3e-12 over 40,000 random (n, z) with
    # |Im z| <= 5).  Above the turning point J is exponentially smaller than
    # H1 and H2, and the sum would cancel catastrophically, so jv takes over.
    split = int(np.count_nonzero(orders < abs(z)))
    j = np.empty_like(h1)
    j[:split] = 0.5 * (h1[:split] + special.hankel2(orders[:split], z))
    j[split:] = special.jv(orders[split:], z)
    return j.tolist(), h1.tolist()


# ---------------------------------------------------------------------------
# public scalar API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselEval:
    """J_n, J_n', H1_n, H1_n' at a common argument."""

    n: int
    z: complex
    J: complex
    Jp: complex
    H1: complex
    H1p: complex

    def wronskian(self) -> complex:
        """J*H1' - J'*H1; analytically 2i/(pi z)."""
        return self.J * self.H1p - self.Jp * self.H1


def _require_order(n: int) -> int:
    if n < 0 or int(n) != n:
        raise ValueError(f"order must be a nonnegative integer, got {n}")
    return int(n)


def _budget(n: int, z: complex) -> None:
    if n > 4.0 * abs(z) + 200.0:
        raise RecurrenceBudgetError(
            f"order {n} exceeds the order budget 4|z|+200 at |z|={abs(z):.3g}"
        )


def _deriv(row: list, i: int) -> complex:
    """d/dz of row[i] by the neighbour identity; i == 0 means order 0."""
    if i == 0:
        return -row[1]
    return 0.5 * (row[i - 1] - row[i + 1])


def bessel_j(n: int, z: complex) -> complex:
    """Bessel function of the first kind J_n(z)."""
    n = _require_order(n)
    z = _check_region(z, allow_zero=True)
    if z == 0:
        return 1.0 + 0.0j if n == 0 else 0.0 + 0.0j
    _budget(n, z)
    return _j_h1(n, n, z)[0][0]


def hankel1(n: int, z: complex) -> complex:
    """Hankel function of the first kind H^(1)_n(z)."""
    n = _require_order(n)
    z = _check_region(z)
    _budget(n, z)
    return complex(special.hankel1(n, z))


def bessel_j_deriv(n: int, z: complex) -> complex:
    """d/dz J_n(z) via the neighbor identity."""
    n = _require_order(n)
    z = _check_region(z, allow_zero=True)
    if z == 0:
        if n == 1:
            return 0.5 + 0.0j
        return 0.0 + 0.0j
    _budget(n + 1, z)
    lo = max(n - 1, 0)
    return _deriv(_j_h1(lo, n + 1, z)[0], n - lo)


def bessel_quad(n: int, z: complex) -> BesselEval:
    """J, J', H1, H1' at z in one evaluation (orders max(n-1, 0)..n+1)."""
    n = _require_order(n)
    z = _check_region(z)
    _budget(n + 1, z)
    lo = max(n - 1, 0)
    jrow, hrow = _j_h1(lo, n + 1, z)
    i = n - lo
    return BesselEval(n=n, z=z, J=jrow[i], Jp=_deriv(jrow, i),
                      H1=hrow[i], H1p=_deriv(hrow, i))


def bessel_row(n_max: int, z: complex) -> list[BesselEval]:
    """BesselEval for every order 0..n_max at a common argument."""
    n_max = _require_order(n_max)
    z = _check_region(z)
    _budget(n_max, z)
    jrow, hrow = _j_h1(0, n_max + 1, z)
    out = []
    for n in range(n_max + 1):
        hp = _deriv(hrow, n)
        if not (cmath.isfinite(hrow[n]) and cmath.isfinite(hp)):
            raise RecurrenceBudgetError(
                f"H_{n}({z}) exceeds double range; row not representable"
            )
        out.append(BesselEval(n=n, z=z, J=jrow[n], Jp=_deriv(jrow, n),
                              H1=hrow[n], H1p=hp))
    return out


# ---------------------------------------------------------------------------
# vectorized order-0 pair for boundary-integral kernels
# ---------------------------------------------------------------------------

def _j0_h0_series_band(ws: np.ndarray, kmax: int):
    # the harmonic companion shares the base term (-x)^k/(k!)^2 with J0
    x = ws * ws * 0.25
    term = np.ones_like(ws)
    j = term.copy()
    s = np.zeros_like(ws)
    hk = 0.0
    for k in range(1, kmax):
        term *= x
        term /= -(k * k)
        j += term
        hk += 1.0 / k
        s -= term * hk
        if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(j)), 1e-300):
            break
    y = (2.0 / np.pi) * ((np.log(ws / 2.0) + np.euler_gamma) * j + s)
    return j, j + 1j * y


def _j0_h0_asym_band(wb: np.ndarray, kmax: int):
    # the incoming-wave sum has terms (-1)^k times the outgoing ones
    pref = np.sqrt(2.0 / (np.pi * wb))
    e1 = pref * np.exp(1j * (wb - 0.25 * np.pi))
    e2 = pref * np.exp(-1j * (wb - 0.25 * np.pi))
    s1 = np.ones_like(wb)
    s2 = np.ones_like(wb)
    t1 = np.ones_like(wb)
    prev = np.ones(wb.shape)
    live = np.ones(wb.shape, dtype=bool)
    sign = 1.0
    for k in range(1, kmax):
        fac = (-((2 * k - 1) ** 2)) / (8.0 * k)
        t1 = t1 * (1j * fac) / wb
        sign = -sign
        mag = np.abs(t1)
        live &= mag < prev
        if not live.any():
            break
        s1[live] += t1[live]
        s2[live] += sign * t1[live]
        prev = mag
        if np.max(mag) < 1e-17:
            break
    h1k = e1 * s1
    h2k = e2 * s2
    return 0.5 * (h1k + h2k), h1k


def j0_h0_arrays(w: np.ndarray):
    """J0(w) and H^(1)_0(w) elementwise over a complex array.

    Plain-double regime switching at |w| = 12, banded by magnitude so the
    series/expansion loops run only as long as the band needs; intended for
    kernel assembly where ~1e-11 relative accuracy suffices.  Entries with
    w == 0 must be excluded by the caller.
    """
    w = np.asarray(w, dtype=np.complex128)
    j0 = np.empty_like(w)
    h0 = np.empty_like(w)
    aw = np.abs(w)
    for lo, hi, kmax, evaluator in (
        (-1.0, 3.0, 14, _j0_h0_series_band),
        (3.0, 7.0, 28, _j0_h0_series_band),
        (7.0, _VEC_SERIES_RADIUS, 46, _j0_h0_series_band),
        (_VEC_SERIES_RADIUS, 30.0, 34, _j0_h0_asym_band),
        (30.0, np.inf, 16, _j0_h0_asym_band),
    ):
        m = (aw > lo) & (aw <= hi) if np.isfinite(hi) else (aw > lo)
        if m.any():
            j0[m], h0[m] = evaluator(w[m], kmax)
    return j0, h0
