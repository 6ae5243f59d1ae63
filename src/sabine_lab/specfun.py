"""Complex-argument Bessel and Hankel functions of integer order.

``bessel_quad`` evaluates J_n, J_n', H1_n and H1_n' at one argument from
scipy.special's ``jv``, ``hankel1`` and ``hankel2``, which wrap the AMOS
routines (D. E. Amos, ACM TOMS 12 (1986) 265-273), behind the lab's guards:
arguments must lie in the validated strip Re z in (0, 2000], |Im z| <= 50
(``RegionError``), orders above 4|z| + 200 are refused and Hankel values
that leave double range are reported (``RecurrenceBudgetError``).
Derivatives come from the neighbour identity J_n' = (J_{n-1} - J_{n+1})/2.

``j0_h0_arrays`` is the in-house vectorized order-0 pair for kernel
assembly: the plain-double power series below |w| = 12 and the
large-argument Hankel expansion above, each summed as one table of terms
in a fixed number of whole-array calls, which is faster than AMOS on the
kernel's point sets.

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


def _check_region(z: complex) -> complex:
    z = complex(z)
    if z == 0:
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
# scalar quadruple for the mode equations
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


def _deriv(row: list, i: int) -> complex:
    """d/dz of row[i] by the neighbour identity; i == 0 means order 0."""
    if i == 0:
        return -row[1]
    return 0.5 * (row[i - 1] - row[i + 1])


def bessel_quad(n: int, z: complex) -> BesselEval:
    """J, J', H1, H1' at z in one evaluation (orders max(n-1, 0)..n+1)."""
    n = _require_order(n)
    z = _check_region(z)
    if n + 1 > 4.0 * abs(z) + 200.0:
        raise RecurrenceBudgetError(
            f"order {n + 1} exceeds the order budget 4|z|+200 at |z|={abs(z):.3g}"
        )
    lo = max(n - 1, 0)
    jrow, hrow = _j_h1(lo, n + 1, z)
    i = n - lo
    hp = _deriv(hrow, i)
    if not (cmath.isfinite(hrow[i]) and cmath.isfinite(hp)):
        # H_n(z) or H_n'(z) left double range (nan or inf)
        raise RecurrenceBudgetError(
            f"H_{n}({z}) exceeds double range; not representable"
        )
    return BesselEval(n=n, z=z, J=jrow[i], Jp=_deriv(jrow, i),
                      H1=hrow[i], H1p=hp)


# ---------------------------------------------------------------------------
# vectorized order-0 pair for boundary-integral kernels
# ---------------------------------------------------------------------------

def _j0_h0_series(ws: np.ndarray):
    # J0's terms t_k = (-x)^k/(k!)^2, x = w^2/4, are running products of the
    # ratios -x/k^2; the harmonic companion sum is -sum_k H_k t_k.  K terms
    # suffice once the bound m^K/(K!)^2 on |t_K| (m = max|x|) is below 1e-18.
    x = ws * ws * 0.25
    k = np.arange(1, 46)
    small = np.cumprod(np.max(np.abs(x)) / (k * k)) < 1e-18
    K = int(np.argmax(small)) + 1 if small.any() else k.size
    t = np.multiply.outer(-1.0 / (k[:K] * k[:K]), x)
    for i in range(1, K):
        np.multiply(t[i - 1], t[i], out=t[i])
    j = 1.0 + t.sum(axis=0)
    s = -(np.cumsum(1.0 / k[:K]) @ t)
    y = (2.0 / np.pi) * ((np.log(ws / 2.0) + np.euler_gamma) * j + s)
    return j, j + 1j * y


def _j0_h0_asym(wb: np.ndarray):
    # Terms t_k are running products of the ratios -i c_k / w with
    # c_k = (2k - 1)^2 / (8k).  c_k grows with k, so the terms shrink exactly
    # while c_k < |w|: the sum stops before the first term that does not.
    # The incoming-wave sum has terms (-1)^k times the outgoing ones.
    k = np.arange(1, 34)
    c = (2 * k - 1) ** 2 / (8.0 * k)
    t = np.multiply.outer(-1j * c, 1.0 / wb)
    for i in range(1, k.size):
        np.multiply(t[i - 1], t[i], out=t[i])
    t *= c[:, None] < np.abs(wb)
    odd, even = t[0::2].sum(axis=0), t[1::2].sum(axis=0)
    pref = np.sqrt(2.0 / (np.pi * wb))
    h1k = pref * np.exp(1j * (wb - 0.25 * np.pi)) * (1.0 + odd + even)
    h2k = pref * np.exp(-1j * (wb - 0.25 * np.pi)) * (1.0 - odd + even)
    return 0.5 * (h1k + h2k), h1k


def j0_h0_arrays(w: np.ndarray):
    """J0(w) and H^(1)_0(w) elementwise over a complex array.

    Plain-double series for |w| <= 12 and the large-argument expansion
    above.  The series takes one term count per call, the smallest K <= 45
    whose bound m^K/(K!)^2 (m = max|w|^2/4) on the last term is below
    1e-18; the expansion keeps each point's terms k <= 33 while they shrink,
    i.e. while (2k - 1)^2/(8k) < |w|.  Intended for kernel assembly where
    ~1e-11 relative accuracy suffices.  Entries with w == 0 must be
    excluded by the caller.
    """
    w = np.asarray(w, dtype=np.complex128)
    j0 = np.empty_like(w)
    h0 = np.empty_like(w)
    series = np.abs(w) <= _VEC_SERIES_RADIUS
    for m, evaluator in ((series, _j0_h0_series), (~series, _j0_h0_asym)):
        if m.any():
            j0[m], h0[m] = evaluator(w[m])
    return j0, h0
