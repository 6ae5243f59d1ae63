"""The four benchmark workloads: set-up, seeded units of work and gates.

Each workload turns ``--seed`` into a list of units.  A unit is one call
sequence into the library's public functions plus a gate on its output; the
units marked as tasks (one window search, one (h, model) mode sweep, one
(curve, h, model) bound) make up ``task_p50_s``.  The number of passes over
the workload's unit pattern follows ``--seconds``, so the amount of work is
fixed by (seed, seconds) and every count repeats exactly.

Why each workload exists:

* ellipse-search -- off the circle every sigma_min evaluation fills N^2
  Hankel kernel values, so kernel assembly (``specfun.j0_h0_arrays``)
  dominates.
* disk-search -- the circle's ring fast path evaluates only N kernel values,
  so the dense SVD dominates; the operator-norm ladder grows the matrices to
  N = 1024 (16 MB each).  A kernel gain shows on ellipse-search, not here.
* oracle-sweep -- scalar ``specfun.bessel_quad`` only, across the
  evaluator's series / asymptotic switch (h = 0.1 lies below it, h <= 0.03
  above it).
* bound-sweep -- the only workload where ``geometry`` and ``billiards``
  dominate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SEARCH_TOL = 5e-3          # search root vs reference root
MARGIN_SLACK = 0.1         # -Im z / h >= gap - MARGIN_SLACK
SLOPE_RANGE = (-0.73, -0.60)
ORACLE_RESIDUAL = 1e-10
ORACLE_MATCH = 1e-8        # same code, same inputs: roots repeat to rounding
DRIFT_LIMIT = 1e-12

# operator-norm ladder: base frequencies and their fixed node counts
LADDER = ((50.0, 256), (100.0, 512), (200.0, 1024), (400.0, 1024), (800.0, 1024))
LADDER_JITTER = 0.03

# oracle-sweep ladder: (h, n_max, window width in Re z).  mode_sweep solves
# anchors up to 2 pi h beyond the window, so with Re z in ORACLE_RANGE every
# h = 0.1 call has |z/h| < 17.5 (series branch of bessel_quad) and every
# smaller h has |z/h| > 22 (asymptotic branch): placement cannot shift work
# between the two regimes.
# The h <= 0.03 sweeps are sized to cost about the same, so the median task
# is taken over all of them rather than over one class.
ORACLE_LADDER = ((0.1, 1, 0.1), (0.03, 8, 0.08), (0.02, 8, 0.06), (0.015, 7, 0.05),
                 (0.01, 8, 0.04))
ORACLE_MODELS = (("delta", 0.0), ("delta_prime", 0.8), ("delta_prime", 0.9))
ORACLE_RANGE = (0.85, 1.1)  # reference tables cover every seeded window

BOUND_H_RANGE = (0.01, 0.1)
BOUND_MODELS = (("delta", 0.0), ("delta_prime", 0.8))
BOUND_CURVES = ("circle:r=1", "ellipse:a=2,b=1", "stadium:l=1,r=1")
# sabine_gap settings of the escape-cap profile (the library's defaults)
GAP_GRID, GAP_DELTA1, GAP_DEPTH, GAP_ESCAPE_CAP = (64, 64), 0.05, 8, 10.0
ORBIT_STEPS = {"circle:r=1": 2000, "ellipse:a=2,b=1": 1000, "stadium:l=1,r=1": 1000}


@dataclass
class Unit:
    """One measured call sequence and the gate on its result."""

    name: str
    task: bool
    run: Callable[[], object]
    check: Callable[[object], list]


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


# ---------------------------------------------------------------------------
# gates (pure functions of results and reference data)
# ---------------------------------------------------------------------------

def check_search(found: list, expect: list, table: list, margin_floor=None) -> list:
    """Every expected root is found within SEARCH_TOL, every found root
    matches a root of the reference table (none is spurious) and, when
    margin_floor is given, every root's Sabine margin (-Im z / h minus the
    decay bound) is at least margin_floor."""
    expect = [complex(*r[:2]) for r in expect]
    table = [complex(*r[:2]) for r in table]
    fails = []
    for z in expect:
        if not any(abs(c.z - z) < SEARCH_TOL for c in found):
            fails.append(f"reference root {z:.6f} not found")
    for c in found:
        if not any(abs(c.z - z) < SEARCH_TOL for z in table):
            fails.append(f"spurious root {c.z:.6f}")
        if margin_floor is not None and not (c.sabine_margin is not None
                                             and c.sabine_margin >= margin_floor):
            fails.append(f"root {c.z:.6f} violates the Sabine gate "
                         f"(margin {c.sabine_margin})")
    return fails


def check_slope(slope: float) -> list:
    lo, hi = SLOPE_RANGE
    return [] if lo <= slope <= hi else [f"operator-norm slope {slope:.4f} outside [{lo}, {hi}]"]


def check_sweep(found: list, window: tuple, reference: list) -> list:
    """Residual < 1e-10, Im z < 0, and the roots equal the reference roots
    that lie in the window (count and values)."""
    refs = [complex(*r[:2]) for r in reference if window[0] <= r[0] <= window[1]]
    fails = []
    if len(found) != len(refs):
        fails.append(f"{len(found)} roots, reference has {len(refs)}")
    for c in found:
        if not c.residual < ORACLE_RESIDUAL:
            fails.append(f"root {c.z:.10f} residual {c.residual:.2e}")
        if not c.z.imag < 0.0:
            fails.append(f"root {c.z:.10f} has Im z >= 0")
        if not any(abs(c.z - z) < ORACLE_MATCH for z in refs):
            fails.append(f"root {c.z:.10f} matches no reference root")
    return fails


def diameter_orbit_bound(h: float, model: str, alpha: float, v0: float, d: float) -> float:
    """Closed-form decay bound along a diameter orbit of length d (xi = 0)."""
    if model == "delta":
        return math.log(1.0 + 4.0 / (h ** (1.0 - alpha) * v0) ** 2) / (2.0 * d)
    return math.log(1.0 + 4.0 * h ** (2.0 - 2.0 * alpha) / v0 ** 2) / (2.0 * d)


def diameter_formula(h: float, alpha: float, v0: float, d: float) -> float:
    """The closed-form diameter bound for a constant delta profile."""
    sigma = h ** (-alpha) * v0
    return (math.log(1.0 / h) - 0.5 * math.log(sigma * sigma / 4.0)) / d


def check_gap(report, spec: str, h: float, model: str, alpha: float, d: float) -> list:
    fails = []
    bound = report.bound
    if not (math.isfinite(bound) and bound > 0.0):
        return [f"{spec} {model} h={h:g}: bound {bound} not finite and positive"]
    if spec.startswith("stadium"):
        if report.within_theory or not report.notes:
            fails.append(f"{spec}: not flagged as outside the strictly-convex theory")
        return fails
    if model == "delta":
        # the gap must agree with the diameter bound (criterion 3) to 1e-3
        expect, tol = diameter_formula(h, alpha, 1.0, d), 1e-3
    else:
        expect, tol = diameter_orbit_bound(h, model, alpha, 1.0, d), 1e-2
    if abs(bound - expect) > tol * expect:
        fails.append(f"{spec} {model} h={h:g}: gap {bound:.6f} vs closed form {expect:.6f}")
    if spec.startswith("circle") and model == "delta" and h == 0.01 and abs(bound - 2.649) >= 0.01:
        fails.append(f"circle gap at h=0.01 is {bound:.5f}, expected about 2.649")
    return fails


def check_escape_cap(report, h: float) -> list:
    """The bound is the escape cap, GAP_ESCAPE_CAP * log(1/h), flagged as capped."""
    cap = GAP_ESCAPE_CAP * math.log(1.0 / h)
    if report.capped and abs(report.bound - cap) <= 1e-12 * cap:
        return []
    return [f"profile gap h={h}: bound {report.bound} capped={report.capped}, "
            f"expected the escape cap {cap:.6f}"]


def check_orbit(segments, spec: str, xi0: float, d: float) -> list:
    fails = []
    for a, b in zip(segments, segments[1:]):
        if a.end != b.start:
            fails.append(f"{spec} orbit does not chain")
            break
    if not all(abs(s.end.xi) < 1.0 and 0.0 < s.chord_length <= d * (1 + 1e-12) for s in segments):
        fails.append(f"{spec} orbit leaves the coball bundle or exceeds the diameter")
    if spec.startswith("circle"):
        drift = max(abs(s.end.xi - xi0) for s in segments)
        if not drift < DRIFT_LIMIT:
            fails.append(f"circle orbit xi drift {drift:.2e} >= {DRIFT_LIMIT}")
    return fails


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    pass_seconds = 1.0   # nominal cost of one pass on a 2-core Xeon (seed code)

    def setup(self, lib) -> dict:
        raise NotImplementedError

    def units(self, lib, state: dict, seed: int, passes: int) -> list:
        raise NotImplementedError

    def notes(self, units: list, outputs: list) -> list:
        """Extra report lines about the outputs (printed as comments)."""
        return []


class _SearchWorkload(Workload):
    """Window searches drawn from a vetted pool of placements.

    The pool (reference data) holds windows whose search seeds one
    refinement and needs about the same number of sigma_min evaluations, so
    the seed changes which resonance is searched, not the amount of work.
    Each window lists the reference roots its search must find.
    """

    spec = ""
    reference = ""
    windows_per_pass = 1

    def setup(self, lib) -> dict:
        ref = load_reference(self.reference)
        curve = lib.geometry.BoundaryCurve.from_spec(self.spec)
        pot = lib.billiards.PotentialSpec(V0=1.0, alpha=0.0)
        grid = lib.bie.NystromGrid.build(curve, ref["quad_n"])
        # builds the assembly context and pays for the first LAPACK call
        lib.bie.sigma_min_boundary_operator(grid, complex(1.0, -0.15), ref["h"], pot)
        return {"ref": ref, "curve": curve, "pot": pot}

    def _window_unit(self, lib, state, window: dict, margins: bool) -> Unit:
        ref = state["ref"]
        rs = lib.resonance_search
        win = rs.SearchWindow(re_range=tuple(window["re"]), im_range=tuple(window["im"]),
                              coarse_grid=tuple(window["grid"]), h=ref["h"],
                              quad_n=ref["quad_n"])
        floor = -MARGIN_SLACK if margins else None
        return Unit(
            name=f"window re={window['re']} im={window['im']}", task=True,
            run=lambda: rs.find_resonances(win, state["curve"], state["pot"],
                                           compute_margins=margins),
            check=lambda found: check_search(found, window["expect"], ref["roots"], floor),
        )

    def _pick_windows(self, state, seed: int, count: int) -> list:
        """count windows from the pool, without repeats until it is used up."""
        pool = state["ref"]["windows"]
        rng = _rng(self.name, seed, 0)
        picked = []
        while len(picked) < count:
            picked += rng.sample(pool, len(pool))
        return picked[:count]


class EllipseSearch(_SearchWorkload):
    name = "ellipse-search"
    spec = "ellipse:a=2,b=1"
    reference = "ellipse"
    pass_seconds = 10.0

    def units(self, lib, state, seed, passes):
        return [self._window_unit(lib, state, w, margins=True)
                for w in self._pick_windows(state, seed, passes)]


class DiskSearch(_SearchWorkload):
    name = "disk-search"
    spec = "circle:r=1"
    reference = "disk"
    windows_per_pass = 3
    pass_seconds = 10.5

    def setup(self, lib) -> dict:
        state = super().setup(lib)
        bie = lib.bie
        grids = {}
        for lam, n in LADDER:
            if n not in grids:
                grids[n] = bie.NystromGrid.build(state["curve"], n)
                bie.assemble_single_layer(grids[n], lam)   # frequency-free context
        state["ladder_grids"] = grids
        return state

    def _ladder_unit(self, lib, state, rng: random.Random) -> Unit:
        bie = lib.bie
        rungs = [(lam * math.exp(rng.uniform(-LADDER_JITTER, LADDER_JITTER)), n)
                 for lam, n in LADDER]

        def run():
            return [bie.operator_norm(bie.assemble_single_layer(state["ladder_grids"][n], lam))
                    for lam, n in rungs]

        def check(norms):
            xs = [math.log(lam) for lam, _ in rungs]
            ys = [math.log(v) for v in norms]
            mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                     / sum((x - mx) ** 2 for x in xs))
            return check_slope(slope)

        return Unit(name="operator-norm ladder", task=False, run=run, check=check)

    def units(self, lib, state, seed, passes):
        out = []
        windows = self._pick_windows(state, seed, passes * self.windows_per_pass)
        for p in range(passes):
            for w in windows[p * self.windows_per_pass:(p + 1) * self.windows_per_pass]:
                out.append(self._window_unit(lib, state, w, margins=False))
            out.append(self._ladder_unit(lib, state, _rng(self.name + "/ladder", seed, p)))
        return out


class OracleSweep(Workload):
    """Mode sweeps over windows drawn from per-(h, model) pools whose sweeps
    make about the same number of bessel_quad calls (see reference.py)."""

    name = "oracle-sweep"
    pass_seconds = 13.0

    def setup(self, lib) -> dict:
        ref = load_reference("oracle")
        return {"tables": {(t["h"], t["model"], t["alpha"]): t for t in ref["tables"]}}

    def units(self, lib, state, seed, passes):
        oracle = lib.disk_oracle
        Model, PotentialSpec = lib.billiards.Model, lib.billiards.PotentialSpec
        out = []
        for p in range(passes):
            rng = _rng(self.name, seed, p)
            for h, n_max, _ in ORACLE_LADDER:
                for model, alpha in ORACLE_MODELS:
                    table = state["tables"][(h, model, alpha)]
                    window = tuple(rng.choice(table["windows"]))
                    pot = PotentialSpec(V0=1.0, alpha=alpha)
                    out.append(Unit(
                        name=f"mode_sweep h={h} {model} alpha={alpha} window={window}",
                        task=True,
                        run=(lambda h=h, pot=pot, model=Model(model), n_max=n_max, w=window:
                             oracle.mode_sweep(h, pot, model, n_max, window=w)),
                        check=(lambda found, w=window, roots=table["roots"]:
                               check_sweep(found, w, roots)),
                    ))
        return out

    def notes(self, units, outputs):
        # criterion 2's [0.7, 1.3] bracket for -Im z / h^(3 - 2 alpha) is not
        # reachable at these h (the correction decays like h^0.2); the ratios
        # are shown, and the gate is the residual
        ratios = []
        for unit, out in zip(units, outputs):
            if "delta_prime alpha=0.9" in unit.name and isinstance(out, list):
                ratios += [f"h={c.h:g} n={c.provenance.n}: {-c.z.imag / c.h ** 1.2:.4f}"
                           for c in out if c.provenance.n == 0]
        return ["delta-prime alpha=0.9 ratios -Im z / h^1.2 (n=0): " + "; ".join(ratios)]


class BoundSweep(Workload):
    name = "bound-sweep"
    h_per_pass = 2
    pass_seconds = 5.0

    def setup(self, lib) -> dict:
        from_spec = lib.geometry.BoundaryCurve.from_spec
        return {"curves": {spec: from_spec(spec) for spec in BOUND_CURVES}}

    def units(self, lib, state, seed, passes):
        bl = lib.billiards
        Model, PotentialSpec, PhasePoint = bl.Model, bl.PotentialSpec, bl.PhasePoint
        curves = state["curves"]
        diam = {"circle:r=1": 2.0, "ellipse:a=2,b=1": 4.0, "stadium:l=1,r=1": 4.0}
        lo, hi = BOUND_H_RANGE
        out = []
        for p in range(passes):
            rng = _rng(self.name, seed, p)
            hs = [round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 6)
                  for _ in range(self.h_per_pass)]
            if p == 0:
                hs[0] = 0.01          # the criterion-3 point (gap about 2.649)
            for h in hs:
                for spec in BOUND_CURVES:
                    for model, alpha in BOUND_MODELS:
                        pot = PotentialSpec(V0=1.0, alpha=alpha)
                        out.append(Unit(
                            name=f"sabine_gap {spec} {model} h={h}", task=True,
                            run=(lambda c=curves[spec], h=h, pot=pot, m=Model(model):
                                 bl.sabine_gap(c, h, pot, m)),
                            check=(lambda r, spec=spec, h=h, model=model, alpha=alpha:
                                   check_gap(r, spec, h, model, alpha, diam[spec])),
                        ))
                out.append(self._diameter_unit(bl, curves, h, diam))
            out.append(self._profile_unit(bl, curves["ellipse:a=2,b=1"], rng))
            for spec in BOUND_CURVES:
                s0 = rng.uniform(0.0, curves[spec].total_length)
                xi0 = rng.uniform(-0.8, 0.8)
                out.append(Unit(
                    name=f"iterate {spec} s0={s0:.4f} xi0={xi0:.4f}", task=False,
                    run=(lambda c=curves[spec], q=PhasePoint(s0, xi0), n=ORBIT_STEPS[spec]:
                         bl.iterate(c, q, n)),
                    check=lambda segs, spec=spec, xi0=xi0: check_orbit(segs, spec, xi0, diam[spec]),
                ))
        return out

    @staticmethod
    def _diameter_unit(bl, curves, h, diam) -> Unit:
        pot = bl.PotentialSpec(V0=1.0, alpha=0.0)
        specs = ("circle:r=1", "ellipse:a=2,b=1")

        def check(values):
            return [f"{spec} diameter bound {v:.9f} vs {diameter_formula(h, 0.0, 1.0, diam[spec]):.9f}"
                    for spec, v in zip(specs, values)
                    if abs(v - diameter_formula(h, 0.0, 1.0, diam[spec])) > 1e-9 * v]

        return Unit(name=f"sabine_diameter_bound h={h}", task=False,
                    run=lambda: [bl.sabine_diameter_bound(curves[s], h, pot) for s in specs],
                    check=check)

    @staticmethod
    def _profile_unit(bl, ellipse, rng: random.Random) -> Unit:
        """Delta profile that vanishes except near the first GAP_DEPTH
        landing points of one orbit started on the doubled grid only.

        Every orbit of sabine_gap's base grid meets the zero set, so that grid
        takes the escape cap; the doubled grid keeps one finite orbit, so the
        bound is the cap rather than AllOrbitsEscapeError (the escape-cap path).
        """
        import numpy as np

        h = round(math.exp(rng.uniform(math.log(BOUND_H_RANGE[0]), math.log(BOUND_H_RANGE[1]))), 6)
        n_s, n_xi = GAP_GRID
        length = ellipse.total_length
        # odd s index: on the doubled grid (2 n_s points), not on the base grid
        s0 = (2 * rng.randrange(n_s) + 1) * length / (2 * n_s)
        xi_max = 1.0 - GAP_DELTA1
        xi0 = float(np.linspace(-xi_max, xi_max, 2 * n_xi + 1)[rng.randrange(2 * n_xi + 1)])
        landings = np.array([seg.end.s for seg in bl.iterate(ellipse, bl.PhasePoint(s0, xi0),
                                                            GAP_DEPTH)])

        def profile(s):
            s = np.asarray(s, dtype=float)[..., None]
            dist = np.abs((s - landings + 0.5 * length) % length - 0.5 * length)
            return np.where(dist.min(axis=-1) < 1e-6, 1.0, 0.0)

        pot = bl.PotentialSpec(V0=1.0, alpha=0.0, profile=profile)
        return Unit(name=f"sabine_gap ellipse profile h={h} orbit@({s0:.4f}, {xi0:.4f})",
                    task=True,
                    run=lambda: bl.sabine_gap(ellipse, h, pot, bl.Model.DELTA, delta1=GAP_DELTA1,
                                              n_average=GAP_DEPTH, grid=GAP_GRID,
                                              escape_cap_factor=GAP_ESCAPE_CAP),
                    check=lambda report: check_escape_cap(report, h))


WORKLOADS = {w.name: w for w in (EllipseSearch(), DiskSearch(), OracleSweep(), BoundSweep())}
