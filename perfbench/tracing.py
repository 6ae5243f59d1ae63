"""Span recorder that wraps the library's layer functions from outside.

Wrappers are installed at the names callers look up: ``resonance_search``
imports ``sigma_min_boundary_operator`` and ``sabine_gap`` by name, ``bie``
and ``disk_oracle`` reach ``specfun`` through the module, and ``billiards``
calls methods on ``BoundaryCurve`` instances, so those are patched on the
class.  Spans live in memory (one small list each) and are written out when
the run ends; nothing inside the library is modified permanently.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict

_NAME, _T0, _T1, _PARENT, _TASK, _WORK, _OK = range(7)


class Tracer:
    """Records spans (name, start, end, parent, task id, work count, ok)."""

    def __init__(self):
        self.spans: list[list] = []
        self.task_id = -1
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        """Wrapper recording one span per call; ``work(args, kwargs, result)``
        returns the call's work count (points, cells, steps, ...)."""
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task_id, 0, True]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            span[_T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[_OK] = False
                raise
            finally:
                span[_T1] = time.perf_counter()
                stack.pop()
                if work is not None:
                    span[_WORK] = work(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, work=None, kind: str = "function"):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            replacement = classmethod(self.wrap(name, original.__func__, work))
        else:
            replacement = self.wrap(name, original, work)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return replacement

    def install(self, lib) -> None:
        """Patch every measured layer function of the ``sabine_lab`` package."""
        specfun, bie, rs = lib.specfun, lib.bie, lib.resonance_search
        billiards, geometry, oracle = lib.billiards, lib.geometry, lib.disk_oracle
        radius = getattr(specfun, "_SERIES_RADIUS", 17.5)

        self._patch(specfun, "j0_h0_arrays", "specfun.j0_h0_arrays",
                    lambda a, k, r: int(_size(a[0])))
        self._patch(specfun, "bessel_quad", "specfun.bessel_quad",
                    lambda a, k, r: int(abs(a[1]) <= radius))
        self._patch(bie, "assemble_single_layer", "bie.assemble",
                    lambda a, k, r: a[0].N * a[0].N)
        sigma = self._patch(bie, "sigma_min_boundary_operator", "bie.sigma_min",
                            lambda a, k, r: a[0].N)
        self._patches.append((rs, "sigma_min_boundary_operator", rs.sigma_min_boundary_operator))
        rs.sigma_min_boundary_operator = sigma
        self._patch(bie, "operator_norm", "bie.operator_norm",
                    lambda a, k, r: a[0].entries.shape[0])
        self._patch(bie.NystromGrid, "build", "bie.grid_build", kind="classmethod")
        self._patch(rs, "find_resonances", "resonance_search.find_resonances")
        self._patch(rs, "scan", "resonance_search.scan",
                    lambda a, k, r: a[0].coarse_grid[0] * a[0].coarse_grid[1])
        self._patch(rs, "refine", "resonance_search.refine")
        gap_signature = inspect.signature(billiards.sabine_gap)
        gap = self._patch(billiards, "sabine_gap", "billiards.sabine_gap",
                          lambda a, k, r: _gap_steps(gap_signature, a, k))
        self._patches.append((rs, "sabine_gap", rs.sabine_gap))
        rs.sabine_gap = gap
        self._patch(billiards, "sabine_diameter_bound", "billiards.sabine_diameter_bound")
        self._patch(billiards, "iterate", "billiards.iterate", lambda a, k, r: int(a[2]))
        curve = geometry.BoundaryCurve
        self._patch(curve, "ellipse", "geometry.ellipse_build", kind="classmethod")
        self._patch(curve, "point_many", "geometry.point_many",
                    lambda a, k, r: int(_size(a[1])))
        self._patch(curve, "_ray_exit_many", "geometry.ray_exit",
                    lambda a, k, r: int(len(a[1])))
        self._patch(oracle, "mode_sweep", "disk_oracle.mode_sweep",
                    lambda a, k, r: len(r) if r is not None else 0)
        self._patch(oracle, "_solve_mode", "disk_oracle.solve_mode")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"name": s[_NAME], "start": s[_T0], "end": s[_T1],
                                     "parent": s[_PARENT], "task": s[_TASK],
                                     "work": s[_WORK], "ok": s[_OK]}) + "\n")


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if hasattr(x, "__len__") else 1
    n = 1
    for d in shape:
        n *= d
    return n


def _gap_steps(signature, args, kwargs) -> int:
    """Phase-point steps of one sabine_gap call (computed, not counted).

    The bound runs n_average billiard steps from every point of the base
    grid and of the doubled grid; the transversal count is made odd.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    n_s, n_xi = bound.arguments["grid"]
    n_average = bound.arguments["n_average"]
    odd = lambda n: n + 1 if n % 2 == 0 else n  # noqa: E731
    return (n_s * odd(n_xi) + 2 * n_s * odd(2 * n_xi)) * n_average


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[_PARENT] >= 0:
            children[span[_PARENT]].append((span[_T0], span[_T1]))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        end = span[_T0]
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, end), min(c1, span[_T1])
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append(span[_T1] - span[_T0] - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], wall_untraced: float, wall_traced: float):
    """Per-layer metrics and, for each ratio, the base it was computed from.

    Returns (metrics, bases, ranking) where ranking lists the self time of
    every traced function, largest first.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    work = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    failed = defaultdict(int)
    evals_in = defaultdict(int)        # sigma_min / bessel_quad calls by parent kind
    for span, self_s in zip(spans, selfs):
        name = span[_NAME]
        calls[name] += 1
        work[name] += span[_WORK]
        busy[name] += span[_T1] - span[_T0]
        own[name] += self_s
        if not span[_OK]:
            failed[name] += 1
        parent = span[_PARENT]
        if parent >= 0 and name in ("bie.sigma_min", "specfun.bessel_quad"):
            evals_in[(spans[parent][_NAME], name)] += 1

    # bessel_quad is called from the mode equations inside _solve_mode
    f_evals = evals_in[("disk_oracle.solve_mode", "specfun.bessel_quad")]
    refine_evals = evals_in[("resonance_search.refine", "bie.sigma_min")]
    sigma_n = _ratio(work["bie.sigma_min"], calls["bie.sigma_min"])
    points = work["specfun.j0_h0_arrays"]
    attempted = calls["disk_oracle.solve_mode"]
    solved = attempted - failed["disk_oracle.solve_mode"]
    roots = work["disk_oracle.mode_sweep"]
    refines = calls["resonance_search.refine"]
    accepted = refines - failed["resonance_search.refine"]
    gap_steps = work["billiards.sabine_gap"]
    orbit_steps = work["billiards.iterate"]
    cells = work["resonance_search.scan"]

    m = {
        "specfun.j0_h0_arrays.calls": calls["specfun.j0_h0_arrays"],
        "specfun.j0_h0_arrays.points": points,
        "specfun.j0_h0_arrays.busy_s": busy["specfun.j0_h0_arrays"],
        "specfun.j0_h0_arrays.ns_per_point": 1e9 * _ratio(busy["specfun.j0_h0_arrays"], points),
        "specfun.bessel_quad.calls": calls["specfun.bessel_quad"],
        "specfun.bessel_quad.series_calls": work["specfun.bessel_quad"],
        "specfun.bessel_quad.busy_s": busy["specfun.bessel_quad"],
        "specfun.bessel_quad.us_per_call": 1e6 * _ratio(busy["specfun.bessel_quad"],
                                                        calls["specfun.bessel_quad"]),
        "bie.sigma_min.calls": calls["bie.sigma_min"],
        "bie.sigma_min.self_s": own["bie.sigma_min"],
        "bie.operator_norm.calls": calls["bie.operator_norm"],
        "bie.operator_norm.self_s": own["bie.operator_norm"],
        "bie.assemble.calls": calls["bie.assemble"],
        "bie.assemble.self_s": own["bie.assemble"],
        "bie.assemble.entries": work["bie.assemble"],
        "bie.grid_build_s": busy["bie.grid_build"],
        "geometry.ellipse_build_s": busy["geometry.ellipse_build"],
        "resonance_search.scan.cells": cells,
        "resonance_search.scan.busy_s": busy["resonance_search.scan"],
        "resonance_search.scan.cells_per_s": _ratio(cells, busy["resonance_search.scan"]),
        "resonance_search.refine.calls": refines,
        "resonance_search.refine.evals": refine_evals,
        "resonance_search.refine.evals_per_refine": _ratio(refine_evals, refines),
        "resonance_search.refine.accepted": accepted,
        "resonance_search.refine.accept_ratio": _ratio(accepted, refines),
        "resonance_search.refine.busy_s": busy["resonance_search.refine"],
        "disk_oracle.modes_attempted": attempted,
        "disk_oracle.roots": roots,
        "disk_oracle.modes_failed": failed["disk_oracle.solve_mode"],
        "disk_oracle.solve_ratio": _ratio(solved, attempted),
        "disk_oracle.f_evals": f_evals,
        "disk_oracle.evals_per_root": _ratio(f_evals, roots),
        "disk_oracle.self_s": own["disk_oracle.mode_sweep"] + own["disk_oracle.solve_mode"],
        "billiards.sabine_gap.calls": calls["billiards.sabine_gap"],
        "billiards.sabine_gap.self_s": own["billiards.sabine_gap"],
        "billiards.steps": gap_steps,
        "billiards.ns_per_step": 1e9 * _ratio(busy["billiards.sabine_gap"], gap_steps),
        "billiards.iterate.steps": orbit_steps,
        "billiards.iterate.us_per_step": 1e6 * _ratio(busy["billiards.iterate"], orbit_steps),
        "geometry.point_many.calls": calls["geometry.point_many"],
        "geometry.point_many.points": work["geometry.point_many"],
        "geometry.point_many.busy_s": busy["geometry.point_many"],
        "geometry.ray_exit.rays": work["geometry.ray_exit"],
        "geometry.ray_exit.busy_s": busy["geometry.ray_exit"],
        # computed from sizes, not measured
        "bie.computed.bytes_moved": 16 * work["bie.assemble"],
        "bie.computed.svd_flops_per_sigma_min": (32.0 / 3.0) * sigma_n ** 3,
        "specfun.computed.points_per_s": _ratio(points, busy["specfun.j0_h0_arrays"]),
        "trace.spans": len(spans),
        "trace.overhead_ratio": _ratio(wall_traced, wall_untraced) - 1.0,
    }
    bases = {
        "specfun.j0_h0_arrays.ns_per_point": f"busy_s / {points} points",
        "specfun.bessel_quad.us_per_call": f"busy_s / {calls['specfun.bessel_quad']} calls",
        "resonance_search.scan.cells_per_s": f"{cells} cells / busy_s",
        "resonance_search.refine.evals_per_refine": f"{refine_evals} evals / {refines} refines",
        "resonance_search.refine.accept_ratio": f"{accepted} accepted / {refines} seeds",
        "disk_oracle.solve_ratio": f"{solved} solved / {attempted} attempted",
        "disk_oracle.evals_per_root": f"{f_evals} f evals / {roots} roots",
        "billiards.steps": "computed: (grid + doubled grid points) x n_average per call",
        "billiards.ns_per_step": f"sabine_gap busy_s / {gap_steps} computed steps",
        "billiards.iterate.us_per_step": f"iterate busy_s / {orbit_steps} steps",
        "bie.computed.bytes_moved": f"computed: 16 B x {work['bie.assemble']} entries assembled",
        "bie.computed.svd_flops_per_sigma_min": f"computed: (32/3) N^3 at mean N = {sigma_n:g}",
        "specfun.computed.points_per_s": f"computed: {points} points / busy_s",
        "trace.overhead_ratio": f"traced wall {wall_traced:.4f} s / untraced {wall_untraced:.4f} s - 1",
    }
    ranking = sorted(((name, own[name]) for name in own), key=lambda kv: -kv[1])
    return m, bases, ranking

