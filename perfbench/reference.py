"""Regenerate the reference tables under perfbench/reference/.

    python3 perfbench/run.py --regen-reference

* oracle -- every disk-oracle root over ORACLE_RANGE for each (h, model)
  of the oracle-sweep ladder, and a pool of sweep windows per (h, model)
  whose bessel_quad call counts are closest to the median of 16 seeded
  placements.
* disk -- exact disk roots at h = 0.1 (the search workload's ground truth)
  and the pool of vetted search windows.
* ellipse -- roots of ellipse:a=2,b=1 at h = 0.1 found by a coarse search at
  N = 256 over the acceptance window and polished at N = 512, plus the pool
  of vetted search windows.

The tables are rebuilt from scratch in a fixed order (oracle, disk,
ellipse), so running the command twice writes the same files.

A window enters a pool only if its search at the benchmark's settings seeds
exactly one refinement, finds at least one root, passes the workload's gate,
and has no reference root within SEARCH_TOL of its edges; the pool keeps the windows whose
sigma_min evaluation count is closest to the median, so that windows drawn
by different seeds cost about the same.
"""

from __future__ import annotations

import json
import random
import statistics
import sys

import workloads as wl
from tracing import Tracer

DISK = {"h": 0.1, "quad_n": 256, "n_max": 11, "re_range": (0.8, 1.2),
        "pool_bounds": ((0.85, 1.15), (-0.25, -0.05)),
        "size": (0.04, 0.06), "grid": (5, 4), "candidates": 400, "pool": 8}
ORACLE_CANDIDATES, ORACLE_POOL = 16, 8
ELLIPSE = {"h": 0.1, "quad_n": 256, "ref_quad_n": 512,
           "region": ((0.9, 1.1), (-0.30, -0.06)), "region_grid": (41, 17),
           "size": (0.03, 0.05), "grid": (4, 4), "candidates": 400, "pool": 6}


def _write(name: str, data: dict) -> None:
    path = wl.REFERENCE_DIR / f"{name}.json"
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def _root_rows(cands) -> list:
    rows = []
    for c in cands:
        prov = c.provenance
        extra = [prov.n, prov.k] if hasattr(prov, "n") else []
        rows.append([c.z.real, c.z.imag] + extra)
    return rows


def regen_oracle(lib) -> None:
    """Every root over ORACLE_RANGE per (h, model), and a pool of sweep
    windows whose bessel_quad call counts are closest to the median."""
    Model, PotentialSpec = lib.billiards.Model, lib.billiards.PotentialSpec
    tables = []
    for h, n_max, width in wl.ORACLE_LADDER:
        for model, alpha in wl.ORACLE_MODELS:
            pot = PotentialSpec(V0=1.0, alpha=alpha)
            found = lib.disk_oracle.mode_sweep(h, pot, Model(model), n_max,
                                               window=wl.ORACLE_RANGE)
            edges = [c.z.real for c in found]
            rng = random.Random(f"pool/oracle/{h}/{model}/{alpha}")
            candidates = []
            while len(candidates) < ORACLE_CANDIDATES:
                lo = round(rng.uniform(wl.ORACLE_RANGE[0], wl.ORACLE_RANGE[1] - width), 6)
                hi = round(lo + width, 6)
                # no root within 1e-6 of an edge, so rounding cannot move one across
                if any(abs(x - lo) <= 1e-6 or abs(x - hi) <= 1e-6 for x in edges):
                    continue
                tracer = Tracer()
                tracer.install(lib)
                try:
                    lib.disk_oracle.mode_sweep(h, pot, Model(model), n_max, window=(lo, hi))
                finally:
                    tracer.uninstall()
                calls = sum(1 for s in tracer.spans if s[0] == "specfun.bessel_quad")
                candidates.append((calls, lo, hi))
            median = statistics.median(c for c, _, _ in candidates)
            candidates.sort(key=lambda c: (abs(c[0] - median), c[1]))
            pool = candidates[:ORACLE_POOL]
            tables.append({"h": h, "model": model, "alpha": alpha, "n_max": n_max,
                           "range": list(wl.ORACLE_RANGE), "roots": _root_rows(found),
                           "windows": [[lo, hi] for _, lo, hi in pool],
                           "window_calls": [c for c, _, _ in pool]})
            print(f"oracle h={h} {model} alpha={alpha}: {len(found)} roots, "
                  f"pool calls {[c for c, _, _ in pool]}", file=sys.stderr)
    _write("oracle", {"V0": 1.0, "tables": tables})


def _edge_clear(window: dict, roots: list) -> bool:
    """No root within SEARCH_TOL of an edge, so rounding cannot move a root
    across it."""
    band = wl.SEARCH_TOL
    (r0, r1), (i0, i1) = window["re"], window["im"]
    for z in (complex(*r[:2]) for r in roots):
        near_re = min(abs(z.real - r0), abs(z.real - r1)) < band and i0 - band < z.imag < i1 + band
        near_im = min(abs(z.imag - i0), abs(z.imag - i1)) < band and r0 - band < z.real < r1 + band
        if near_re or near_im:
            return False
    return True


def _vet(lib, curve, pot, ref: dict, cfg: dict, margins: bool, polish=None) -> list:
    """Search candidate windows around reference roots; return the pool.

    Without polish the table is exact and complete (the disk oracle) and a
    window must find every table root inside it.  With polish, each root a
    search finds is refined at the reference resolution (and added to the
    table when new); the window's expected roots are the ones it found.
    """
    rs = lib.resonance_search
    rng = random.Random(f"pool/{curve.describe()}")
    (re_lo, re_hi), (im_lo, im_hi) = cfg["bounds"]
    width, height = cfg["size"]
    roots = ref["roots"]
    centers = [complex(*r[:2]) for r in roots
               if re_lo <= r[0] <= re_hi and im_lo <= r[1] <= im_hi]
    floor = -wl.MARGIN_SLACK if margins else None
    vetted = []
    for _ in range(cfg["candidates"]):
        if len(vetted) >= 2 * cfg["pool"]:
            break
        center = rng.choice(centers)
        c_re = center.real + rng.uniform(-0.2, 0.2) * width
        c_im = center.imag + rng.uniform(-0.2, 0.2) * height
        window = {"re": [round(c_re - width / 2, 4), round(c_re + width / 2, 4)],
                  "im": [round(c_im - height / 2, 4), round(c_im + height / 2, 4)],
                  "grid": list(cfg["grid"])}
        if (window["re"][0] < re_lo or window["re"][1] > re_hi
                or window["im"][0] < im_lo or window["im"][1] > im_hi
                or not _edge_clear(window, roots)):
            continue
        win = rs.SearchWindow(re_range=tuple(window["re"]), im_range=tuple(window["im"]),
                              coarse_grid=tuple(window["grid"]), h=ref["h"],
                              quad_n=ref["quad_n"])
        tracer = Tracer()
        tracer.install(lib)
        try:
            found = rs.find_resonances(win, curve, pot, compute_margins=margins)
        finally:
            tracer.uninstall()
        refines = sum(1 for s in tracer.spans if s[0] == "resonance_search.refine")
        evals = sum(1 for s in tracer.spans if s[0] == "bie.sigma_min")
        if polish is None:
            expect = [r for r in roots if _inside(complex(*r[:2]), window)]
        else:
            expect = []
            for c in found:
                match = [r for r in roots if abs(c.z - complex(*r[:2])) < wl.SEARCH_TOL]
                if not match and refines == 1:
                    polished = polish(c.z)
                    match = [polished] if polished is not None else []
                    roots.extend(match)
                expect += match[:1]
        fails = wl.check_search(found, expect, roots, floor)
        ok = refines == 1 and found and not fails
        print(f"  window {window['re']} x {window['im']}: refines={refines} "
              f"found={[f'{c.z:.6f}' for c in found]} evals={evals} "
              f"{'kept' if ok else fails}", file=sys.stderr)
        if ok:
            vetted.append(dict(window, evals=evals, expect=expect))
    # roots added later may sit near the edges of windows kept earlier
    final = [w for w in vetted if _edge_clear(w, roots)]
    if not final:
        raise RuntimeError("no candidate window passed vetting")
    median = statistics.median(w["evals"] for w in final)
    final.sort(key=lambda w: (abs(w["evals"] - median), w["re"], w["im"]))
    return final[:cfg["pool"]]


def _inside(z: complex, window: dict) -> bool:
    return (window["re"][0] <= z.real <= window["re"][1]
            and window["im"][0] <= z.imag <= window["im"][1])


def regen_disk(lib) -> None:
    Model, PotentialSpec = lib.billiards.Model, lib.billiards.PotentialSpec
    pot = PotentialSpec(V0=1.0, alpha=0.0)
    cfg = dict(DISK)
    found = lib.disk_oracle.mode_sweep(cfg["h"], pot, Model.DELTA, cfg["n_max"],
                                       window=cfg["re_range"])
    ref = {"curve": "circle:r=1", "h": cfg["h"], "quad_n": cfg["quad_n"], "V0": 1.0,
           "alpha": 0.0, "n_max": cfg["n_max"], "re_range": list(cfg["re_range"]),
           "roots": _root_rows(found)}
    cfg["bounds"] = cfg["pool_bounds"]
    circle = lib.geometry.BoundaryCurve.from_spec("circle:r=1")
    ref["windows"] = _vet(lib, circle, pot, ref, cfg, margins=False)
    _write("disk", ref)


def regen_ellipse(lib) -> None:
    """Roots table: coarse search over the region at N = 256, each root
    polished at N = 512; then the window pool over those roots.  Roots the
    pool searches find and the table lacks are polished and added."""
    rs = lib.resonance_search
    pot = lib.billiards.PotentialSpec(V0=1.0, alpha=0.0)
    curve = lib.geometry.BoundaryCurve.from_spec("ellipse:a=2,b=1")
    (re_range, im_range) = ELLIPSE["region"]
    region = rs.SearchWindow(re_range=re_range, im_range=im_range,
                             coarse_grid=ELLIPSE["region_grid"], h=ELLIPSE["h"],
                             quad_n=ELLIPSE["quad_n"])
    coarse = rs.find_resonances(region, curve, pot, compute_margins=False)
    roots = [r for r in (_polish_ellipse(lib, curve, pot, c.z) for c in coarse) if r is not None]
    ref = {"curve": "ellipse:a=2,b=1", "h": ELLIPSE["h"], "quad_n": ELLIPSE["quad_n"],
           "ref_quad_n": ELLIPSE["ref_quad_n"], "V0": 1.0, "alpha": 0.0,
           "region": [list(re_range), list(im_range)], "roots": roots}
    band = wl.SEARCH_TOL
    cfg = dict(ELLIPSE, bounds=((re_range[0] + band, re_range[1] - band),
                                (im_range[0] + band, im_range[1] - band)))
    ref["windows"] = _vet(lib, curve, pot, ref, cfg, margins=True,
                          polish=lambda z: _polish_ellipse(lib, curve, pot, z))
    _write("ellipse", ref)


def _polish_ellipse(lib, curve, pot, z):
    try:
        fine = lib.resonance_search.refine(z, curve, pot, ELLIPSE["h"], ELLIPSE["ref_quad_n"])
    except lib.errors.SabineLabError as exc:
        print(f"ellipse root N={ELLIPSE['quad_n']} {z:.6f} not confirmed: {exc}", file=sys.stderr)
        return None
    print(f"ellipse root N={ELLIPSE['quad_n']} {z:.6f} -> N={ELLIPSE['ref_quad_n']} "
          f"{fine.z:.6f}", file=sys.stderr)
    return [fine.z.real, fine.z.imag]


def regenerate(lib) -> None:
    regen_oracle(lib)
    regen_disk(lib)
    regen_ellipse(lib)
