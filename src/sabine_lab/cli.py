"""Command-line surface for the resonance laboratory.

Subcommands: disk-oracle, resonances, sabine-bound, opnorm-scaling,
billiards, from-manifest.  Each subparser in ``build_parser`` is the one
declaration of its command's flags, types and defaults.  Every run writes a
CSV (plus SVG on request) and a JSON manifest recording the command and its
resolved flags; ``from-manifest`` replays one from the command's defaults
overwritten by the recorded values, and identical arguments produce
byte-identical CSV/SVG output.

Exit codes: 0 success, 2 usage/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, bie, billiards, disk_oracle, resonance_search
from .billiards import Model, PotentialSpec
from .errors import SabineLabError
from .geometry import BoundaryCurve, CurveKind


def _fmt(x) -> str:
    """17-significant-digit float formatting (stable across platforms)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "nan"
    return "%.17g" % float(x)


def _model_from_flag(value: str) -> Model:
    if value == "delta":
        return Model.DELTA
    if value in ("delta-prime", "delta_prime"):
        return Model.DELTA_PRIME
    raise ValueError(f"--model must be 'delta' or 'delta-prime', got {value!r}")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(args: argparse.Namespace, wall_time: float, outputs: list[str]) -> str:
    path = args.out + ".manifest.json"
    payload = {
        "tool": "sabine-lab",
        "version": __version__,
        "command": args.command,
        "config": vars(args),
        "wall_time_s": wall_time,
        "outputs": outputs,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# deterministic SVG scatter
# ---------------------------------------------------------------------------

def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(round(t / step) * step)
        t += step
    return ticks


def emit_plot(candidates: list, bound_curve: list, path: str) -> None:
    """Deterministic SVG scatter of (Re lambda, Im lambda) with a bound line.

    candidates carry rescaled positions z and their h; the bound polyline is
    a list of (Re lambda, Im lambda) vertices drawn as a solid line.
    """
    pts = [(c.z.real / c.h, c.z.imag / c.h) for c in candidates]
    if not pts and not bound_curve:
        raise ValueError("emit_plot needs candidates or a bound polyline")
    xs = [p[0] for p in pts] + [q[0] for q in bound_curve]
    ys = [p[1] for p in pts] + [q[1] for q in bound_curve]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad_x = 0.06 * (x_hi - x_lo or 1.0)
    pad_y = 0.12 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    width, height = 800.0, 500.0
    mleft, mright, mtop, mbot = 70.0, 20.0, 20.0, 50.0

    def sx(x):
        return mleft + (x - x_lo) / (x_hi - x_lo) * (width - mleft - mright)

    def sy(y):
        return height - mbot - (y - y_lo) / (y_hi - y_lo) * (height - mtop - mbot)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{mleft:.1f}" y="{mtop:.1f}" width="{width - mleft - mright:.1f}" '
        f'height="{height - mtop - mbot:.1f}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for tx in _nice_ticks(x_lo, x_hi):
        if not (x_lo <= tx <= x_hi):
            continue
        parts.append(f'<line x1="{sx(tx):.2f}" y1="{height - mbot:.1f}" '
                     f'x2="{sx(tx):.2f}" y2="{height - mbot + 5:.1f}" stroke="black"/>')
        parts.append(f'<text x="{sx(tx):.2f}" y="{height - mbot + 18:.1f}" '
                     f'font-size="11" text-anchor="middle">{tx:g}</text>')
    for ty in _nice_ticks(y_lo, y_hi):
        if not (y_lo <= ty <= y_hi):
            continue
        parts.append(f'<line x1="{mleft - 5:.1f}" y1="{sy(ty):.2f}" '
                     f'x2="{mleft:.1f}" y2="{sy(ty):.2f}" stroke="black"/>')
        parts.append(f'<text x="{mleft - 8:.1f}" y="{sy(ty) + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{ty:g}</text>')
    parts.append(f'<text x="{(mleft + width - mright) / 2:.1f}" y="{height - 10:.1f}" '
                 'font-size="13" text-anchor="middle">Re lambda</text>')
    parts.append(f'<text x="16" y="{(mtop + height - mbot) / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(mtop + height - mbot) / 2:.1f})">Im lambda</text>')
    if bound_curve:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in bound_curve)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="black" '
                     'stroke-width="1.5"/>')
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                     'fill="steelblue" stroke="none"/>')
    parts.append("</svg>")
    with open(path, "wb") as fh:
        fh.write("\n".join(parts).encode("ascii") + b"\n")


def _circle_bound_line(x_values, curve: BoundaryCurve, pot: PotentialSpec, model: Model,
                       h: float):
    """Circle decay bound against Re lambda (normal incidence, chord 2r).

    The barrier sigma is the one set at the window's scale h; each point
    Re lambda = x has its own scale 1/x, which enters only the reflection
    coefficient at xi = 0.  The line is log |R|^2 over twice the chord.
    """
    sv = pot.symbol(0.0, h, model)
    chord = 2.0 * curve.params["radius"]
    return [(x, float(billiards._log_reflectivity_sq(0.0, sv, 1.0 / x, model)) / (2.0 * chord))
            for x in x_values]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _parse_range(text: str, n_fields: int, flag: str):
    parts = text.split(":")
    if len(parts) != n_fields:
        raise ValueError(f"{flag} expects {n_fields} colon-separated fields, got {text!r}")
    values = [float(p) for p in parts]
    if not all(lo < hi for lo, hi in zip(values[::2], values[1::2])):
        raise ValueError(f"{flag} needs each LO below its HI, got {text!r}")
    return values


def _parse_grid(text: str, flag: str, least: int):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects NX:NY, got {text!r}")
    grid = int(parts[0]), int(parts[1])
    if min(grid) < least:
        raise ValueError(f"{flag} needs at least {least}:{least}, got {text!r}")
    return grid


def _potential(args: argparse.Namespace, oracle_model=None) -> PotentialSpec:
    """The constant barrier of --V0 and --alpha, with alpha in the disk
    oracle's range when it solves oracle_model; a rejected value is
    reported under its flag."""
    try:
        pot = PotentialSpec(V0=args.V0, alpha=args.alpha)
        if oracle_model is not None:
            disk_oracle.check_alpha(pot, oracle_model)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None
    return pot


def _run_disk_oracle(args: argparse.Namespace) -> list[str]:
    model = _model_from_flag(args.model)
    lo, hi = _parse_range(args.window, 2, "--window")
    if args.n_max < 0:
        raise ValueError(f"--n-max must be nonnegative, got {args.n_max}")
    pot = _potential(args, model)
    candidates = disk_oracle.mode_sweep(args.h, pot, model, args.n_max,
                                        window=(lo, hi))
    rows = [
        [model.value, c.provenance.n, c.provenance.k, args.h, args.alpha,
         args.V0, c.z.real, c.z.imag, c.residual]
        for c in candidates
    ]
    rows.sort(key=lambda r: (r[6], r[1]))
    _write_csv(args.out, ["model", "n", "k", "h", "alpha", "V0",
                            "re_z", "im_z", "residual"], rows)
    outputs = [args.out]
    if args.svg:
        xs = np.linspace(lo / args.h, hi / args.h, 64)
        line = _circle_bound_line(xs, BoundaryCurve.circle(1.0), pot, model, args.h)
        emit_plot(candidates, line, args.svg)
        outputs.append(args.svg)
    return outputs


def _run_resonances(args: argparse.Namespace) -> list[str]:
    model = _model_from_flag(args.model)
    curve = BoundaryCurve.from_spec(args.curve)
    re_lo, re_hi, im_lo, im_hi = _parse_range(args.window, 4, "--window")
    if args.quad_n < 16 or args.quad_n % 2:
        raise ValueError(f"--quad-N must be even and at least 16, got {args.quad_n}")
    if model is Model.DELTA_PRIME:
        if curve.kind is not CurveKind.CIRCLE or curve.params["radius"] != 1.0:
            raise ValueError(
                "--model delta-prime supports command 'resonances' only on the "
                "unit circle (exact per-mode solving), so --curve must be "
                f"circle:r=1, got {args.curve!r}; general-curve delta-prime "
                "search is out of scope"
            )
        pot = _potential(args, model)
        n_max = int(re_hi / args.h)
        cands = disk_oracle.mode_sweep(args.h, pot, model, n_max,
                                       window=(re_lo, re_hi))
        cands = [c for c in cands if im_lo <= c.z.imag <= im_hi]
        gap = billiards.sabine_gap(curve, args.h, pot, model).bound
        rows = [
            # oracle roots: no boundary operator, so no sigma_min, cond or quad_N
            [c.z.real, c.z.imag, "nan", "nan", (-c.z.imag / args.h) - gap, "nan", args.h]
            for c in cands
        ]
    else:
        pot = _potential(args)
        window = resonance_search.SearchWindow(
            re_range=(re_lo, re_hi), im_range=(im_lo, im_hi),
            coarse_grid=_parse_grid(args.grid, "--grid", 1),
            h=args.h, quad_n=args.quad_n,
        )
        cands = resonance_search.find_resonances(window, curve, pot)
        rows = [
            [c.z.real, c.z.imag, c.provenance.sigma_min, c.provenance.cond,
             c.sabine_margin, args.quad_n, args.h]
            for c in cands
        ]
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(args.out, ["re_z", "im_z", "sigma_min", "cond",
                            "sabine_margin", "quad_N", "h"], rows)
    outputs = [args.out]
    if args.svg:
        if curve.kind is CurveKind.CIRCLE and pot.is_constant:
            xs = np.linspace(re_lo / args.h, re_hi / args.h, 64)
            line = _circle_bound_line(xs, curve, pot, model, args.h)
        else:
            gap = billiards.sabine_gap(curve, args.h, pot, model).bound
            line = [(re_lo / args.h, -gap), (re_hi / args.h, -gap)]
        emit_plot(cands, line, args.svg)
        outputs.append(args.svg)
    return outputs


def _run_sabine_bound(args: argparse.Namespace) -> list[str]:
    model = _model_from_flag(args.model)
    curve = BoundaryCurve.from_spec(args.curve)
    pot = _potential(args)
    grid = _parse_grid(args.phase_grid, "--phase-grid", 16)
    if not 0.0 < args.delta1 < 1.0:
        raise ValueError(f"--delta1 must lie in (0, 1), got {args.delta1}")
    if args.n_average < 1:
        raise ValueError(f"--n-average must be at least 1, got {args.n_average}")
    report = billiards.sabine_gap(curve, args.h, pot, model,
                                  delta1=args.delta1,
                                  n_average=args.n_average, grid=grid)
    print(f"decay-rate bound (-Im z / h units): {report.bound:.6g}")
    if model is Model.DELTA and pot.alpha < 1.0:
        diameter_bound = billiards.sabine_diameter_bound(curve, args.h, pot)
        print(f"diameter closed form:               {diameter_bound:.6g}")
    if not report.within_theory:
        print(f"note: {report.notes}")
    _write_csv(args.out,
               ["h", "model", "bound", "min_s", "min_xi", "grid", "converged"],
               [[args.h, model.value, report.bound, report.minimizer.s,
                 report.minimizer.xi, f"{report.grid[0]}x{report.grid[1]}",
                 str(report.converged).lower()]])
    return [args.out]


def _run_opnorm_scaling(args: argparse.Namespace) -> list[str]:
    curve = BoundaryCurve.from_spec(args.curve)
    lams = [float(x) for x in args.lambdas.split(",") if x]
    if not lams or not all(0.0 < lam < math.inf for lam in lams):
        raise ValueError(f"--lambdas must list positive frequencies, got {args.lambdas!r}")
    if args.quad_n < 16:
        raise ValueError(f"--quad-N must be at least 16, got {args.quad_n}")
    rows = []
    for lam in sorted(lams):
        # resolve up to the cap; fully converged norms want ~5 nodes/wavelength
        n_nodes = int(min(args.quad_n, max(256, 2 ** math.ceil(math.log2(5.12 * lam)))))
        if n_nodes % 2:
            n_nodes += 1
        grid = bie.NystromGrid.build(curve, n_nodes)
        norm = bie.operator_norm(bie.assemble_single_layer(grid, lam))
        rows.append([lam, n_nodes, norm])
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[2] for r in rows]), 1)[0])
        print(f"least-squares slope of log norm vs log lambda: {slope:.4f}")
    _write_csv(args.out, ["lambda", "N", "norm"], rows)
    return [args.out]


def _run_billiards(args: argparse.Namespace) -> list[str]:
    curve = BoundaryCurve.from_spec(args.curve)
    if not math.isfinite(args.s0):
        raise ValueError(f"--s0 must be finite, got {args.s0}")
    if not abs(args.xi0) < 1.0:
        raise ValueError(f"--xi0 must lie in (-1, 1), got {args.xi0}")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    q = billiards.PhasePoint(args.s0, args.xi0)
    segments = billiards.iterate(curve, q, args.steps)
    rows = []
    for seg in segments:
        data = curve.point_at(seg.start.s)
        rows.append([seg.start.s, seg.start.xi,
                     data.position[0], data.position[1], seg.chord_length])
    _write_csv(args.out, ["s", "xi", "x", "y", "chord"], rows)
    return [args.out]


_RUNNERS = {
    "disk-oracle": _run_disk_oracle,
    "resonances": _run_resonances,
    "sabine-bound": _run_sabine_bound,
    "opnorm-scaling": _run_opnorm_scaling,
    "billiards": _run_billiards,
}


def run(args: argparse.Namespace) -> int:
    """Execute a command's resolved arguments; returns the process exit code."""
    t0 = time.perf_counter()
    try:
        if "h" in args and not 0.0 < args.h < 1.0:
            raise ValueError(f"--h must lie in (0, 1), got {args.h}")
        outputs = _RUNNERS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SabineLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _write_manifest(args, time.perf_counter() - t0, outputs)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sabine-lab",
        description="Scattering resonances of thin barriers on convex planar domains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, curve=True):
        if curve:
            p.add_argument("--curve", default="circle:r=1",
                           help="circle:r=R | ellipse:a=A,b=B | stadium:l=L,r=R")
        p.add_argument("--h", type=float, default=0.1, help="semiclassical scale")
        p.add_argument("--V0", type=float, default=1.0, help="potential amplitude")
        p.add_argument("--alpha", type=float, default=0.0,
                       help="strength exponent (h^-alpha for delta, h^+alpha for delta-prime)")
        p.add_argument("--model", default="delta", choices=["delta", "delta-prime"])
        p.add_argument("--out", default="out.csv", help="CSV output path")

    p = sub.add_parser("disk-oracle", help="exact per-mode resonances of the unit disk")
    add_common(p, curve=False)
    p.add_argument("--n-max", type=int, default=0, dest="n_max")
    p.add_argument("--window", default="0.5:1.5", help="LO:HI window for Re z")
    p.add_argument("--svg", default=None, help="optional SVG scatter path")

    p = sub.add_parser("resonances", help="boundary-integral search in a complex window")
    add_common(p)
    p.add_argument("--window", default="0.9:1.1:-0.25:-0.02",
                   help="RE_LO:RE_HI:IM_LO:IM_HI in z units")
    p.add_argument("--grid", default="33:13", help="coarse scan grid NX:NY")
    p.add_argument("--quad-N", type=int, default=256, dest="quad_n")
    p.add_argument("--svg", default=None)

    p = sub.add_parser("sabine-bound", help="billiard-averaged decay-rate bound")
    add_common(p)
    p.add_argument("--delta1", type=float, default=0.05, help="glancing margin")
    p.add_argument("--n-average", type=int, default=8, dest="n_average")
    p.add_argument("--phase-grid", default="64:64", dest="phase_grid",
                   help="phase-space grid NS:NXI")

    p = sub.add_parser("opnorm-scaling", help="layer-operator norm vs frequency")
    p.add_argument("--curve", default="circle:r=1")
    p.add_argument("--lambdas", default="50,100,200,400,800")
    p.add_argument("--quad-N", type=int, default=1024, dest="quad_n",
                   help="node-count cap")
    p.add_argument("--out", default="out.csv")

    p = sub.add_parser("billiards", help="emit a billiard orbit as CSV")
    p.add_argument("--curve", default="circle:r=1")
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--xi0", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--out", default="out.csv")

    p = sub.add_parser("from-manifest", help="re-run a recorded configuration")
    p.add_argument("manifest", help="path to a .manifest.json file")
    return parser


def _replay_args(parser: argparse.ArgumentParser, config) -> argparse.Namespace:
    """A manifest's config as its command's arguments: the command's own
    defaults, overwritten by the values the config gives; keys the command
    does not take are ignored.

    Raises ValueError naming the offending field when config is not an
    object, the command is missing or unknown, or a value's type does not
    match its default's (an int is accepted where the default is a float, a
    string or null where it is None, and bool never).
    """
    if not isinstance(config, dict):
        raise ValueError(f"config must be an object, got {type(config).__name__}")
    command = config.get("command")
    if not isinstance(command, str) or command not in _RUNNERS:
        raise ValueError(f"config field 'command' must be one of {', '.join(_RUNNERS)}, "
                         f"got {command!r}")
    args = parser.parse_args([command])
    for name, default in vars(args).items():
        if name not in config:
            continue
        value = config[name]
        allowed = (str, type(None)) if default is None else (type(default),)
        if float in allowed:
            allowed += (int,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"config field {name!r} must be "
                             f"{' or '.join(t.__name__ for t in allowed)}, got {value!r}")
        setattr(args, name, float(value) if isinstance(default, float) else value)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "from-manifest":
        try:
            with open(args.manifest) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError(f"manifest must be an object, got {type(payload).__name__}")
            args = _replay_args(parser, payload.get("config"))
        except (OSError, ValueError) as exc:
            print(f"error: unreadable manifest {args.manifest!r}: {exc}", file=sys.stderr)
            return 2
    return run(args)

if __name__ == "__main__":
    sys.exit(main())
