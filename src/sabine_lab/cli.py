"""Command-line surface for the resonance laboratory.

Subcommands: disk-oracle, resonances, sabine-bound, opnorm-scaling,
billiards, from-manifest.  Each subparser in ``build_parser`` is the one
declaration of its command's flags, defaults and checks: a flag's type is its
only check, so argparse names the flag it rejects.  Every run writes a CSV
(plus SVG on request) and a JSON manifest recording the command and its
flags; ``from-manifest`` replays one through the same parser, and identical
arguments produce byte-identical CSV/SVG output.

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
# command implementations: each flag arrives checked; what is left spans flags
# ---------------------------------------------------------------------------

def _check_oracle(args: argparse.Namespace, pot: PotentialSpec, model: Model, window) -> None:
    """The disk oracle's checks across flags: alpha for --model, HI/h at --h."""
    try:
        disk_oracle.check_alpha(pot, model)
    except ValueError as exc:
        raise ValueError(f"--{exc} (--model {args.model})") from None
    try:
        disk_oracle.check_window(args.h, window)
    except ValueError as exc:
        raise ValueError(f"--window {args.window} at --h {args.h}: {exc}") from None


def _run_disk_oracle(args: argparse.Namespace) -> list[str]:
    model = Model(args.model.replace("-", "_"))
    lo, hi = _parse_range(args.window, 2)
    pot = PotentialSpec(args.V0, args.alpha)
    _check_oracle(args, pot, model, (lo, hi))
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
    model = Model(args.model.replace("-", "_"))
    curve = BoundaryCurve.from_spec(args.curve)
    re_lo, re_hi, im_lo, im_hi = _parse_range(args.window, 4)
    if model is Model.DELTA_PRIME:
        if curve.kind is not CurveKind.CIRCLE or curve.params["radius"] != 1.0:
            raise ValueError("--model delta-prime solves 'resonances' by exact modes, on "
                             f"--curve circle:r=1 only, got {args.curve!r}")
        pot = PotentialSpec(args.V0, args.alpha)
        _check_oracle(args, pot, model, (re_lo, re_hi))
        cands = disk_oracle.mode_sweep(args.h, pot, model, int(re_hi / args.h),
                                       window=(re_lo, re_hi))
        cands = [c for c in cands if im_lo <= c.z.imag <= im_hi]
        gap = billiards.sabine_gap(curve, args.h, pot, model).bound
        rows = [
            # oracle roots: no boundary operator, so no sigma_min, cond or quad_N
            [c.z.real, c.z.imag, "nan", "nan", (-c.z.imag / args.h) - gap, "nan", args.h]
            for c in cands
        ]
    else:
        pot = PotentialSpec(args.V0, args.alpha)
        try:
            window = resonance_search.SearchWindow(
                re_range=(re_lo, re_hi), im_range=(im_lo, im_hi),
                coarse_grid=_parse_grid(args.grid, 1), h=args.h, quad_n=args.quad_n,
            )
        except ValueError as exc:
            raise ValueError(f"--window {args.window} at --h {args.h}: {exc}") from None
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
    model = Model(args.model.replace("-", "_"))
    curve = BoundaryCurve.from_spec(args.curve)
    pot = PotentialSpec(args.V0, args.alpha)
    report = billiards.sabine_gap(curve, args.h, pot, model,
                                  delta1=args.delta1, n_average=args.n_average,
                                  grid=_parse_grid(args.phase_grid, 16))
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
    diameter = curve.diameter()[0]
    rows = []
    for lam in sorted(_parse_lambdas(args.lambdas)):
        # 2.56 lambda d nodes up to a power of two: about 5 per wavelength on a
        # boundary of length near pi d (5.12 lambda on the unit circle)
        n_nodes = min(args.quad_n, 2 ** math.ceil(math.log2(max(256.0, 2.56 * lam * diameter))))
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
    segments = billiards.iterate(curve, billiards.PhasePoint(args.s0, args.xi0), args.steps)
    positions = curve.point_many([seg.start.s for seg in segments])
    rows = [[seg.start.s, seg.start.xi, x, y, seg.chord_length]
            for seg, (x, y) in zip(segments, positions)]
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
    """Execute a command's parsed arguments; returns the process exit code."""
    t0 = time.perf_counter()
    try:
        outputs = _RUNNERS[args.command](args)
    except (ValueError, OSError) as exc:
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

def _checked(convert, holds, rule: str):
    """An argparse type: convert the text, then require holds(value)."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__   # argparse: "invalid float value: 'x'"
    return parse


def _as_text(parse):
    """An argparse type for a compound flag: parse checks it; the manifest keeps the text."""
    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return check


def _parse_range(text: str, n_fields: int) -> list[float]:
    """LO:HI pairs as floats, each finite and each LO below its HI."""
    values = [float(p) for p in text.split(":")]
    if len(values) != n_fields or not all(-math.inf < lo < hi < math.inf
                                          for lo, hi in zip(values[::2], values[1::2])):
        raise ValueError(f"expects {n_fields} colon-separated finite numbers, each LO "
                         f"below its HI, got {text!r}")
    return values


def _parse_grid(text: str, least: int) -> tuple[int, int]:
    """NX:NY as two integers, each at least least."""
    parts = text.split(":")
    if len(parts) != 2 or not all(p.isdecimal() and int(p) >= least for p in parts):
        raise ValueError(f"expects two integers NX:NY of at least {least}, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_lambdas(text: str) -> list[float]:
    """Comma-separated frequencies, each finite and positive."""
    lams = [float(x) for x in text.split(",") if x]
    if not lams or not all(0.0 < lam < math.inf for lam in lams):
        raise ValueError(f"must list finite positive frequencies, got {text!r}")
    return lams


# flag types: each flag's one check, which argparse reports under the flag
_UNIT_INTERVAL = _checked(float, lambda x: 0.0 < x < 1.0, "lie in (0, 1)")
_FINITE = _checked(float, math.isfinite, "be finite")
_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "be finite and positive")
_COUNT = _checked(int, lambda n: n >= 1, "be at least 1")
_EVEN_NODES = _checked(int, lambda n: n >= 16 and n % 2 == 0, "be even and at least 16")
_CURVE = _as_text(BoundaryCurve.from_spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sabine-lab", description="Scattering resonances "
                                     "of thin barriers on convex planar domains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, curve=True):
        if curve:
            p.add_argument("--curve", type=_CURVE, default="circle:r=1",
                           help="circle:r=R | ellipse:a=A,b=B | stadium:l=L,r=R")
        p.add_argument("--h", type=_UNIT_INTERVAL, default=0.1, help="semiclassical scale")
        p.add_argument("--V0", type=_POSITIVE, default=1.0, help="potential amplitude")
        p.add_argument("--alpha", type=_FINITE, default=0.0,
                       help="strength exponent (h^-alpha for delta, h^+alpha for delta-prime)")
        p.add_argument("--model", default="delta", choices=["delta", "delta-prime"])
        p.add_argument("--out", default="out.csv", help="CSV output path")

    p = sub.add_parser("disk-oracle", help="exact per-mode resonances of the unit disk")
    add_common(p, curve=False)
    p.add_argument("--n-max", type=_checked(int, lambda n: n >= 0, "be nonnegative"),
                   default=0, dest="n_max")
    p.add_argument("--window", type=_as_text(lambda t: _parse_range(t, 2)),
                   default="0.5:1.5", help="LO:HI window for Re z")
    p.add_argument("--svg", default=None, help="optional SVG scatter path")

    p = sub.add_parser("resonances", help="boundary-integral search in a complex window")
    add_common(p)
    p.add_argument("--window", type=_as_text(lambda t: _parse_range(t, 4)),
                   default="0.9:1.1:-0.25:-0.02", help="RE_LO:RE_HI:IM_LO:IM_HI in z units")
    p.add_argument("--grid", type=_as_text(lambda t: _parse_grid(t, 1)), default="33:13",
                   help="coarse scan grid NX:NY")
    p.add_argument("--quad-N", type=_EVEN_NODES, default=256, dest="quad_n")
    p.add_argument("--svg", default=None)

    p = sub.add_parser("sabine-bound", help="billiard-averaged decay-rate bound")
    add_common(p)
    p.add_argument("--delta1", type=_UNIT_INTERVAL, default=0.05, help="glancing margin")
    p.add_argument("--n-average", type=_COUNT, default=8, dest="n_average")
    p.add_argument("--phase-grid", type=_as_text(lambda t: _parse_grid(t, 16)),
                   default="64:64", dest="phase_grid", help="phase-space grid NS:NXI")

    p = sub.add_parser("opnorm-scaling", help="layer-operator norm vs frequency")
    p.add_argument("--curve", type=_CURVE, default="circle:r=1")
    p.add_argument("--lambdas", type=_as_text(_parse_lambdas), default="50,100,200,400,800")
    p.add_argument("--quad-N", type=_EVEN_NODES, default=1024, dest="quad_n",
                   help="node-count cap")
    p.add_argument("--out", default="out.csv")

    p = sub.add_parser("billiards", help="emit a billiard orbit as CSV")
    p.add_argument("--curve", type=_CURVE, default="circle:r=1")
    p.add_argument("--s0", type=_FINITE, default=0.0)
    p.add_argument("--xi0", type=_checked(float, lambda xi: abs(xi) < 1.0, "lie in (-1, 1)"),
                   default=0.0)
    p.add_argument("--steps", type=_COUNT, default=16)
    p.add_argument("--out", default="out.csv")

    p = sub.add_parser("from-manifest", help="re-run a recorded configuration")
    p.add_argument("manifest", help="path to a .manifest.json file")
    return parser


def _replay_argv(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """A manifest's config as its command's argv, one --flag=value per key the
    command takes (the = form keeps a value such as -1:2 from being read as an
    option); null values and other keys are skipped.  Raises ValueError naming
    a field that is not an object, a known command, a number or a string."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"manifest must be an object, got {type(payload).__name__}")
    config = payload.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"config must be an object, got {type(config).__name__}")
    command = config.get("command")
    if not isinstance(command, str) or command not in _RUNNERS:
        raise ValueError(f"config field 'command' must be one of {', '.join(_RUNNERS)}, "
                         f"got {command!r}")
    commands = next(a for a in parser._actions if a.dest == "command").choices
    argv = [command]
    for action in commands[command]._actions:
        value = config.get(action.dest)
        if action.default is argparse.SUPPRESS or value is None:   # SUPPRESS: --help
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"config field {action.dest!r} ({action.option_strings[0]}) "
                             f"must be a number or a string, got {value!r}")
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


def main(argv=None) -> int:
    """Parse argv, or a manifest's replay, and run it; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "from-manifest":
            args = parser.parse_args(_replay_argv(parser, args.manifest))
    except SystemExit as exc:   # argparse exits after --help, --version or an error
        return exc.code
    except (OSError, ValueError) as exc:   # raised by _replay_argv only
        print(f"error: unreadable manifest {args.manifest!r}: {exc}", file=sys.stderr)
        return 2
    return run(args)

if __name__ == "__main__":
    sys.exit(main())
