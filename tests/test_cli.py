"""CLI surface: exit codes, determinism, manifests and plots."""

import json
import math
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from sabine_lab import cli, disk_oracle
from sabine_lab.billiards import Model, PotentialSpec, sabine_gap
from sabine_lab.disk_oracle import mode_sweep
from sabine_lab.geometry import BoundaryCurve


def run_cli(argv):
    return cli.main(argv)


def test_disk_oracle_single_candidate(tmp_path):
    out = tmp_path / "oracle.csv"
    code = run_cli(["disk-oracle", "--h", "0.05", "--V0", "1", "--alpha", "0",
                    "--n-max", "0", "--window", "0.9:1.1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "model,n,k,h,alpha,V0,re_z,im_z,residual"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "delta" and fields[1] == "0" and fields[2] == "6"
    assert abs(float(fields[7]) + 0.0927436) < 1e-4


def test_sabine_bound_output(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    code = run_cli(["sabine-bound", "--curve", "circle:r=1", "--h", "0.01",
                    "--V0", "1", "--alpha", "0", "--model", "delta",
                    "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    match = re.search(r"bound.*?:\s*([0-9.]+)", printed)
    assert match and abs(float(match.group(1)) - 2.649) < 0.013   # 2.649 +- 0.5%
    assert re.search(r"orbits stepped per depth:\s*65$", printed, re.MULTILINE)
    header, row = out.read_text().strip().splitlines()
    assert header == "h,model,bound,min_s,min_xi,grid,converged"
    assert row.split(",")[5] == "64x65"   # the sampled grid: the xi count is made odd
    assert row.endswith("true")


def test_unknown_curve_exits_2(tmp_path, capsys):
    code = run_cli(["sabine-bound", "--curve", "pentagon:r=1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "curve" in capsys.readouterr().err


def test_bad_window_exits_2(tmp_path, capsys):
    code = run_cli(["disk-oracle", "--window", "nonsense",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--window" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["0", "1"])
@pytest.mark.parametrize("command", ["resonances", "sabine-bound", "disk-oracle"])
def test_h_outside_unit_interval_exits_2(tmp_path, capsys, command, h):
    # given on the command line or replayed from a manifest
    out = tmp_path / "x.csv"
    assert run_cli([command, "--h", h, "--out", str(out)]) == 2
    assert "--h" in capsys.readouterr().err
    manifest = tmp_path / "x.manifest.json"
    manifest.write_text(json.dumps({"config": {"command": command, "h": float(h),
                                               "out": str(out)}}))
    assert run_cli(["from-manifest", str(manifest)]) == 2
    assert "--h" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lambdas", ["0", "50,-100", "nan"])
def test_lambda_not_positive_exits_2(tmp_path, capsys, lambdas):
    code = run_cli(["opnorm-scaling", "--lambdas", lambdas, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--lambdas" in capsys.readouterr().err


def test_glancing_start_exits_2(tmp_path, capsys):
    code = run_cli(["billiards", "--xi0", "1.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--xi0" in capsys.readouterr().err


def test_decreasing_oracle_window_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli(["disk-oracle", "--window", "1.1:0.9", "--out", str(out)])
    assert code == 2
    assert "--window" in capsys.readouterr().err
    assert not out.exists()


def test_resonances_window_with_nonpositive_real_part_exits_2(tmp_path, capsys):
    # Re z <= 0 lies outside the Hankel kernel's domain: a usage error that
    # names the flag, not a numerical failure (exit 3) once the scan starts
    out = tmp_path / "x.csv"
    code = run_cli(["resonances", "--window=-0.1:0.1:-0.2:-0.02", "--grid", "3:3",
                    "--quad-N", "64", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--window" in err and "must be positive" in err
    assert not out.exists()


def test_delta_prime_resonances_requires_circle(tmp_path, capsys):
    code = run_cli(["resonances", "--curve", "ellipse:a=2,b=1",
                    "--model", "delta-prime", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "delta-prime" in capsys.readouterr().err


def test_delta_prime_resonances_requires_unit_circle(tmp_path, capsys):
    # the oracle solves the unit disk only: another radius would get its roots
    out = tmp_path / "x.csv"
    code = run_cli(["resonances", "--curve", "circle:r=2", "--model", "delta-prime",
                    "--alpha", "0.9", "--out", str(out)])
    assert code == 2
    assert "--curve" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["billiards", "--steps", "0"], "--steps"),
    (["resonances", "--quad-N", "10"], "--quad-N"),
    (["resonances", "--quad-N", "65"], "--quad-N"),
    (["resonances", "--grid", "0:4"], "--grid"),
    (["sabine-bound", "--phase-grid", "8:8"], "--phase-grid"),
    (["disk-oracle", "--n-max", "-1"], "--n-max"),
    (["opnorm-scaling", "--quad-N", "10"], "--quad-N"),
    (["sabine-bound", "--V0", "nan"], "--V0"),
    (["sabine-bound", "--alpha", "nan"], "--alpha"),
    (["disk-oracle", "--V0", "inf", "--n-max", "0"], "--V0"),
    (["resonances", "--V0", "nan", "--grid", "2:2", "--quad-N", "16"], "--V0"),
    (["billiards", "--s0", "nan"], "--s0"),
    (["disk-oracle", "--alpha", "1.2", "--n-max", "1"], "--alpha"),
    (["disk-oracle", "--model", "delta-prime", "--alpha", "0.3", "--n-max", "1"], "--alpha"),
    (["resonances", "--model", "delta-prime", "--alpha", "0.3"], "--alpha"),
    (["sabine-bound", "--delta1", "1.5"], "--delta1"),
    (["sabine-bound", "--n-average", "0"], "--n-average"),
    (["disk-oracle", "--window", "0.5:inf", "--n-max", "2"], "--window"),
    (["disk-oracle", "--window", "0.9:1e308", "--n-max", "2"], "--window"),
    (["resonances", "--window", "0.9:inf:-0.2:-0.02", "--grid", "2:2", "--quad-N", "16"],
     "--window"),
    (["sabine-bound", "--curve", "circle:r=nan"], "--curve"),
    (["sabine-bound", "--curve", "circle:r=inf"], "--curve"),
    (["billiards", "--curve", "stadium:l=nan,r=1"], "--curve"),
    (["opnorm-scaling", "--curve", "circle:r=nan", "--lambdas", "50"], "--curve"),
    (["sabine-bound", "--curve", "circle:r=1,r=2"], "--curve"),
    (["sabine-bound", "--curve", "circle:r=1,q=2"], "--curve"),
    (["resonances", "--grid", "1.5:2"], "--grid"),
    (["sabine-bound", "--phase-grid", "16:x"], "--phase-grid"),
    (["resonances", "--window", "0.9:1.1:-5:-0.1", "--grid", "2:2", "--quad-N", "16"],
     "--window"),
    (["opnorm-scaling", "--quad-N", "17"], "--quad-N"),
])
def test_invalid_flag_exits_2_naming_it(tmp_path, capsys, argv, flag):
    # given on the command line or replayed from a manifest, with its values as text
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
    config = {"command": argv[0], "out": str(out)}
    for name, value in zip(argv[1::2], argv[2::2]):
        config[{"--quad-N": "quad_n"}.get(name, name[2:].replace("-", "_"))] = value
    manifest = tmp_path / "x.manifest.json"
    manifest.write_text(json.dumps({"config": config}))
    assert run_cli(["from-manifest", str(manifest)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["disk-oracle", "--window", "0.9:1e12", "--n-max", "0"],
    ["resonances", "--model", "delta-prime", "--alpha", "0.9",
     "--window", "0.9:1e12:-0.2:-0.02"],
])
def test_oracle_window_beyond_the_bessel_region_exits_2(tmp_path, capsys, monkeypatch, argv):
    # HI/h = 1e13 would enumerate modes without end, each failing outside the
    # validated Bessel region (Re lambda <= 2000): it is rejected before any
    # mode is solved
    def no_solve(*args):
        raise AssertionError("a mode was solved")

    monkeypatch.setattr(disk_oracle, "_solve_mode", no_solve)
    out = tmp_path / "x.csv"
    t0 = time.perf_counter()
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "--window" in err and "--h" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha, h", [(0.9, 0.02), (0.8, 0.05)])
def test_delta_prime_resonances_match_mode_sweep(tmp_path, alpha, h):
    # modes whose roots lie in the upper part of the window are tried too:
    # the rows equal a sweep over twice the modes, filtered by Im z
    out = tmp_path / "res.csv"
    code = run_cli(["resonances", "--curve", "circle:r=1", "--model", "delta-prime",
                    "--h", str(h), "--V0", "1", "--alpha", str(alpha),
                    "--window", "0.9:1.1:-0.25:-0.02", "--out", str(out)])
    assert code == 0
    rows = [tuple(float(x) for x in line.split(",")[:2])
            for line in out.read_text().strip().splitlines()[1:]]
    sweep = mode_sweep(h, PotentialSpec(V0=1.0, alpha=alpha), Model.DELTA_PRIME,
                       int(2 * 1.1 / h), window=(0.9, 1.1))
    expected = sorted((c.z.real, c.z.imag) for c in sweep if -0.25 <= c.z.imag <= -0.02)
    assert len(expected) == {0.02: 10, 0.05: 4}[h]
    assert rows == expected


def test_csv_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["disk-oracle", "--h", "0.05", "--n-max", "2", "--window", "0.8:1.2"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_manifest_roundtrip(tmp_path):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "sweep.svg"
    args = ["disk-oracle", "--h", "0.05", "--n-max", "1", "--window", "0.8:1.2",
            "--out", str(out), "--svg", str(svg)]
    assert run_cli(args) == 0
    csv_bytes = out.read_bytes()
    svg_bytes = svg.read_bytes()
    manifest_path = str(out) + ".manifest.json"
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["tool"] == "sabine-lab"
    assert manifest["command"] == "disk-oracle"
    assert str(out) in manifest["outputs"] and str(svg) in manifest["outputs"]
    assert run_cli(["from-manifest", manifest_path]) == 0
    assert out.read_bytes() == csv_bytes
    assert svg.read_bytes() == svg_bytes


def test_svg_determinism_and_structure(tmp_path):
    svg = tmp_path / "plot.svg"
    pot = PotentialSpec(V0=1.0, alpha=0.0)
    cands = mode_sweep(0.05, pot, Model.DELTA, 0, window=(0.8, 1.2))
    line = cli._circle_bound_line([16.0, 20.0, 24.0], BoundaryCurve.circle(1.0), pot,
                                  Model.DELTA, 0.05)
    cli.emit_plot(cands, line, str(svg))
    first = svg.read_bytes()
    cli.emit_plot(cands, line, str(svg))
    assert svg.read_bytes() == first
    root = ET.fromstring(first)
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    polylines = root.findall(f"{ns}polyline")
    assert len(circles) == len(cands)
    assert len(polylines) == 1
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert "Re lambda" in texts and "Im lambda" in texts


def test_plot_markers_on_resonance_side_of_bound(tmp_path):
    # every oracle marker satisfies -Im lambda >= bound line at its Re lambda
    pot = PotentialSpec(V0=1.0, alpha=0.0)
    h = 0.05
    cands = mode_sweep(h, pot, Model.DELTA, 0, window=(0.6, 1.4))
    assert len(cands) >= 3
    for c in cands:
        x = c.z.real / h
        line_im = cli._circle_bound_line([x], BoundaryCurve.circle(1.0), pot, Model.DELTA,
                                         h)[0][1]
        assert c.z.imag / h <= line_im + 1e-9


@pytest.mark.parametrize("model, alpha", [(Model.DELTA, 0.0), (Model.DELTA_PRIME, 0.8)])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_circle_bound_line_matches_sabine_gap(radius, model, alpha):
    # at Re lambda = 1/h the plotted line is the billiard bound of that circle
    h = 0.05
    curve = BoundaryCurve.circle(radius)
    pot = PotentialSpec(V0=1.0, alpha=alpha)
    line_im = cli._circle_bound_line([1.0 / h], curve, pot, model, h)[0][1]
    bound = sabine_gap(curve, h, pot, model).bound
    assert abs(-line_im - bound) <= 1e-12 * bound


@pytest.mark.parametrize("model, alpha", [(Model.DELTA, 0.5), (Model.DELTA_PRIME, 0.8)])
def test_circle_bound_line_holds_barrier_fixed(model, alpha):
    # off Re lambda = 1/h the barrier stays the one set at the window's h;
    # the point's own scale 1/x enters only the reflection strength t
    h, V0 = 0.05, 1.5
    pot = PotentialSpec(V0=V0, alpha=alpha)
    sigma = V0 * h ** (-alpha if model is Model.DELTA else alpha)
    xs = [0.9 / h, 1.1 / h]
    line = cli._circle_bound_line(xs, BoundaryCurve.circle(1.0), pot, model, h)
    for x, (x_line, line_im) in zip(xs, line):
        t = sigma / x if model is Model.DELTA else sigma * x
        expect = math.log(1.0 + 4.0 / (t * t)) / 4.0
        assert x_line == x
        assert abs(-line_im - expect) <= 1e-12 * expect


def test_line_only_plot(tmp_path):
    svg = tmp_path / "line.svg"
    cli.emit_plot([], [(10.0, -1.0), (20.0, -1.3)], str(svg))
    assert b"polyline" in svg.read_bytes()
    with pytest.raises(ValueError):
        cli.emit_plot([], [], str(tmp_path / "empty.svg"))


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
@pytest.mark.parametrize("curve, window, grid, vertices", [
    # the circle's bound at each frequency; elsewhere the flat line at -bound
    ("circle:r=1", "1.088:1.102:-0.17:-0.13", "8:5", 64),
    ("ellipse:a=2,b=1", "0.9701:1.0001:-0.1378:-0.0878", "4:4", 2),
])
def test_resonances_plot(tmp_path, curve, window, grid, vertices):
    out, svg = tmp_path / "res.csv", tmp_path / "res.svg"
    code = run_cli(["resonances", "--curve", curve, "--h", "0.1", "--window", window,
                    "--grid", grid, "--quad-N", "128", "--out", str(out), "--svg", str(svg)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert rows
    root = ET.fromstring(svg.read_bytes())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}circle")) == len(rows)
    (polyline,) = root.findall(f"{ns}polyline")
    points = [tuple(map(float, p.split(","))) for p in polyline.get("points").split()]
    assert len(points) == vertices
    if vertices == 2:
        assert points[0][1] == points[1][1]


def test_numerical_failure_exits_3(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = run_cli(["billiards", "--xi0", "0.99999999999", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_module_entry_point_prints_version():
    # the package need not be installed: point the child at the tree under test
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "sabine_lab.cli", "--version"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0
    assert done.stdout.strip() == "0.1.0"


def test_unwritable_output_exits_2(tmp_path, capsys):
    code = run_cli(["billiards", "--steps", "2",
                    "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_billiards_orbit_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    code = run_cli(["billiards", "--curve", "circle:r=1", "--s0", "0",
                    "--xi0", "0", "--steps", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,xi,x,y,chord"
    assert len(lines) == 5
    chords = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(abs(c - 2.0) < 1e-12 for c in chords)


@pytest.mark.parametrize("s0", ["7", "-1"])
def test_billiards_rows_start_in_one_period(tmp_path, s0):
    # the first row is the start, reported in [0, L) like every later row
    out = tmp_path / "orbit.csv"
    code = run_cli(["billiards", "--curve", "circle:r=1", "--s0", s0,
                    "--xi0", "0.3", "--steps", "3", "--out", str(out)])
    assert code == 0
    s = [float(line.split(",")[0]) for line in out.read_text().strip().splitlines()[1:]]
    assert s[0] == pytest.approx(float(s0) % (2 * math.pi), abs=1e-15)
    assert all(0.0 <= v < 2 * math.pi for v in s)


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_opnorm_scaling_csv(tmp_path, capsys):
    out = tmp_path / "norms.csv"
    code = run_cli(["opnorm-scaling", "--curve", "circle:r=1",
                    "--lambdas", "50,100", "--quad-N", "512", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "slope" in printed
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,N,norm"
    assert len(lines) == 3


def test_resonances_csv_schema(tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(["resonances", "--curve", "circle:r=1", "--h", "0.1",
                    "--window", "1.088:1.102:-0.17:-0.13", "--grid", "8:5",
                    "--quad-N", "128", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,sigma_min,cond,sabine_margin,quad_N,h"
    assert len(lines) == 2   # exactly the n=0 root at 1.0959 - 0.1545i
    fields = [float(x) for x in lines[1].split(",")]
    assert abs(fields[0] - 1.0959) < 2e-3
    assert abs(fields[1] + 0.1545) < 2e-3


@pytest.mark.parametrize("payload, message", [
    ({"config": {"h": 0.05, "out": "x.csv"}}, "'command'"),
    ({"config": ["disk-oracle", 0.05]}, "config must be an object"),
    ({"config": {"command": "billiards", "steps": "abc"}}, "--steps"),
    (["disk-oracle", 0.05], "manifest must be an object"),
    ({"config": {"command": "billiards", "steps": True}}, "'steps'"),
    ({"config": {"command": "disk-oracle", "window": [0.9, 1.1]}}, "'window'"),
])
def test_malformed_manifest_exits_2(tmp_path, capsys, payload, message):
    manifest = tmp_path / "bad.manifest.json"
    manifest.write_text(json.dumps(payload))
    assert run_cli(["from-manifest", str(manifest)]) == 2
    assert message in capsys.readouterr().err


def test_delta_prime_resonance_rows_have_no_operator_columns(tmp_path):
    # oracle-delegated rows involve no boundary operator or quadrature
    out = tmp_path / "res.csv"
    code = run_cli(["resonances", "--model", "delta-prime", "--h", "0.05",
                    "--alpha", "0.8", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 4
    for row in rows:
        assert [row[2], row[3], row[5]] == ["nan", "nan", "nan"]
        assert math.isfinite(float(row[4])) and float(row[6]) == 0.05


# each command's flags, as a manifest records them next to "command"
COMMAND_FLAGS = {
    "disk-oracle": {"h", "V0", "alpha", "model", "out", "n_max", "window", "svg"},
    "resonances": {"curve", "h", "V0", "alpha", "model", "out", "window", "grid",
                   "quad_n", "svg"},
    "sabine-bound": {"curve", "h", "V0", "alpha", "model", "out", "delta1",
                     "n_average", "phase_grid"},
    "opnorm-scaling": {"curve", "lambdas", "quad_n", "out"},
    "billiards": {"curve", "s0", "xi0", "steps", "out"},
}


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
@pytest.mark.parametrize("command, flags", [
    ("disk-oracle", {}),
    ("resonances", {"grid": "5:3"}),   # the window stays at the command's default
    ("sabine-bound", {}),
    ("opnorm-scaling", {"lambdas": "200"}),   # --quad-N stays at its default 1024
    ("billiards", {}),
])
def test_partial_manifest_replays_with_command_defaults(tmp_path, command, flags):
    direct, replay = tmp_path / "direct.csv", tmp_path / "replay.csv"
    argv = [command, "--out", str(direct)]
    for name, value in flags.items():
        argv += [f"--{name}", value]
    assert run_cli(argv) == 0
    recorded = json.loads((tmp_path / "direct.csv.manifest.json").read_text())["config"]
    assert set(recorded) == {"command"} | COMMAND_FLAGS[command]

    manifest = tmp_path / "partial.manifest.json"
    manifest.write_text(json.dumps(
        {"config": {"command": command, "out": str(replay), **flags}}))
    assert run_cli(["from-manifest", str(manifest)]) == 0
    assert replay.read_bytes() == direct.read_bytes()
    replayed = json.loads((tmp_path / "replay.csv.manifest.json").read_text())["config"]
    assert replayed == {**recorded, "out": str(replay)}


# configs as the earlier manifest format wrote them: every field of every command
EIGHTEEN_FIELDS = {
    "V0": 1.0, "alpha": 0.0, "curve": "circle:r=1", "delta1": 0.05, "grid": "33:13",
    "h": 0.1, "lambdas": "50,100,200,400,800", "model": "delta", "n_average": 8,
    "n_max": 0, "phase_grid": "64:64", "quad_n": 256, "s0": 0.0, "steps": 16,
    "svg": None, "window": "0.5:1.5", "xi0": 0.0,
}


@pytest.mark.parametrize("argv, fields", [
    (["disk-oracle", "--h", "0.05", "--n-max", "1", "--window", "0.8:1.2"],
     {"command": "disk-oracle", "h": 0.05, "n_max": 1, "window": "0.8:1.2"}),
    (["billiards", "--steps", "3"], {"command": "billiards", "steps": 3}),
])
def test_eighteen_field_manifest_still_replays(tmp_path, argv, fields):
    direct, replay = tmp_path / "direct.csv", tmp_path / "replay.csv"
    assert run_cli(argv + ["--out", str(direct)]) == 0
    manifest = tmp_path / "old.manifest.json"
    manifest.write_text(json.dumps(
        {"config": {**EIGHTEEN_FIELDS, **fields, "out": str(replay)}}))
    assert run_cli(["from-manifest", str(manifest)]) == 0
    assert replay.read_bytes() == direct.read_bytes()


def test_manifest_values_given_as_text_pass_the_flag_types(tmp_path):
    # a text value goes through the same converter as the command line
    direct, replay = tmp_path / "direct.csv", tmp_path / "replay.csv"
    assert run_cli(["disk-oracle", "--h", "0.05", "--n-max", "1", "--window", "0.8:1.2",
                    "--out", str(direct)]) == 0
    manifest = tmp_path / "text.manifest.json"
    manifest.write_text(json.dumps({"config": {
        "command": "disk-oracle", "h": "0.05", "n_max": "1", "window": "0.8:1.2",
        "out": str(replay)}}))
    assert run_cli(["from-manifest", str(manifest)]) == 0
    assert replay.read_bytes() == direct.read_bytes()
    replayed = json.loads((tmp_path / "replay.csv.manifest.json").read_text())["config"]
    assert replayed["h"] == 0.05 and replayed["n_max"] == 1


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
@pytest.mark.filterwarnings("ignore:stadium boundary is only C")
@pytest.mark.parametrize("spec", ["ellipse:a=2,b=1", "stadium:l=1,r=1"])
def test_opnorm_scaling_off_the_circle(tmp_path, spec):
    # ||G(lambda)|| ~ lambda^(-2/3) on a smooth strictly convex boundary, with
    # local slopes falling toward -2/3; the stadium's straights give
    # lambda^(-1/2) (Han and Tacy, J. Funct. Anal. 2015), so its slope sits above
    out = tmp_path / "norms.csv"
    assert run_cli(["opnorm-scaling", "--curve", spec, "--lambdas", "25,50,100,200",
                    "--quad-N", "2048", "--out", str(out)]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in out.read_text().strip().splitlines()[1:]]
    assert [row[1] for row in rows] == [256, 512, 1024, 2048]   # 2.56 lambda d, d = 4
    log_lam, log_norm = np.log([row[0] for row in rows]), np.log([row[2] for row in rows])
    slope = np.polyfit(log_lam, log_norm, 1)[0]
    if spec.startswith("ellipse"):
        local = np.diff(log_norm) / np.diff(log_lam)
        assert -0.73 <= slope <= -0.60
        assert np.all(np.diff(local) < 0)
    else:
        assert slope > -0.60
