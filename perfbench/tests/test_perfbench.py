"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The run tests start the benchmark at its minimum size (one pass per
workload) and take a few minutes in total.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@lru_cache(maxsize=None)
def _result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_minimum_run_emits_every_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(workload):
    first = _result(workload, 1)["metrics"]
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("bound-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# gates catch perturbed results
# ---------------------------------------------------------------------------

def _cand(z, residual=1e-13, margin=None):
    return SimpleNamespace(z=complex(z), residual=residual, sabine_margin=margin, h=0.1,
                           provenance=SimpleNamespace(n=0))


@pytest.mark.parametrize("name,margins", [("disk", False), ("ellipse", True)])
def test_search_gate_catches_shifted_root(name, margins):
    ref = wl.load_reference(name)
    expect = ref["windows"][0]["expect"]
    assert expect
    z = complex(*expect[0][:2])
    floor = -wl.MARGIN_SLACK if margins else None
    margin = 0.5 if margins else None
    good = [_cand(complex(*r[:2]), margin=margin) for r in expect]
    assert wl.check_search(good, expect, ref["roots"], floor) == []
    shifted = [_cand(z + 1e-2, margin=margin)] + good[1:]
    assert wl.check_search(shifted, expect, ref["roots"], floor)
    assert wl.check_search(good + [_cand(z + 0.5, margin=margin)], expect, ref["roots"], floor)
    assert wl.check_search(good[1:], expect, ref["roots"], floor)
    if margins:
        low = [_cand(c.z, margin=-0.2) for c in good]
        assert wl.check_search(low, expect, ref["roots"], floor)


def test_sweep_gate_catches_shifted_root_and_residual():
    table = next(t for t in wl.load_reference("oracle")["tables"] if t["h"] == 0.01)
    window = (0.95, 1.0)
    roots = [_cand(complex(*r[:2])) for r in table["roots"] if window[0] <= r[0] <= window[1]]
    assert roots and wl.check_sweep(roots, window, table["roots"]) == []
    shifted = roots[:-1] + [_cand(roots[-1].z + 1e-2)]
    assert wl.check_sweep(shifted, window, table["roots"])
    assert wl.check_sweep(roots[:-1], window, table["roots"])
    noisy = roots[:-1] + [_cand(roots[-1].z, residual=1e-6)]
    assert wl.check_sweep(noisy, window, table["roots"])


def test_bound_gates_catch_perturbations():
    d = 2.0
    exact = wl.diameter_formula(0.01, 0.0, 1.0, d)
    report = SimpleNamespace(bound=exact, within_theory=True, notes="")
    assert wl.check_gap(report, "circle:r=1", 0.01, "delta", 0.0, d) == []
    report.bound = exact * 1.01
    assert wl.check_gap(report, "circle:r=1", 0.01, "delta", 0.0, d)
    stadium = SimpleNamespace(bound=0.8, within_theory=True, notes="")
    assert wl.check_gap(stadium, "stadium:l=1,r=1", 0.1, "delta", 0.0, 4.0)
    assert wl.check_slope(-0.66) == [] and wl.check_slope(-0.5)
    cap = wl.GAP_ESCAPE_CAP * math.log(1.0 / 0.05)
    assert wl.check_escape_cap(SimpleNamespace(bound=cap, capped=True), 0.05) == []
    assert wl.check_escape_cap(SimpleNamespace(bound=1.9, capped=False), 0.05)
    assert wl.check_escape_cap(SimpleNamespace(bound=cap, capped=False), 0.05)


def test_orbit_gate_catches_drift():
    def seg(xi, nxt):
        return SimpleNamespace(start=SimpleNamespace(xi=xi), end=nxt, chord_length=1.0)

    end = SimpleNamespace(xi=0.4 + 1e-11)
    assert wl.check_orbit([seg(0.4, end)], "circle:r=1", 0.4, 2.0)
    end.xi = 0.4
    assert wl.check_orbit([seg(0.4, end)], "circle:r=1", 0.4, 2.0) == []


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, 0, True],
             ["b", 1.0, 4.0, 0, 0, 0, True],
             ["c", 2.0, 3.0, 1, 0, 0, True],
             ["b", 5.0, 6.0, 0, 0, 0, True]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
