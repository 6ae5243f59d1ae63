"""The benchmark's tracer (perfbench/tracing.py) hooks this library by name.

A hook whose target is renamed or deleted fails at install, and one whose
target changes its arguments or return fails when it counts the call's work.
This checks the install/uninstall round trip and drives every hook once, so
that such a change fails tier-1 and not only the benchmark's own, much
slower, tests.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sabine_lab
from sabine_lab import bie, billiards, disk_oracle, geometry, resonance_search, specfun

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_round_trip():
    owners = [specfun, bie, billiards, geometry, resonance_search, disk_oracle,
              bie.NystromGrid, geometry.BoundaryCurve]
    before = [dict(vars(owner)) for owner in owners]

    def changed():
        return {(owner.__name__, name)
                for owner, saved in zip(owners, before)
                for name in set(vars(owner)) | set(saved)
                if vars(owner).get(name) is not saved.get(name)}

    tracer = load_tracing().Tracer()
    try:
        tracer.install(sabine_lab)
        patched = changed()
    finally:
        tracer.uninstall()
    assert ("BoundaryCurve", "_ray_exit_many") in patched
    assert ("sabine_lab.resonance_search", "sigma_min_boundary_operator") in patched
    assert changed() == set()


# the span names Tracer.install gives the functions it wraps
HOOKED = {
    "specfun.j0_h0_arrays", "specfun.bessel_quad", "bie.assemble", "bie.sigma_min",
    "bie.operator_norm", "bie.grid_build", "resonance_search.find_resonances",
    "resonance_search.scan", "resonance_search.refine", "billiards.sabine_gap",
    "billiards.sabine_diameter_bound", "billiards.iterate", "geometry.ellipse_build",
    "geometry.point_many", "geometry.ray_exit", "disk_oracle.mode_sweep",
    "disk_oracle.solve_mode",
}


@pytest.mark.filterwarnings("ignore:lambda\\*diameter")
def test_every_hook_records_its_calls(unit_circle):
    # each wrapped function once on tiny inputs: a hook whose argument or
    # return no longer fits its work counter fails here
    tracing = load_tracing()
    pot = billiards.PotentialSpec(V0=1.0, alpha=0.0)
    tracer = tracing.Tracer()
    tracer.install(sabine_lab)
    try:
        window = resonance_search.SearchWindow(re_range=(0.9, 1.1), im_range=(-0.2, -0.02),
                                               coarse_grid=(2, 2), h=0.1, quad_n=64)
        resonance_search.find_resonances(window, unit_circle, pot, compute_margins=False)
        grid = bie.NystromGrid.build(unit_circle, 64)
        bie.operator_norm(bie.assemble_single_layer(grid, 5.0))
        billiards.sabine_gap(unit_circle, 0.1, pot, billiards.Model.DELTA,
                             grid=(16, 16), n_average=1)
        billiards.sabine_diameter_bound(unit_circle, 0.1, pot)
        billiards.iterate(unit_circle, billiards.PhasePoint(0.3, 0.4), 3)
        ellipse = geometry.BoundaryCurve.ellipse(2.0, 1.0)
        ellipse.point_many(np.linspace(0.0, 1.0, 5))
        ellipse._ray_exit_many(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        roots = disk_oracle.mode_sweep(0.1, pot, billiards.Model.DELTA, 0, window=(0.9, 1.1))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = [span[tracing._NAME] for span in spans]
    assert set(names) == HOOKED
    metrics, _, _ = tracing.layer_metrics(spans, 1.0, 1.0)
    assert metrics["billiards.iterate.steps"] == 3
    assert metrics["geometry.ray_exit.rays"] == 1
    assert metrics["geometry.ellipse_build_s"] > 0.0
    # grid builds frame their nodes without point_many, so the direct call,
    # the one without a parent span, is the only one
    direct = [span[tracing._WORK] for span in spans
              if span[tracing._NAME] == "geometry.point_many" and span[tracing._PARENT] < 0]
    assert direct == [5]
    assert metrics["geometry.point_many.points"] == 5
    assert metrics["resonance_search.scan.cells"] == 4
    assert metrics["billiards.sabine_gap.calls"] == 1
    assert metrics["billiards.steps"] == 16 * 17 + 2 * 16 * 33
    assert metrics["bie.operator_norm.calls"] == metrics["bie.assemble.calls"] == 1
    assert metrics["bie.assemble.entries"] == 64 * 64
    assert metrics["disk_oracle.roots"] == len(roots)
    assert metrics["disk_oracle.modes_attempted"] == names.count("disk_oracle.solve_mode")
    assert metrics["disk_oracle.f_evals"] == names.count("specfun.bessel_quad")
