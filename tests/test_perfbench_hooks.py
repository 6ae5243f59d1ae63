"""The benchmark's tracer (perfbench/tracing.py) hooks this library by name.

A hook whose target is renamed or deleted fails at install; this checks the
install/uninstall round trip here, so that such a change fails tier-1 and
not only the benchmark's own, much slower, tests.
"""

import importlib.util
from pathlib import Path

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
