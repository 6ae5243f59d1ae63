"""Benchmark entry point for the resonance lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-reference

Run from the repository root.  The library is imported from ``src/`` next to
this directory; nothing is installed.  One process runs one unit of work at a
time (a closed loop with a single client) and leaves the library's thread
settings (SABINE_LAB_THREADS, BLAS) at their defaults.  The ``cli`` module is
not measured: it only writes CSV, SVG and manifest files around the library
calls that the workloads make directly.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the workload runs untraced, then again with spans recorded at
every layer boundary, and the last line carries the per-layer metrics.  Spans
and a run record go to ``.perfbench_out/`` in the repository root.  The exit
code is 1 when any gate fails and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3          # set-ups per run: this process plus two fresh ones
MODULES = ("specfun", "geometry", "billiards", "bie", "resonance_search", "disk_oracle",
           "errors")

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


class MissingLibrary(RuntimeError):
    pass


def import_library() -> SimpleNamespace:
    """Import sabine_lab from this checkout's src/ (never an installed copy)."""
    if not (SRC / "sabine_lab" / "__init__.py").is_file():
        raise MissingLibrary(f"no sabine_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("sabine_lab")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise MissingLibrary(f"sabine_lab imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"sabine_lab.{m}") for m in MODULES})


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them under kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(lib, seed: int) -> dict:
    import numpy as np
    import scipy

    cpu, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    levels = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        level, size = max(levels)
        llc = f"L{level} {size}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    worker_count = getattr(lib.resonance_search, "_worker_count", None)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "last_level_cache": llc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "SABINE_LAB_THREADS": os.environ.get("SABINE_LAB_THREADS"),
        "sabine_lab_threads_effective": worker_count() if worker_count else None,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_setup(workload):
    """Import the library and build the workload's state; returns seconds."""
    t0 = time.perf_counter()
    lib = import_library()
    state = workload.setup(lib)
    return time.perf_counter() - t0, lib, state


def fresh_setup_seconds(name: str) -> float:
    """Set-up time measured in a new interpreter (cold import)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def execute(units: list, tracer=None):
    """Run every unit in order; gates are applied after the timed phase."""
    outputs, times = [], []
    t_start = time.perf_counter()
    for index, unit in enumerate(units):
        if tracer is not None:
            tracer.task_id = index
        t0 = time.perf_counter()
        try:
            out = unit.run()
        except Exception as exc:   # a failed unit is counted, the run goes on
            out = exc
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - t_start
    failures = []
    for unit, out in zip(units, outputs):
        if isinstance(out, Exception):
            fails = [f"raised {type(out).__name__}: {out}"]
        else:
            fails = unit.check(out)
        failures.append(fails)
        for msg in fails:
            print(f"GATE FAIL [{unit.name}]: {msg}", file=sys.stderr)
    return wall, times, outputs, failures


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--regen-reference", action="store_true",
                        help="rebuild every table under perfbench/reference/")
    args = parser.parse_args(argv)
    # expected on these inputs: under-resolution at the top of the ladder and
    # the stadium's C^{1,1} caps
    warnings.simplefilter("ignore", UserWarning)

    if args.regen_reference:
        import reference
        reference.regenerate(import_library())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = wl.WORKLOADS[args.workload]

    setup0, lib, state = timed_setup(workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup0}))
        return 0
    setups = [setup0]
    if not args.trace:
        setups += [fresh_setup_seconds(workload.name) for _ in range(SETUP_REPEATS - 1)]
    env = environment(lib, args.seed)

    passes = max(1, round(args.seconds / workload.pass_seconds))
    units = workload.units(lib, state, args.seed, passes)
    wall, times, outputs, failures = execute(units)
    task_times = [t for u, t in zip(units, times) if u.task]
    n_failed = sum(1 for f in failures if f)
    record = {"workload": workload.name, "seconds": args.seconds, "passes": passes,
              "env": env, "setup_samples_s": setups,
              "units": [{"name": u.name, "task": u.task, "seconds": t, "failures": f}
                        for u, t, f in zip(units, times, failures)]}

    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={passes}")
    print("# env " + json.dumps(env))
    print("# closed loop, 1 client; cli module unmeasured (file writers only)")
    for line in workload.notes(units, outputs):
        print("# " + line)

    if args.trace:
        from tracing import Tracer, layer_metrics
        units_of = declared_units("per_layer")
        tracer = Tracer()
        tracer.install(lib)
        try:
            state_traced = workload.setup(lib)
            traced_units = workload.units(lib, state_traced, args.seed, passes)
            wall_traced, _, _, traced_failures = execute(traced_units, tracer)
        finally:
            tracer.uninstall()
        n_failed += sum(1 for f in traced_failures if f)
        attempted = len(units) + len(traced_units)
        metrics, bases, ranking = layer_metrics(tracer.spans, wall, wall_traced)
        for name, value in metrics.items():
            print(f"{name:48s} {_fmt(value):>14s} {units_of[name]:6s} {bases.get(name, '')}")
        print("# self time by traced function (s): " + ", ".join(
            f"{name}={secs:.3f}" for name, secs in ranking))
        result_metrics = {name: {"value": value, "unit": units_of[name]}
                          for name, value in metrics.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl",
                     dict(record, metrics=metrics))
    else:
        attempted = len(units)
        units_of = declared_units("end_to_end")
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "task_p50_s": statistics.median(task_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in e2e.items():
            print(f"{name:14s} {value:12.6g} {units_of[name]}")
        print(f"{'':14s} setup_s is the median of {len(setups)} set-ups; "
              f"task_p50_s over n={len(task_times)} tasks")
        print(f"{'fail_ratio':14s} {n_failed / attempted:12.6g}    "
              f"({n_failed} failed / {attempted} units attempted)")
        result_metrics = {name: {"value": value, "unit": units_of[name]}
                          for name, value in e2e.items()}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"run-{workload.name}-seed{args.seed}.json", "w") as fh:
            json.dump(dict(record, metrics=result_metrics), fh, indent=1)

    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": result_metrics}))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except MissingLibrary as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
