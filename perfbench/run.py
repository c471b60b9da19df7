"""Run one voxelstereo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-voxel-gru --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from src/, and the
metric names, units and the default --seconds come from BENCHMARK.json. With
--trace 0 the run reports the end-to-end metrics. With --trace 1 it runs
the workload untraced, then again with every public layer function wrapped
in a span (see spans.py), checks that both runs give bitwise-equal outputs
and that every wrapper is removed, and reports the per-layer metrics plus
the tracing overhead. The spans and the full per-layer table go to
.perfbench/trace-<workload>-seed<seed>.json. --workload all runs every
workload in one process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

# OpenBLAS reads its thread count when numpy loads it: cap it at the cores
# this process may use, before anything imports numpy.
_requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
os.environ["OPENBLAS_NUM_THREADS"] = str(
    min(NPROC, int(_requested)) if _requested.isdigit() and int(_requested) > 0 else NPROC)


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, asked from the library itself."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def stamp() -> dict:
    """Machine and software state, so results from different runs compare."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
    }


def per_layer(stats: dict, overhead_s: float) -> dict:
    """Every per-layer value from a Tracer's stats, keyed by metric name."""
    out = {}
    for name, s in stats.items():
        out[f"{name}.calls"] = s.calls
        out[f"{name}.total_s"] = s.total_s
        out[f"{name}.self_s"] = s.self_s
        if name.startswith("layers.conv_"):
            out[f"{name}.gmac"] = sum(s.work) / 1e9
    sweeps = stats["classical.plane_sweep_depth"].work
    if sweeps:
        out["classical.sweep_valid_frac"] = (sum(u for u, _ in sweeps)
                                             / sum(a for _, a in sweeps))
    out["trace.overhead_s"] = overhead_s
    return out


def _unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    return {"calls": "count", "gmac": "GMAC", "sweep_valid_frac": "ratio"}.get(last, "s")


def _print_outcome(sizing, out, steps):
    step_name = "iter_s" if sizing.kind == "train" else "eval_s"
    step_what = "training iterations" if sizing.kind == "train" else "evaluation passes"
    print(f"  setup_s          {out.setup_s:.4f} s   (dataset generation, loading, "
          f"model creation and warm-up)")
    print(f"  {step_name:16s} {out.step_median_s:.4f} s   (median of {steps} {step_what}: "
          + ", ".join(f"{t:.3f}" for t in out.step_s) + ")")
    if out.peak_mb is not None:
        print(f"  peak_mb          {out.peak_mb:.1f} MB  (tracemalloc, during the warm-up)")
    r = out.results
    if sizing.kind == "train":
        print(f"  loss_final       {r['losses'][-1]!r}   (after {len(r['losses']) - 1} "
              f"iterations; initial {r['losses'][0]!r})")
    else:
        counts = sizing.view_counts
        print("  lsm_loss         " + "  ".join(
            f"{n} views {v:.6f}" for n, v in zip(counts, r["lsm_loss"])))
        print("  hull_iou         " + "  ".join(
            f"{n} views {v:.4f}" for n, v in zip(counts, r["hull_iou"]))
              + f"  mean {statistics.fmean(r['hull_iou']):.4f}")
        print(f"  sweep_depth_err  {r['sweep_depth_err']:.5f} world units")
    print(f"  failed_frac      {out.failed / out.attempted:g}  ({out.failed}/{out.attempted})")


def _declared(values: dict, declared: list) -> dict:
    """The metrics BENCHMARK.json declares, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _print_layers(values: dict):
    print("  per-layer (traced run; self = span minus its child spans)")
    for key in sorted(values):
        v = values[key]
        text = str(v) if isinstance(v, int) else f"{v:.6f}"
        print(f"    {key:42s} {text:>14s} {_unit(key)}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, machine: dict, spec: dict):
    """Returns (attempted, failed, metrics, problems) for one workload."""
    import workloads
    from spans import Tracer

    sizing = workloads.WORKLOADS[name]
    steps = sizing.steps(seconds)
    workdir = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    print(f"workload {name}  seed {seed}  steps {steps}  trace {int(trace)}")
    # a traced run reports neither set-up time nor peak: skip their repeats
    quick = {"setup_reps": 1, "measure_peak": False} if trace else {}
    try:
        out = workloads.run(sizing, seed, steps, workdir / "untraced", **quick)
        _print_outcome(sizing, out, steps)
        problems = list(out.problems)
        if not trace:
            values = {"setup_s": out.setup_s, "step_s": out.step_median_s,
                      "peak_mb": out.peak_mb}
            return out.attempted, out.failed, _declared(values, spec["end_to_end"]), problems

        tracer = Tracer()
        with tracer.installed():
            traced = workloads.run(sizing, seed, steps, workdir / "traced", **quick)
        problems += [f"traced run: {p}" for p in traced.problems]
        if traced.results != out.results:
            problems.append("traced and untraced runs gave different outputs")
        values = per_layer(tracer.stats(), traced.step_median_s - out.step_median_s)
        _print_layers(values)
        print(f"  trace overhead   {values['trace.overhead_s']:.4f} s per step "
              f"(traced {traced.step_median_s:.4f} - untraced {out.step_median_s:.4f})")
        trace_file = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": name, "seed": seed, "steps": steps, "stamp": machine,
            "per_layer": values, "spans": tracer.spans, "work": tracer.work,
        }) + "\n")
        print(f"  spans            {len(tracer.spans)} written to "
              f"{trace_file.relative_to(ROOT)}")
        # times of layers that some workload never calls are only in the trace file
        return (out.attempted + traced.attempted, out.failed + traced.failed,
                _declared(values, spec["per_layer"]), problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "voxelstereo" / "__init__.py").is_file():
        print(f"voxelstereo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    machine = stamp()
    print("stamp " + json.dumps(machine, sort_keys=True))
    problems, attempted, failed, metrics = [], 0, 0, {}
    for name in names:
        try:
            att, fail, values, found = run_workload(
                name, args.seed, seconds, bool(args.trace), machine, spec)
        except Exception:
            # an exception ends the run: no result line, non-zero exit
            traceback.print_exc()
            return 1
        for p in found:
            print(f"  CHECK FAILED: {p}")
        problems += found
        attempted += att
        failed += fail
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
