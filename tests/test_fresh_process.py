"""What only a fresh interpreter shows: the package's import where the OS
lacks sched_getaffinity, and the heap policy that the import sets.

The subprocess tests run their code in a new sys.executable with warnings
as errors, so no module of the package is reloaded in the test process.
"""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import voxelstereo

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> str:
    """Standard output of `code` run by a new interpreter that imports from src/."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_without_sched_getaffinity_counts_every_core():
    out = run_fresh("""
        import os
        if hasattr(os, "sched_getaffinity"):
            del os.sched_getaffinity
        from voxelstereo import classical
        print(classical._WORKERS, os.cpu_count() or 1)
    """)
    workers, cores = out.split()
    assert workers == cores


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_a_warm_unproject_does_not_fault():
    # without the policy each call faults 3100-4700 pages of its freed arrays back in
    out = run_fresh("""
        import resource
        import numpy as np
        from voxelstereo import diffops, geometry
        cam = geometry.Intrinsics(fx=20.0, fy=20.0, cx=7.5, cy=7.5, width=16, height=16)
        args = (np.random.default_rng(0).standard_normal((16, 16, 16)), cam,
                geometry.look_at([0.0, 0.3, -2.0], [0.0, 0.0, 0.0]), geometry.VoxelGridSpec(32),
                diffops.GeomFeatureConfig(geometric=True))
        for _ in range(3):
            diffops.unproject(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            diffops.unproject(*args)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
    """)
    assert float(out) < 50


def _missing_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_missing_library, lambda name: SimpleNamespace()],
                         ids=["no library", "no mallopt"])
def test_heap_policy_is_a_noop_without_mallopt(cdll, monkeypatch):
    monkeypatch.setattr(voxelstereo.ctypes, "CDLL", cdll)
    assert voxelstereo._keep_freed_heap() is None


@pytest.mark.parametrize("result,calls", [
    (1, [(-3, 32 << 20), (-1, 256 << 20)]),
    (0, [(-3, 32 << 20)]),  # a refused mmap threshold leaves the trim threshold alone
])
def test_heap_policy_settings(result, calls, monkeypatch):
    seen = []

    def mallopt(param, value):
        seen.append((param, value))
        return result

    monkeypatch.setattr(voxelstereo.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    voxelstereo._keep_freed_heap()
    assert seen == calls
