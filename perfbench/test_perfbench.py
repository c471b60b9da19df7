"""Tests of the benchmark's own code on a tiny config (8^3 grid, 16^2 images, 2 views).

Run from the repository root:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from spans import Tracer
from voxelstereo import classical, diffops, geometry
from voxelstereo.nnkit import layers
from voxelstereo.nnkit.model import ToyModelConfig

TINY = ToyModelConfig(grid_resolution=8, image_hw=(16, 16), views=2)
CONV_TARGETS = tuple(t for t in spans.TARGETS if t.name.startswith("layers.conv_"))


class StepClock:
    """Fake clock that advances one second per reading."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _conv_args(stride):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6, 2))
    kernel = rng.standard_normal((3, 3, 2, 4))
    out_hw = 6 // stride
    return x, kernel, rng.standard_normal((out_hw, out_hw, 4))


def test_self_time_subtracts_nested_conv_forward():
    x, kernel, up = _conv_args(stride=1)
    tracer = Tracer(CONV_TARGETS, clock=StepClock())
    with tracer.installed():
        layers.conv_vjp(x, kernel, 1, "same", up)
    # conv_vjp [0, 3] encloses the transposed conv_forward [1, 2]
    assert tracer.spans == [("layers.conv_vjp", 0.0, 3.0, -1),
                            ("layers.conv_forward", 1.0, 2.0, 0)]
    stats = tracer.stats()
    vjp, fwd = stats["layers.conv_vjp"], stats["layers.conv_forward"]
    assert (vjp.calls, vjp.total_s, vjp.self_s) == (1, 3.0, 2.0)
    assert (fwd.calls, fwd.total_s, fwd.self_s) == (1, 1.0, 1.0)
    # kernel gradient in conv_vjp; the (6, 6, 4) -> (6, 6, 2) input gradient in conv_forward
    assert vjp.work == [36 * kernel.size]
    assert fwd.work == [36 * kernel.size]


def test_self_time_of_siblings_and_strided_vjp():
    x, kernel, up = _conv_args(stride=2)
    tracer = Tracer(CONV_TARGETS, clock=StepClock())
    with tracer.installed():
        layers.conv_forward(x, kernel, None, 2)
        layers.conv_vjp(x, kernel, 2, "same", up)
    stats = tracer.stats()
    # a strided VJP scatters instead of calling conv_forward: self == total
    assert (stats["layers.conv_vjp"].total_s, stats["layers.conv_vjp"].self_s) == (1.0, 1.0)
    assert stats["layers.conv_forward"].calls == 1
    assert stats["layers.conv_vjp"].work == [2 * 9 * kernel.size]


def test_self_times_add_up_to_root_spans():
    tracer = Tracer()
    spec = geometry.VoxelGridSpec(resolution=4)
    cam = geometry.Intrinsics(fx=8.0, fy=8.0, cx=3.5, cy=3.5, width=8, height=8)
    pose = geometry.look_at([0.0, 0.0, -2.0], [0.0, 0.0, 0.0])
    fmap = np.ones((8, 8, 2))
    with tracer.installed():
        grid = diffops.unproject(fmap, cam, pose, spec)
        diffops.unproject_vjp(fmap, cam, pose, spec, diffops.GeomFeatureConfig(), grid)
    stats = tracer.stats()
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(roots, rel=1e-9)
    # project_points is bound by name in diffops and still seen as a child
    assert stats["geometry.project_points"].calls == 2
    assert stats["diffops.unproject"].self_s < stats["diffops.unproject"].total_s


def test_every_binding_is_wrapped_then_restored():
    originals = {"geometry": geometry.project_points, "diffops": diffops.project_points,
                 "classical": classical.project_points, "conv": layers.conv_forward}
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert diffops.project_points is classical.project_points
            assert diffops.project_points is not originals["diffops"]
            assert layers.conv_forward.__traced__
            1 / 0
    assert geometry.project_points is originals["geometry"]
    assert diffops.project_points is originals["diffops"]
    assert classical.project_points is originals["classical"]
    assert layers.conv_forward is originals["conv"]


def _tiny_traced(kind, tmp_path, tag):
    sizing = workloads.Sizing(TINY, kind, nominal_step_s=1.0)
    tracer = Tracer()
    with tracer.installed():
        traced = workloads.run(sizing, 5, 1, tmp_path / tag, setup_reps=1, measure_peak=False)
    untraced = workloads.run(sizing, 5, 1, tmp_path / tag, setup_reps=2)
    counts = {name: (s.calls, s.work) for name, s in tracer.stats().items()}
    return traced, untraced, counts


@pytest.mark.parametrize("kind", ["train", "eval"])
def test_counts_and_outputs_repeat_exactly(kind, tmp_path):
    traced_a, untraced_a, counts_a = _tiny_traced(kind, tmp_path, "a")
    traced_b, untraced_b, counts_b = _tiny_traced(kind, tmp_path, "b")
    assert counts_a == counts_b
    assert counts_a["layers.conv_forward"][0] > 0
    # array memory repeats; small Python objects move the peak by tens of KB
    assert untraced_a.peak_mb == pytest.approx(untraced_b.peak_mb, abs=0.1)
    # the wrappers change no output bit
    assert traced_a.results == untraced_a.results == untraced_b.results
    assert untraced_a.failed == 0 and len(untraced_a.step_s) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "eval-views", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
