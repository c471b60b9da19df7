"""In-memory span tracing around the public functions of voxelstereo's layers.

A Tracer replaces each target function with a wrapper that records a span
(name, start, end, parent) and, for some targets, a work counter computed
from the call's shapes or result. The wrapper is installed in every loaded
voxelstereo module that holds the function, so calls through a
`from .geometry import project_points` binding are seen as well as calls
through `layers.conv_forward`. Nothing under src/ is edited: the patch lives
only for the duration of `with tracer.installed():`, which restores every
original object and verifies the restoration on exit.

Self time is a span's duration minus the part of it covered by its direct
child spans. Spans are recorded on one thread by a call stack, so the
children of a span never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def conv_forward_macs(args, kwargs, result):
    """Multiply-accumulates of conv_forward: output positions x taps x C_in x C_out."""
    kernel = np.shape(kwargs.get("kernel", args[1] if len(args) > 1 else None))
    return int(np.prod(np.shape(result)[:-1])) * int(np.prod(kernel))


def conv_vjp_macs(args, kwargs, result):
    """Multiply-accumulates conv_vjp does itself.

    The kernel gradient is one (taps*C_in, N) x (N, C_out) contraction; with
    stride > 1 the input gradient is a second one of the same size. With
    stride 1 the input gradient goes through conv_forward, whose span and
    MACs are counted there.
    """
    kernel = np.shape(args[1])
    stride = args[2] if len(args) > 2 else kwargs["stride"]
    upstream = args[4] if len(args) > 4 else kwargs["upstream"]
    positions = int(np.prod(np.shape(upstream)[:-1]))
    macs = positions * int(np.prod(kernel))
    return macs if stride == 1 else 2 * macs


def sweep_pixels(args, kwargs, result):
    """(useful, attempted) pixels of one plane sweep: valid depths / all pixels."""
    valid = result[2]
    return int(np.count_nonzero(valid)), int(valid.size)


@dataclass(frozen=True)
class Target:
    """A function to trace: `attr` may be `Class.method` inside `module`."""

    module: str
    attr: str
    name: str
    counter: object = None  # counter(args, kwargs, result) -> int or tuple


# The layers the benchmark traces, named after the package modules.
TARGETS = (
    Target("voxelstereo.geometry", "project_points", "geometry.project_points"),
    Target("voxelstereo.diffops", "unproject", "diffops.unproject"),
    Target("voxelstereo.diffops", "unproject_vjp", "diffops.unproject_vjp"),
    Target("voxelstereo.diffops", "project", "diffops.project"),
    Target("voxelstereo.diffops", "project_vjp", "diffops.project_vjp"),
    Target("voxelstereo.fusion", "gru_step_node", "fusion.gru_step_node"),
    Target("voxelstereo.nnkit.layers", "conv_forward", "layers.conv_forward",
           conv_forward_macs),
    Target("voxelstereo.nnkit.layers", "conv_vjp", "layers.conv_vjp", conv_vjp_macs),
    Target("voxelstereo.nnkit.layers", "instance_norm", "layers.instance_norm"),
    Target("voxelstereo.nnkit.layers", "instance_norm_vjp", "layers.instance_norm_vjp"),
    Target("voxelstereo.nnkit.layers", "layer_norm_channels", "layers.layer_norm_channels"),
    Target("voxelstereo.nnkit.layers", "layer_norm_channels_vjp",
           "layers.layer_norm_channels_vjp"),
    Target("voxelstereo.nnkit.tape", "backward", "tape.backward"),
    Target("voxelstereo.nnkit.model", "ToyModel.loss", "model.loss"),
    Target("voxelstereo.nnkit.train", "train_toy", "train.train_toy"),
    Target("voxelstereo.nnkit.train", "dataset_loss", "train.dataset_loss"),
    Target("voxelstereo.nnkit.adam", "Adam.step", "adam.step"),
    Target("voxelstereo.classical", "plane_sweep_depth", "classical.plane_sweep_depth",
           sweep_pixels),
    Target("voxelstereo.classical", "visual_hull", "classical.visual_hull"),
    Target("voxelstereo.synthgen", "render_view", "synthgen.render_view"),
    Target("voxelstereo.tensorio", "load_scene", "tensorio.load_scene"),
    Target("voxelstereo.evalkit", "view_count_sweep", "evalkit.view_count_sweep"),
    Target("voxelstereo.evalkit", "depth_error", "evalkit.depth_error"),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: list = field(default_factory=list)  # counter results, call order


def _resolve(target: Target):
    """(owner object, attribute name) that holds the traced function."""
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "voxelstereo" or name.startswith("voxelstereo."))]


class Tracer:
    """Records spans of the targets' calls while installed."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.work: list[tuple[int, object]] = []               # span index, counter value
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []   # owner, attr, original

    def _wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, self.clock(), 0.0, parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                _, start, _, _ = self.spans[index]
                self.spans[index] = (name, start, self.clock(), parent)
            if counter is not None:
                self.work.append((index, counter(args, kwargs, result)))
            return result

        traced.__traced__ = True
        return traced

    @contextmanager
    def installed(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
            yield self
        finally:
            self._restore()

    def _install(self):
        resolved = [(target, *_resolve(target)) for target in self.targets]
        modules = _package_modules()  # after the imports, so every binding is seen
        for target, owner, attr in resolved:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, target.name, target.counter)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                # every module-level binding of the function, under any name
                holders = [(m, key) for m in modules
                           for key, value in list(vars(m).items()) if value is original]
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)

    def _restore(self):
        patches, self._patches = self._patches, []
        for holder, key, original in reversed(patches):
            setattr(holder, key, original)
        left = [f"{getattr(h, '__name__', h)}.{k}" for h, k, original in patches
                if getattr(h, k) is not original]
        left += [f"{m.__name__}.{k}" for m in _package_modules()
                 for k, v in vars(m).items() if getattr(v, "__traced__", False)]
        if left:
            raise RuntimeError(f"traced wrappers left installed: {sorted(set(left))}")

    def stats(self) -> dict[str, LayerStats]:
        """Per-name calls, total time, self time and counter values."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {t.name: LayerStats() for t in self.targets}
        for (name, start, end, _), covered in zip(self.spans, child_s):
            s = out.setdefault(name, LayerStats())
            s.calls += 1
            s.total_s += end - start
            s.self_s += (end - start) - covered
        for index, value in self.work:
            out[self.spans[index][0]].work.append(value)
        return out
