"""The benchmark's three workloads, each built with synthgen from one seed.

train-voxel-gru   train_toy with the default ToyModelConfig: the paper's own
                  pipeline (voxel head, 3D-conv GRU fusion). 3D convs and
                  their VJPs dominate; a GRU or conv change shows here.
train-depth-mean  train_toy with the depth head and mean fusion. Unproject,
                  project and their VJPs are a large share; it is the only
                  workload that runs project/project_vjp, and a GRU change
                  predicts no change here.
eval-views        forward only: dataset_loss of a briefly trained voxel/mean
                  model at 1, 2 and 4 views, the visual hull through
                  evalkit.view_count_sweep, and a plane sweep on one
                  reference view per scene scored by evalkit.depth_error.
                  No tape backward and no Adam, so state cached for a VJP
                  can only cost time and memory here.

Every run builds its datasets, warms up and then times `steps` steps; the
warm-up counts toward set-up. It lasts until the allocator has mostly
settled: on voxel/GRU the first iterations of a process took 6.4 and 5.1 s
with 184k and 77k page faults, against 4.3-5.0 s and under 10k faults
afterwards.

- A training run is one train_toy call of WARMUP_ITERS + steps
  iterations; the first WARMUP_ITERS warm up and the others are timed.
- An evaluation run warms up with one pass, the first call of the hull and
  the plane sweep in the process, then times `steps` passes.

The warm-up also gives peak_mb: it runs under tracemalloc, started before
anything it holds is allocated, so the peak counts the memory live when the
step begins and not only the step's new allocations. A traced run warms up
the same way without tracemalloc.

Every call goes through module attributes (train.train_toy, not a local
binding) so that a Tracer installed around a run sees it.
"""

from __future__ import annotations

import copy
import math
import shutil
import statistics
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voxelstereo import classical, evalkit, synthgen
from voxelstereo.nnkit import train
from voxelstereo.nnkit.model import ToyModelConfig

VIEW_COUNTS = (1, 2, 4)
SCENES = 3  # per dataset: one per synthgen family
TRAIN_VIEWS_PER_SCENE = 6  # train_toy draws cfg.views of them
EVAL_TRAIN_ITERS = 3  # eval-views: seeded training in set-up
WARMUP_ITERS = 2  # untimed training iterations before the timed ones
# Depth error is in world units and the scenes fit the unit cube. Over
# seeds 0-29 the sweep's error stayed below 0.25; an error of half the cube
# means it no longer finds surfaces.
MAX_SWEEP_DEPTH_ERR = 0.5


@dataclass(frozen=True)
class Sizing:
    """Inputs of one workload.

    nominal_step_s is the cost of one timed step (training iteration or
    evaluation pass) when the benchmark was written, on 2 cores. It turns
    --seconds into a fixed step count, so both sides of a comparison do the
    same work and the traced counts repeat exactly.
    """

    cfg: ToyModelConfig
    kind: str                    # "train" | "eval"
    nominal_step_s: float

    def steps(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_step_s))

    @property
    def view_counts(self) -> tuple[int, ...]:
        return tuple(n for n in VIEW_COUNTS if n <= self.cfg.views)


WORKLOADS = {
    "train-voxel-gru": Sizing(ToyModelConfig(), "train", nominal_step_s=5.5),
    "train-depth-mean": Sizing(ToyModelConfig(head="depth", fusion="mean"), "train",
                               nominal_step_s=1.0),
    "eval-views": Sizing(ToyModelConfig(fusion="mean"), "eval", nominal_step_s=5.0),
}


@dataclass
class Outcome:
    setup_s: float
    step_s: list[float]              # one entry per timed step
    peak_mb: float | None            # None when the warm-up ran without tracemalloc
    attempted: int = 0
    failed: int = 0
    results: dict = field(default_factory=dict)   # program outputs, compared bitwise
    problems: list[str] = field(default_factory=list)

    @property
    def step_median_s(self) -> float:
        return statistics.median(self.step_s)


def _generate(sizing: Sizing, out_dir: Path, seed: int, views: int):
    cfg = sizing.cfg
    return synthgen.generate_dataset(
        SCENES, views, out_dir, seed=seed, resolution=cfg.grid_resolution,
        image_size=(cfg.image_hw[1], cfg.image_hw[0]))


def _timed_datasets(sizing: Sizing, workdir: Path, seed: int, reps: int):
    """Generate the workload's datasets `reps` times; (median seconds, datasets)."""
    times = []
    for _ in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        train_ds = _generate(sizing, workdir / "train", seed, TRAIN_VIEWS_PER_SCENE)
        heldout = None
        if sizing.kind == "eval":
            heldout = _generate(sizing, workdir / "heldout", seed + 1_000_003, sizing.cfg.views)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), train_ds, heldout


class _Clock:
    """Step boundaries of one train_toy call, read through its Adam.

    stamps[0] is the optimizer's creation (after the scenes are loaded and
    the model is built) and stamps[i] the end of step i - 1, so iteration j
    spans stamps[j]..stamps[j + 1]. Given `peak_iter`, the clock traces the
    heap from its installation, before train_toy allocates anything, and
    keeps the peak of iteration `peak_iter`, so memory already live when
    that iteration starts counts too. Tracing stops before the next
    iteration starts.
    """

    def __init__(self, peak_iter: int | None = None):
        self.stamps: list[float] = []
        self.bad_grad_steps = 0
        self.peak_iter = peak_iter
        self.peak_bytes: int | None = None

    def tick(self):
        k = len(self.stamps)  # this tick ends iteration k - 1 and starts iteration k
        if k == self.peak_iter:
            tracemalloc.reset_peak()
        elif self.peak_iter is not None and k == self.peak_iter + 1:
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self.stamps.append(time.perf_counter())

    @contextmanager
    def installed(self):
        base = train.Adam
        clock = self

        class ClockedAdam(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clock.tick()

            def step(self):
                clock.bad_grad_steps += any(
                    p.grad is not None and not np.isfinite(p.grad).all() for p in self.params)
                super().step()
                clock.tick()

        train.Adam = ClockedAdam
        if self.peak_iter is not None:
            tracemalloc.start()
        try:
            yield self
        finally:
            train.Adam = base
            if tracemalloc.is_tracing():
                tracemalloc.stop()


@contextmanager
def _tracing_memory(on: bool):
    if on:
        tracemalloc.start()
    try:
        yield
    finally:
        if on:
            tracemalloc.stop()


def _run_train(sizing, seed, steps, workdir, setup_reps, measure_peak) -> Outcome:
    gen_s, ds, _ = _timed_datasets(sizing, workdir, seed, setup_reps)
    w = WARMUP_ITERS
    # The peak is that of the last warm-up iteration, which runs while
    # train_toy still holds the graph of the one before through `loss`, as
    # every timed iteration does.
    clock = _Clock(peak_iter=w - 1 if measure_peak else None)
    t0 = time.perf_counter()
    with clock.installed():
        result = train.train_toy(sizing.cfg, ds, iters=w + steps)
    s = clock.stamps
    losses = result.losses
    bad_losses = sum(not math.isfinite(v) for v in losses)
    out = Outcome(
        setup_s=gen_s + (s[w] - t0),
        step_s=[s[j + 1] - s[j] for j in range(w, w + steps)],
        peak_mb=None if clock.peak_bytes is None else clock.peak_bytes / 1e6,
        attempted=len(losses),
        failed=min(len(losses), bad_losses + clock.bad_grad_steps),
        results={"losses": losses},
    )
    if bad_losses or clock.bad_grad_steps:
        out.problems.append(f"{bad_losses} non-finite losses, "
                            f"{clock.bad_grad_steps} steps with non-finite gradients")
    if losses[-1] == losses[0]:
        out.problems.append("training left the loss unchanged")
    return out


def eval_pass(model, heldout, view_counts) -> dict:
    """The paper's comparison on held-out scenes; returns the program outputs."""
    scenes = heldout.load_all()
    spec = model.cfg.grid_spec
    lsm = [train.dataset_loss(model, heldout, views=n) for n in view_counts]

    def hull(scene, n):
        return classical.visual_hull(scene.masks[:n], scene.cameras[:n], spec)

    table = evalkit.view_count_sweep(hull, scenes, view_counts,
                                     classical.HullConfig().binarize_threshold)
    entries = []
    for scene in scenes:
        depth, _, _ = classical.plane_sweep_depth(
            scene.images[0], list(scene.images[1:]), scene.cameras[0], scene.cameras[1:])
        entries.append((f"{scene.name}/0", scene.family, depth, scene.depths[0],
                        scene.cameras[0][1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # excluded views are counted as failures
        report = evalkit.depth_error(entries)
    return {
        "lsm_loss": lsm,
        "hull_iou": [table[n] for n in view_counts],
        "sweep_depth_err": report.mean,
        "sweep_views": len(entries),
        "excluded_views": len(entries) - len(report.per_view),
    }


def _run_eval(sizing, seed, steps, workdir, setup_reps, measure_peak) -> Outcome:
    gen_s, train_ds, heldout = _timed_datasets(sizing, workdir, seed, setup_reps)
    counts = sizing.view_counts
    t0 = time.perf_counter()
    # Both heads start at zero, so an untrained model's output ignores every
    # upstream layer; a few seeded steps make the loss depend on all of them.
    trained = train.train_toy(sizing.cfg, train_ds, iters=EVAL_TRAIN_ITERS)
    peak_mb = None
    with _tracing_memory(measure_peak):
        # The model is what stays live across passes: a copy made under
        # tracemalloc counts it, with its parameters and their gradients.
        model = copy.deepcopy(trained.model)
        passes = [eval_pass(model, heldout, counts)]
        if measure_peak:
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    out = Outcome(setup_s=gen_s + (time.perf_counter() - t0), step_s=[], peak_mb=peak_mb)
    for _ in range(steps):
        t_pass = time.perf_counter()
        passes.append(eval_pass(trained.model, heldout, counts))
        out.step_s.append(time.perf_counter() - t_pass)

    res = passes[-1]
    values = res["lsm_loss"] + res["hull_iou"] + [res["sweep_depth_err"]]
    nonfinite = sum(not math.isfinite(v) for v in values)
    per_pass = len(res["lsm_loss"]) + len(res["hull_iou"]) + res["sweep_views"]
    out.attempted = len(passes) * per_pass
    out.failed = len(passes) * (nonfinite + res["excluded_views"])
    out.results = {"train_losses": trained.losses, **res}
    if any(p != res for p in passes):
        out.problems.append("repeated evaluation passes disagree")
    if nonfinite:
        out.problems.append(f"{nonfinite} non-finite evaluation metrics")
    if trained.losses[-1] == trained.losses[0]:
        out.problems.append("set-up training left the loss unchanged")
    if not all(0.0 < v <= 1.0 for v in res["hull_iou"]):
        out.problems.append(f"hull IoU outside (0, 1]: {res['hull_iou']}")
    if not res["sweep_depth_err"] < MAX_SWEEP_DEPTH_ERR:
        out.problems.append(f"plane-sweep depth error {res['sweep_depth_err']} "
                            f">= {MAX_SWEEP_DEPTH_ERR}")
    return out


def run(sizing: Sizing, seed: int, steps: int, workdir: Path, *, setup_reps: int = 3,
        measure_peak: bool = True) -> Outcome:
    """Set up and warm up, then time `steps` steps; the workdir holds the datasets."""
    runner = _run_train if sizing.kind == "train" else _run_eval
    return runner(sizing, seed, steps, Path(workdir), setup_reps, measure_peak)
