"""Training loop for the toy pipelines.

One scene per iteration, a freshly shuffled view subset each time (the
recurrent fusion must not overfit one ordering) and Adam updates, after which
no graph or gradient is left; an out_dir gets a loss curve and a checkpoint
whose manifest holds the run's config. Fixed seeds reproduce the run bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..tensorio import DatasetManifest
from .adam import Adam
from .model import ToyModel, ToyModelConfig, save_checkpoint
from .tape import backward


@dataclass
class TrainResult:
    model: ToyModel
    losses: list[float]          # per-iteration batch loss, entry 0 = initial


def _draw_views(rng, scene, k: int):
    """k distinct view indices of scene, in a random order."""
    if k > scene.n_views:
        raise ValueError(f"scene {scene.name} has {scene.n_views} views, asked for {k}")
    return rng.permutation(scene.n_views)[:k]


def _batches(scenes, cfg: ToyModelConfig, iters: int):
    rng = np.random.default_rng([cfg.seed, 1])
    for _ in range(iters + 1):
        scene = scenes[rng.integers(len(scenes))]
        yield scene, _draw_views(rng, scene, cfg.views)


def train_toy(cfg: ToyModelConfig, dataset: DatasetManifest, iters: int,
              out_dir=None) -> TrainResult:
    """Train the configured pipeline; 0 iterations emits the initialization."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    scenes = dataset.load_all()
    model = ToyModel.create(cfg)
    opt = Adam(model.parameters())
    losses: list[float] = []
    for t, (scene, order) in enumerate(_batches(scenes, cfg, iters)):
        loss = model.loss(scene, order)
        losses.append(float(loss.value))
        if t == iters:
            break
        backward(loss)
        opt.step()

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, out_dir / "checkpoint")
        curve = "".join(f"{i} {v!r}\n" for i, v in enumerate(losses))
        (out_dir / "loss_curve.txt").write_text(curve)
    return TrainResult(model=model, losses=losses)


def dataset_loss(model: ToyModel, dataset: DatasetManifest, views: int) -> float:
    """Mean loss over all scenes with a fixed per-scene view draw (seed [0, 2]).

    views is the number of views drawn per scene.
    """
    if views < 1:
        raise ValueError(f"need at least one view, got {views}")
    rng = np.random.default_rng([0, 2])
    total = 0.0
    scenes = dataset.load_all()
    for scene in scenes:
        total += float(model.loss(scene, _draw_views(rng, scene, views)).value)
    return total / len(scenes)
