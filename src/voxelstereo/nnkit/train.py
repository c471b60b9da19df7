"""Training loop for the toy pipelines.

One scene per iteration, a freshly shuffled view subset each time (the
recurrent fusion must not overfit one ordering), Adam updates, a two-column
loss curve and a checkpoint directory as outputs. Fixed seeds reproduce the
run bitwise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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
    checkpoint_dir: Path | None


def _batches(scenes, cfg: ToyModelConfig, iters: int):
    rng = np.random.default_rng([cfg.seed, 1])
    for _ in range(iters + 1):
        scene = scenes[rng.integers(len(scenes))]
        if scene.n_views < cfg.views:
            raise ValueError(
                f"scene {scene.name} has {scene.n_views} views, need {cfg.views}")
        order = rng.permutation(scene.n_views)[:cfg.views]
        yield scene, order


def train_toy(cfg: ToyModelConfig, dataset: DatasetManifest, iters: int,
              out_dir=None) -> TrainResult:
    """Train the configured pipeline; 0 iterations emits the initialization."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    scenes = dataset.load_all()
    model = ToyModel.create(cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    losses: list[float] = []
    for t, (scene, order) in enumerate(_batches(scenes, cfg, iters)):
        images = scene.images[order]
        cameras = [scene.cameras[i] for i in order]
        loss = model.loss(
            images, cameras,
            occupancy_gt=scene.occupancy,
            depth_gt=[scene.depths[i] for i in order],
        )
        losses.append(float(loss.value))
        if t == iters:
            break
        opt.zero_grad()
        backward(loss)
        opt.step()
        # drop this iteration's graph before the next forward builds its own
        del loss

    ckpt = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt = out_dir / "checkpoint"
        save_checkpoint(model, ckpt)
        curve = "".join(f"{i} {v!r}\n" for i, v in enumerate(losses))
        (out_dir / "loss_curve.txt").write_text(curve)
        (out_dir / "train_config.json").write_text(
            json.dumps(asdict(cfg), sort_keys=True, indent=1) + "\n")
    return TrainResult(model=model, losses=losses, checkpoint_dir=ckpt)


def dataset_loss(model: ToyModel, dataset: DatasetManifest, views: int | None = None,
                 seed: int = 0) -> float:
    """Mean loss over all scenes with a fixed per-scene view draw."""
    rng = np.random.default_rng([seed, 2])
    total = 0.0
    scenes = dataset.load_all()
    for scene in scenes:
        k = min(views or model.cfg.views, scene.n_views)
        order = rng.permutation(scene.n_views)[:k]
        loss = model.loss(
            scene.images[order], [scene.cameras[i] for i in order],
            occupancy_gt=scene.occupancy,
            depth_gt=[scene.depths[i] for i in order],
        )
        total += float(loss.value)
    return total / len(scenes)
