"""Toy end-to-end pipelines: encoder -> unproject -> fuse -> 3D reason -> head.

Two variants share the encoder, unprojection and grid reasoning:

  voxel: a 1x1x1 convolution to 2 channels + per-voxel softmax produces an
         occupancy probability grid, trained with binary cross entropy.
  depth: the reasoned grid is projected back into each input view on
         equally spaced depth planes; stacked ray samples are pooled by a
         chain of 1x1 convolutions halving channels to one, upsampled to
         image size and refined together with an encoder skip feature.

Checkpoints are a directory with one tensor file per parameter plus a
manifest of names and shapes. Values are stored as float32, so a loaded
parameter equals value.astype(np.float32).astype(np.float64) of the saved
one, not the float64 value itself. Loading rejects a checkpoint whose
manifest lacks a model parameter, names one the model does not have, or
gives a mis-shaped one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from ..diffops import GeomFeatureConfig
from ..fusion import GruCellParams, fuse_recurrent_node, init_gru_params
from ..geometry import VoxelGridSpec, scale_intrinsics
from ..tensorio import read_tensor, write_tensor
from . import tape
from .tape import Parameter


@dataclass
class ToyModelConfig:
    encoder_channels: tuple[int, int, int] = (8, 16, 16)
    reasoner_channels: tuple[int, int] = (16, 8)
    fusion: str = "gru"                    # "gru" | "mean" | "max"
    head: str = "voxel"                    # "voxel" | "depth"
    n_z: int = 32
    image_hw: tuple[int, int] = (64, 64)
    grid_resolution: int = 32
    views: int = 4
    lr: float = 1e-3
    seed: int = 0
    gru_hidden: int = 16

    def __post_init__(self):
        if self.views < 1:
            raise ValueError("views must be >= 1")
        if self.fusion not in ("gru", "mean", "max"):
            raise ValueError(f"unknown fusion {self.fusion!r}")
        if self.head not in ("voxel", "depth"):
            raise ValueError(f"unknown head {self.head!r}")
        if min(self.image_hw) < 4 or self.image_hw[0] % 4 or self.image_hw[1] % 4:
            raise ValueError("image size must be a positive multiple of 4")

    @property
    def grid_spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(resolution=self.grid_resolution)

    @property
    def geom_features(self) -> GeomFeatureConfig:
        return GeomFeatureConfig(append_depth=True, append_ray_dir=True)

    @property
    def fused_channels(self) -> int:
        unproj = self.geom_features.out_channels(self.encoder_channels[2])
        return self.gru_hidden if self.fusion == "gru" else unproj


def _he(rng, shape):
    fan_in = int(np.prod(shape[:-1]))
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _conv_block(rng, params, name, kshape):
    c_out = kshape[-1]
    params[f"{name}.kernel"] = Parameter(_he(rng, kshape), f"{name}.kernel")
    params[f"{name}.bias"] = Parameter(np.zeros(c_out), f"{name}.bias")
    params[f"{name}.gain"] = Parameter(np.ones(c_out), f"{name}.gain")
    params[f"{name}.shift"] = Parameter(np.zeros(c_out), f"{name}.shift")


class ToyModel:
    """Parameter container plus the tape-composed forward passes."""

    def __init__(self, cfg: ToyModelConfig, params: dict[str, Parameter],
                 gru: GruCellParams | None):
        self.cfg = cfg
        self.params = params
        self.gru = gru

    @classmethod
    def create(cls, cfg: ToyModelConfig) -> "ToyModel":
        rng = np.random.default_rng([cfg.seed, 0])
        params: dict[str, Parameter] = {}
        e1, e2, e3 = cfg.encoder_channels
        _conv_block(rng, params, "enc1", (3, 3, 3, e1))
        _conv_block(rng, params, "enc2", (3, 3, e1, e2))
        _conv_block(rng, params, "enc3", (3, 3, e2, e3))

        gru = None
        unproj_c = cfg.geom_features.out_channels(e3)
        if cfg.fusion == "gru":
            gru = init_gru_params(unproj_c, cfg.gru_hidden, rng=rng)
        r1, r2 = cfg.reasoner_channels
        _conv_block(rng, params, "reason1", (3, 3, 3, cfg.fused_channels, r1))
        _conv_block(rng, params, "reason2", (3, 3, 3, r1, r2))

        if cfg.head == "voxel":
            # zero-init output head: the untrained model says exactly p = 0.5
            params["voxel_head.kernel"] = Parameter(
                np.zeros((1, 1, 1, r2, 2)), "voxel_head.kernel")
            params["voxel_head.bias"] = Parameter(np.zeros(2), "voxel_head.bias")
        else:
            c = cfg.n_z * r2
            i = 0
            while c > 1:
                c_next = max(1, c // 2)
                params[f"ray_reduce{i}.kernel"] = Parameter(
                    _he(rng, (1, 1, c, c_next)), f"ray_reduce{i}.kernel")
                params[f"ray_reduce{i}.bias"] = Parameter(
                    np.zeros(c_next), f"ray_reduce{i}.bias")
                c = c_next
                i += 1
            # zero-init output layer with the bias at the camera orbit radius:
            # the untrained model predicts a constant plausible depth and the
            # toy iteration budget goes into shape, not the global offset
            params["depth_refine.kernel"] = Parameter(
                np.zeros((3, 3, 1 + e1, 1)), "depth_refine.kernel")
            params["depth_refine.bias"] = Parameter(np.array([2.0]), "depth_refine.bias")
        return cls(cfg, params, gru)

    def parameters(self) -> list[Parameter]:
        out = list(self.params.values())
        if self.gru is not None:
            out += self.gru.parameters()
        return out

    # --- forward pieces -------------------------------------------------

    def _conv_in_relu(self, x, name, stride=1):
        p = self.params
        y = tape.conv(x, p[f"{name}.kernel"], p[f"{name}.bias"], stride=stride)
        y = tape.instance_norm(y, p[f"{name}.gain"], p[f"{name}.shift"])
        return tape.relu(y)

    def encode(self, image):
        """(H, W, 3) -> (H/4, W/4, C) features plus the first-layer skip."""
        skip = self._conv_in_relu(image, "enc1", stride=2)
        x = self._conv_in_relu(skip, "enc2", stride=2)
        return self._conv_in_relu(x, "enc3"), skip

    def fuse(self, grids):
        if self.cfg.fusion == "gru":
            return fuse_recurrent_node(grids, self.gru)
        if self.cfg.fusion == "mean":
            return tape.mean_stack(grids)
        return tape.max_stack(grids)

    def reasoned_grid(self, images, cameras):
        """Images (K, H, W, 3), cameras [(Intrinsics, Pose)] -> grid node."""
        cfg = self.cfg
        spec = cfg.grid_spec
        grids = []
        skips = []
        for image, (cam, pose) in zip(images, cameras):
            feat, skip = self.encode(np.asarray(image, dtype=np.float64))
            fh, fw = feat.value.shape[:2]
            feat_cam = scale_intrinsics(cam, fw, fh)
            grids.append(tape.unproject(feat, feat_cam, pose, spec, cfg.geom_features))
            skips.append(skip)
        fused = self.fuse(grids)
        g = self._conv_in_relu(fused, "reason1")
        g = self._conv_in_relu(g, "reason2")
        return g, skips

    def occupancy(self, images, cameras):
        """Voxel pipeline output: (V, V, V) occupancy probability node."""
        g, _ = self.reasoned_grid(images, cameras)
        logits = tape.conv(g, self.params["voxel_head.kernel"],
                           self.params["voxel_head.bias"])
        probs = tape.softmax_channels(logits)
        return _take_channel(probs, 1)

    def depth_maps(self, images, cameras):
        """Depth pipeline output: one (H, W) metric depth node per view."""
        cfg = self.cfg
        g, skips = self.reasoned_grid(images, cameras)
        h, w = cfg.image_hw
        out = []
        for (cam, pose), skip in zip(cameras, skips):
            feat_cam = scale_intrinsics(cam, w // 4, h // 4)
            rays = tape.project(g, cfg.grid_spec, feat_cam, pose, cfg.n_z)
            x = rays
            i = 0
            while f"ray_reduce{i}.kernel" in self.params:
                x = tape.conv(x, self.params[f"ray_reduce{i}.kernel"],
                              self.params[f"ray_reduce{i}.bias"])
                i += 1
                if f"ray_reduce{i}.kernel" in self.params:
                    x = tape.relu(x)
            coarse = tape.upsample_nearest(x, 4)
            skip_full = tape.upsample_nearest(skip, 2)
            stacked = tape.concat([coarse, skip_full], axis=-1)
            depth = tape.conv(stacked, self.params["depth_refine.kernel"],
                              self.params["depth_refine.bias"])
            out.append(_take_channel(depth, 0))
        return out

    def loss(self, scene_images, scene_cameras, occupancy_gt=None, depth_gt=None):
        """Scalar loss node for one scene batch."""
        if self.cfg.head == "voxel":
            probs = self.occupancy(scene_images, scene_cameras)
            return tape.bce(probs, np.asarray(occupancy_gt, dtype=np.float64))
        preds = self.depth_maps(scene_images, scene_cameras)
        total = None
        for pred, gt in zip(preds, depth_gt):
            gt = np.asarray(gt, dtype=np.float64)
            term = tape.l1_masked(pred, gt, gt > 0)
            total = term if total is None else tape.add(total, term)
        return tape.scale(total, 1.0 / len(preds))


def _take_channel(node, index):
    def vjp(g):
        out = np.zeros(node.value.shape)
        out[..., index] = g
        return (out,)

    return tape.TapeNode(node.value[..., index], (node,), vjp)


def save_checkpoint(model: ToyModel, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for p in model.parameters():
        fname = p.name.replace("/", "_") + ".lsmt"
        write_tensor(out_dir / fname, p.value.astype(np.float32), "f32")
        manifest[p.name] = {"file": fname, "shape": list(p.value.shape)}
    (out_dir / "manifest.json").write_text(
        json.dumps({"config": asdict(model.cfg), "parameters": manifest},
                   sort_keys=True, indent=1) + "\n")


def load_checkpoint(ckpt_dir) -> ToyModel:
    ckpt_dir = Path(ckpt_dir)
    meta = json.loads((ckpt_dir / "manifest.json").read_text())
    cfg_dict = meta["config"]
    for key in ("encoder_channels", "reasoner_channels", "image_hw"):
        cfg_dict[key] = tuple(cfg_dict[key])
    model = ToyModel.create(ToyModelConfig(**cfg_dict))
    by_name = {p.name: p for p in model.parameters()}
    missing = sorted(by_name.keys() - meta["parameters"].keys())
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {', '.join(missing)}")
    for name, entry in meta["parameters"].items():
        values = read_tensor(ckpt_dir / entry["file"]).astype(np.float64)
        if name not in by_name or values.shape != by_name[name].value.shape:
            raise ValueError(f"checkpoint entry {name} does not match the model")
        by_name[name].value = values
    return model
