"""Toy end-to-end pipelines: encoder -> unproject -> fuse -> 3D reason -> head.

Two variants share the encoder, unprojection and grid reasoning:

  voxel: a 1x1x1 convolution to 2 channels + per-voxel softmax produces an
         occupancy probability grid, trained with binary cross entropy.
  depth: the reasoned grid is projected back into each input view on
         equally spaced depth planes; stacked ray samples are pooled by a
         chain of 1x1 convolutions halving channels to one, upsampled to
         image size and refined together with an encoder skip feature.

loss(scene, order) is the one entry from data to a loss: it takes the views
`order` of one loaded scene, with their images, cameras and ground truth,
and raises ValueError when the scene's image (H, W) is not cfg.image_hw.

Layer widths are the constants ENCODER_CHANNELS, REASONER_CHANNELS and
GRU_HIDDEN, and unprojection always appends each voxel's depth and ray
direction (GEOM_FEATURES); ToyModelConfig holds what runs vary.

Every learnable parameter, the GRU gates included, lives in ToyModel.params
under its checkpoint name. Checkpoints are a directory with one tensor file
per parameter plus a manifest of names and shapes. Values are stored as
float64, so a loaded parameter equals the saved one bitwise; a checkpoint
whose tensors are float32 still loads, widened to float64. Loading rejects
a checkpoint whose config names a field ToyModelConfig does not take or
lacks one it has (no default fills a missing field in), or whose manifest
lacks a model parameter, names one the model does not have, or gives a
mis-shaped one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..diffops import GeomFeatureConfig
from ..fusion import fuse_recurrent_node, init_gru_params
from ..geometry import VoxelGridSpec, scale_intrinsics
from ..tensorio import read_tensor, write_tensor
from . import tape
from .tape import Parameter


ENCODER_CHANNELS = (8, 16, 16)
REASONER_CHANNELS = (16, 8)
GRU_HIDDEN = 16
GEOM_FEATURES = GeomFeatureConfig(geometric=True)


@dataclass
class ToyModelConfig:
    fusion: str = "gru"                    # "gru" | "mean"
    head: str = "voxel"                    # "voxel" | "depth"
    n_z: int = 32
    image_hw: tuple[int, int] = (64, 64)
    grid_resolution: int = 32
    views: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("views", "n_z", "grid_resolution"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.fusion not in ("gru", "mean"):
            raise ValueError(f"unknown fusion {self.fusion!r}")
        if self.head not in ("voxel", "depth"):
            raise ValueError(f"unknown head {self.head!r}")
        if min(self.image_hw) < 4 or self.image_hw[0] % 4 or self.image_hw[1] % 4:
            raise ValueError("image size must be a positive multiple of 4")

    @property
    def grid_spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(resolution=self.grid_resolution)

    @property
    def fused_channels(self) -> int:
        unproj = GEOM_FEATURES.out_channels(ENCODER_CHANNELS[2])
        return GRU_HIDDEN if self.fusion == "gru" else unproj


def _he(rng, shape):
    fan_in = int(np.prod(shape[:-1]))
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _add(params, name, value):
    params[name] = Parameter(value, name)


def _conv_block(rng, params, name, kshape):
    c_out = kshape[-1]
    _add(params, f"{name}.kernel", _he(rng, kshape))
    _add(params, f"{name}.bias", np.zeros(c_out))
    _add(params, f"{name}.gain", np.ones(c_out))
    _add(params, f"{name}.shift", np.zeros(c_out))


def _ray_reduce_chain(cfg: ToyModelConfig) -> list[tuple[int, int]]:
    """(C_in, C_out) of each ray_reduce conv: n_z * C ray channels halved to one."""
    c = cfg.n_z * REASONER_CHANNELS[1]
    chain = []
    while c > 1:
        chain.append((c, c // 2))
        c //= 2
    return chain


class ToyModel:
    """One name-keyed parameter store plus the tape-composed forward passes."""

    def __init__(self, cfg: ToyModelConfig, params: dict[str, Parameter]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def create(cls, cfg: ToyModelConfig) -> "ToyModel":
        rng = np.random.default_rng([cfg.seed, 0])
        params: dict[str, Parameter] = {}
        e1, e2, e3 = ENCODER_CHANNELS
        _conv_block(rng, params, "enc1", (3, 3, 3, e1))
        _conv_block(rng, params, "enc2", (3, 3, e1, e2))
        _conv_block(rng, params, "enc3", (3, 3, e2, e3))
        if cfg.fusion == "gru":
            params.update(init_gru_params(GEOM_FEATURES.out_channels(e3), GRU_HIDDEN, rng))
        r1, r2 = REASONER_CHANNELS
        _conv_block(rng, params, "reason1", (3, 3, 3, cfg.fused_channels, r1))
        _conv_block(rng, params, "reason2", (3, 3, 3, r1, r2))

        if cfg.head == "voxel":
            # zero-init output head: the untrained model says exactly p = 0.5
            _add(params, "voxel_head.kernel", np.zeros((1, 1, 1, r2, 2)))
            _add(params, "voxel_head.bias", np.zeros(2))
        else:
            for i, (c_in, c_out) in enumerate(_ray_reduce_chain(cfg)):
                _add(params, f"ray_reduce{i}.kernel", _he(rng, (1, 1, c_in, c_out)))
                _add(params, f"ray_reduce{i}.bias", np.zeros(c_out))
            # zero-init output layer with the bias at the camera orbit radius:
            # the untrained model predicts a constant plausible depth and the
            # toy iteration budget goes into shape, not the global offset
            _add(params, "depth_refine.kernel", np.zeros((3, 3, 1 + e1, 1)))
            _add(params, "depth_refine.bias", np.array([2.0]))
        return cls(cfg, params)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

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
            return fuse_recurrent_node(grids, self.params)
        return tape.mean_stack(grids)

    def reasoned_grid(self, images, cameras):
        """Images (K, H, W, 3), cameras [(Intrinsics, Pose)] -> grid node, views.

        views holds one (skip feature, feature camera, pose) per image; the
        feature camera is the image camera scaled to the encoder's output.
        """
        cfg = self.cfg
        grids = []
        views = []
        for image, (cam, pose) in zip(images, cameras):
            feat, skip = self.encode(np.asarray(image, dtype=np.float64))
            fh, fw = feat.value.shape[:2]
            feat_cam = scale_intrinsics(cam, fw, fh)
            grids.append(tape.unproject(feat, feat_cam, pose, cfg.grid_spec, GEOM_FEATURES))
            views.append((skip, feat_cam, pose))
        fused = self.fuse(grids)
        g = self._conv_in_relu(fused, "reason1")
        g = self._conv_in_relu(g, "reason2")
        return g, views

    def occupancy(self, images, cameras):
        """Voxel pipeline output: (V, V, V) occupancy probability node."""
        g, _ = self.reasoned_grid(images, cameras)
        logits = tape.conv(g, self.params["voxel_head.kernel"],
                           self.params["voxel_head.bias"])
        probs = tape.softmax_channels(logits)
        return tape.take(probs, 1, axis=-1)

    def depth_maps(self, images, cameras):
        """Depth pipeline output: one (H, W) metric depth node per view."""
        cfg, p = self.cfg, self.params
        g, views = self.reasoned_grid(images, cameras)
        n_reduce = len(_ray_reduce_chain(cfg))
        out = []
        for skip, feat_cam, pose in views:
            x = tape.project(g, cfg.grid_spec, feat_cam, pose, cfg.n_z)
            for i in range(n_reduce):
                x = tape.conv(x, p[f"ray_reduce{i}.kernel"], p[f"ray_reduce{i}.bias"])
                if i < n_reduce - 1:
                    x = tape.relu(x)
            coarse = tape.upsample_nearest(x, 4)
            skip_full = tape.upsample_nearest(skip, 2)
            stacked = tape.concat([coarse, skip_full])
            depth = tape.conv(stacked, p["depth_refine.kernel"], p["depth_refine.bias"])
            out.append(tape.take(depth, 0, axis=-1))
        return out

    def loss(self, scene, order):
        """Scalar loss node for the views `order` of one scene (a tensorio.SceneData)."""
        images = scene.images[order]
        if images.shape[1:3] != tuple(self.cfg.image_hw):
            raise ValueError(f"scene {scene.name} has images of (H, W) {images.shape[1:3]}, "
                             f"the model takes {self.cfg.image_hw}")
        cameras = [scene.cameras[i] for i in order]
        if self.cfg.head == "voxel":
            v = self.cfg.grid_resolution
            if scene.occupancy.shape != (v, v, v):
                raise ValueError(f"scene {scene.name} has occupancy of shape "
                                 f"{scene.occupancy.shape}, the model's grid is {(v, v, v)}")
            probs = self.occupancy(images, cameras)
            return tape.bce(probs, np.asarray(scene.occupancy, dtype=np.float64))
        total = None
        for pred, i in zip(self.depth_maps(images, cameras), order):
            gt = np.asarray(scene.depths[i], dtype=np.float64)
            term = tape.l1_masked(pred, gt, gt > 0)
            total = term if total is None else tape.add(total, term)
        return tape.scale(total, 1.0 / len(order))


def save_checkpoint(model: ToyModel, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for p in model.parameters():
        fname = p.name.replace("/", "_") + ".lsmt"
        write_tensor(out_dir / fname, p.value, "f64")
        manifest[p.name] = {"file": fname, "shape": list(p.value.shape)}
    (out_dir / "manifest.json").write_text(
        json.dumps({"config": asdict(model.cfg), "parameters": manifest},
                   sort_keys=True, indent=1) + "\n")


def load_checkpoint(ckpt_dir) -> ToyModel:
    ckpt_dir = Path(ckpt_dir)
    meta = json.loads((ckpt_dir / "manifest.json").read_text())
    cfg_dict = meta["config"]
    names = {f.name for f in fields(ToyModelConfig)}
    unknown = sorted(cfg_dict.keys() - names)
    if unknown:
        raise ValueError(f"checkpoint config has unknown fields: {', '.join(unknown)}")
    lacking = sorted(names - cfg_dict.keys())
    if lacking:
        raise ValueError(f"checkpoint config is missing fields: {', '.join(lacking)}")
    cfg_dict["image_hw"] = tuple(cfg_dict["image_hw"])
    model = ToyModel.create(ToyModelConfig(**cfg_dict))
    params = model.params
    missing = sorted(params.keys() - meta["parameters"].keys())
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {', '.join(missing)}")
    for name, entry in meta["parameters"].items():
        values = read_tensor(ckpt_dir / entry["file"]).astype(np.float64)
        if name not in params or values.shape != params[name].value.shape:
            raise ValueError(f"checkpoint entry {name} does not match the model")
        params[name].value = values
    return model
