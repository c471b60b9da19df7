"""Toy end-to-end pipelines: encoder -> unproject -> fuse -> 3D reason -> head.

Two variants share the encoder, unprojection and grid reasoning:

  voxel: a 1x1x1 convolution to 2 channels + per-voxel softmax produces an
         occupancy probability grid, trained with binary cross entropy.
  depth: the reasoned grid is projected back into each input view on
         grid_resolution equally spaced depth planes, one per voxel of a
         grid edge; stacked ray samples are pooled by a chain of 1x1
         convolutions halving channels to one, upsampled to image size and
         refined together with an encoder skip feature.

loss(scene, order) is the one entry from data to a loss: it takes the views
`order` of one loaded scene, with their images, cameras and ground truth,
and raises ValueError when the scene's image (H, W) is not cfg.image_hw.

Layer widths are the constants ENCODER_CHANNELS, REASONER_CHANNELS and
GRU_HIDDEN, and unprojection always appends each voxel's depth and ray
direction (GEOM_FEATURES); ToyModelConfig holds what runs vary. A conv that
feeds an instance norm (enc1-enc3, reason1, reason2) has no bias: the norm
subtracts each channel's mean, which cancels one exactly, so its gradient
would be rounding noise. The rest keep theirs; fusion says why the GRU's do.

Every learnable parameter, the GRU gates included, is a leaf tape node in
ToyModel.params under its checkpoint name. A checkpoint is a directory with
one float64 tensor file <name>.lsmt per parameter plus a manifest of the
config and the sorted parameter names; each tensor file's header is the one
record of its shape. A loaded parameter equals the saved one bitwise. Loading
rejects a manifest whose config is not an object or whose parameters are not
a list of strings, then a config that names a field ToyModelConfig does not
take or lacks one it has (no default fills a missing field in), then a
manifest that lacks a model parameter or names one the model does not have,
and only then reads <name>.lsmt for each model parameter, rejecting one not
float64 or mis-shaped.
ToyModelConfig itself rejects a views, grid_resolution or seed that is
not an int (a bool included) and an image_hw that is not two such ints, so
such a checkpoint config fails to load too.
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
from .layers import he_normal
from .tape import TapeNode


ENCODER_CHANNELS = (8, 16, 16)
REASONER_CHANNELS = (16, 8)
GRU_HIDDEN = 16
GEOM_FEATURES = GeomFeatureConfig(geometric=True)


@dataclass
class ToyModelConfig:
    fusion: str = "gru"                    # "gru" | "mean"
    head: str = "voxel"                    # "voxel" | "depth"
    image_hw: tuple[int, int] = (64, 64)
    grid_resolution: int = 32
    views: int = 4
    seed: int = 0

    def __post_init__(self):
        for name in ("views", "grid_resolution", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.fusion not in ("gru", "mean"):
            raise ValueError(f"unknown fusion {self.fusion!r}")
        if self.head not in ("voxel", "depth"):
            raise ValueError(f"unknown head {self.head!r}")
        hw = self.image_hw
        if not (isinstance(hw, tuple) and len(hw) == 2 and all(type(n) is int for n in hw)):
            raise ValueError(f"image_hw must be a tuple of two ints, got {hw!r}")
        if min(hw) < 4 or hw[0] % 4 or hw[1] % 4:
            raise ValueError("image size must be a positive multiple of 4")

    @property
    def grid_spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(resolution=self.grid_resolution)


def _conv_block(rng, params, name, kshape):
    params[f"{name}.kernel"] = TapeNode(he_normal(rng, kshape))
    params[f"{name}.gain"] = TapeNode(np.ones(kshape[-1]))
    params[f"{name}.shift"] = TapeNode(np.zeros(kshape[-1]))


def _ray_reduce_chain(cfg: ToyModelConfig) -> list[tuple[int, int]]:
    """(C_in, C_out) of each ray_reduce conv: V * C ray channels halved to one."""
    c = cfg.grid_resolution * REASONER_CHANNELS[1]
    chain = []
    while c > 1:
        chain.append((c, c // 2))
        c //= 2
    return chain


class ToyModel:
    """One name-keyed parameter store plus the tape-composed forward passes."""

    def __init__(self, cfg: ToyModelConfig, params: dict[str, TapeNode]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def create(cls, cfg: ToyModelConfig) -> "ToyModel":
        rng = np.random.default_rng([cfg.seed, 0])
        params: dict[str, TapeNode] = {}
        e1, e2, e3 = ENCODER_CHANNELS
        _conv_block(rng, params, "enc1", (3, 3, 3, e1))
        _conv_block(rng, params, "enc2", (3, 3, e1, e2))
        _conv_block(rng, params, "enc3", (3, 3, e2, e3))
        fused = GEOM_FEATURES.out_channels(e3)  # the unprojected width
        if cfg.fusion == "gru":
            params.update(init_gru_params(fused, GRU_HIDDEN, rng))
            fused = GRU_HIDDEN
        r1, r2 = REASONER_CHANNELS
        _conv_block(rng, params, "reason1", (3, 3, 3, fused, r1))
        _conv_block(rng, params, "reason2", (3, 3, 3, r1, r2))

        if cfg.head == "voxel":
            # zero-init output head: the untrained model says exactly p = 0.5
            params["voxel_head.kernel"] = TapeNode(np.zeros((1, 1, 1, r2, 2)))
            params["voxel_head.bias"] = TapeNode(np.zeros(2))
        else:
            for i, (c_in, c_out) in enumerate(_ray_reduce_chain(cfg)):
                params[f"ray_reduce{i}.kernel"] = TapeNode(he_normal(rng, (1, 1, c_in, c_out)))
                params[f"ray_reduce{i}.bias"] = TapeNode(np.zeros(c_out))
            # zero-init output layer with the bias at the camera orbit radius:
            # the untrained model predicts a constant plausible depth and the
            # toy iteration budget goes into shape, not the global offset
            params["depth_refine.kernel"] = TapeNode(np.zeros((3, 3, 1 + e1, 1)))
            params["depth_refine.bias"] = TapeNode(np.array([2.0]))
        return cls(cfg, params)

    def parameters(self) -> list[TapeNode]:
        return list(self.params.values())

    # --- forward pieces -------------------------------------------------

    def _conv_in_relu(self, x, name, stride=1):
        p = self.params
        y = tape.conv(x, p[f"{name}.kernel"], stride=stride)
        y = tape.instance_norm(y, p[f"{name}.gain"], p[f"{name}.shift"])
        return tape.relu(y)

    def encode(self, image):
        """(H, W, 3) -> (H/4, W/4, C) features plus the first-layer skip."""
        skip = self._conv_in_relu(image, "enc1", stride=2)
        x = self._conv_in_relu(skip, "enc2", stride=2)
        return self._conv_in_relu(x, "enc3"), skip

    def fuse(self, grids):
        """The fused grid node of an iterable of grid nodes, read once."""
        if self.cfg.fusion == "gru":
            return fuse_recurrent_node(grids, self.params)
        return tape.mean_stack(list(grids))

    def reasoned_grid(self, images, cameras):
        """Images (K, H, W, 3), cameras [(Intrinsics, Pose)] -> grid node, views.

        views holds one (skip feature, feature camera, pose) per image; the
        feature camera is the image camera scaled to the encoder's output.
        Each view is encoded and unprojected only when fuse asks for its
        grid, so the GRU, which folds the views one at a time, has one
        unprojected grid alive at once; mean fusion takes all K together.
        Neither fusion's graph keeps a grid: mean_stack's VJP reads none,
        and each GRU step rebuilds its view's grid in backward from the
        feature map that the unproject's VJP holds. So once fused, only the
        fused grid and what the graph keeps are live while reasoning.
        """
        cfg = self.cfg
        views = []

        def grids():
            for image, (cam, pose) in zip(images, cameras):
                feat, skip = self.encode(TapeNode(image))
                fh, fw = feat.value.shape[:2]
                feat_cam = scale_intrinsics(cam, fw, fh)
                views.append((skip, feat_cam, pose))
                yield tape.unproject(feat, feat_cam, pose, cfg.grid_spec, GEOM_FEATURES)

        fused = self.fuse(grids())
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
            x = tape.project(g, feat_cam, pose)
            for i in range(n_reduce):
                x = tape.conv(x, p[f"ray_reduce{i}.kernel"], p[f"ray_reduce{i}.bias"])
                if i < n_reduce - 1:
                    x = tape.relu(x)
            coarse = tape.upsample_nearest(x, 4)
            skip_full = tape.upsample_nearest(skip, 2)
            depth = tape.conv([coarse, skip_full], p["depth_refine.kernel"], p["depth_refine.bias"])
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
    for name, p in model.params.items():
        write_tensor(out_dir / f"{name}.lsmt", p.value, "f64")
    (out_dir / "manifest.json").write_text(
        json.dumps({"config": asdict(model.cfg), "parameters": sorted(model.params)},
                   sort_keys=True, indent=1) + "\n")


def load_checkpoint(ckpt_dir) -> ToyModel:
    ckpt_dir = Path(ckpt_dir)
    meta = json.loads((ckpt_dir / "manifest.json").read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint manifest is not a JSON object: {type(meta).__name__}")
    for key in ("config", "parameters"):
        if key not in meta:
            raise ValueError(f"checkpoint manifest is missing {key!r}")
    cfg_dict, listed = meta["config"], meta["parameters"]
    if not isinstance(cfg_dict, dict):
        raise ValueError(f"checkpoint config must be an object, got {type(cfg_dict).__name__}")
    if not (isinstance(listed, list) and all(isinstance(name, str) for name in listed)):
        raise ValueError("checkpoint parameters must be a list of strings")
    names = {f.name for f in fields(ToyModelConfig)}
    unknown = sorted(cfg_dict.keys() - names)
    if unknown:
        raise ValueError(f"checkpoint config has unknown fields: {', '.join(unknown)}")
    lacking = sorted(names - cfg_dict.keys())
    if lacking:
        raise ValueError(f"checkpoint config is missing fields: {', '.join(lacking)}")
    if isinstance(cfg_dict["image_hw"], list):
        cfg_dict["image_hw"] = tuple(cfg_dict["image_hw"])
    model = ToyModel.create(ToyModelConfig(**cfg_dict))
    params = model.params
    listed = set(listed)
    missing = sorted(params.keys() - listed)
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {', '.join(missing)}")
    extra = sorted(listed - params.keys())
    if extra:
        raise ValueError(f"checkpoint has parameters the model lacks: {', '.join(extra)}")
    for name, p in params.items():
        values = read_tensor(ckpt_dir / f"{name}.lsmt")
        if values.dtype != np.float64:
            raise ValueError(f"checkpoint entry {name} is {values.dtype}, not float64")
        if values.shape != p.value.shape:
            raise ValueError(f"checkpoint entry {name} has shape {values.shape}, "
                             f"the model's is {p.value.shape}")
        p.value = values
    return model
