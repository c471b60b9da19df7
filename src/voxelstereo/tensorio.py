"""File formats: binary tensor container, camera text files, dataset layout.

Tensor container (extension .lsmt), all integers and floats little-endian:

    bytes 0-3   magic "LSMT"
    bytes 4-5   version, u16, currently 1
    byte  6     dtype, u8: 1 = float32, 2 = uint8, 3 = float64
    byte  7     rank, u8, 1..8
    then        rank x u32 dims
    then        row-major payload, prod(dims) * itemsize bytes

Camera files are plain text, one camera per line:
fx fy cx cy width height, 9 rotation entries row-major, 3 translation
entries, whitespace separated.

A dataset is a directory of scene folders, each containing
view_####.img.lsmt / view_####.depth.lsmt / view_####.mask.lsmt,
cameras.txt, occupancy.lsmt and scene.json. Depth 0 marks invalid pixels.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Intrinsics, Pose

MAGIC = b"LSMT"
VERSION = 1
DTYPE_CODES = {"f32": 1, "u8": 2, "f64": 3}
_CODE_TO_NP = {1: np.dtype("<f4"), 2: np.dtype("u1"), 3: np.dtype("<f8")}
MAX_RANK = 8


class TensorFormatError(ValueError):
    """Malformed tensor file; carries the offending field and byte offset."""

    def __init__(self, field_name: str, offset: int, message: str):
        super().__init__(f"bad {field_name} at offset {offset}: {message}")
        self.field = field_name
        self.offset = offset


def write_tensor(path, values: np.ndarray, dtype: str) -> None:
    """Write an array as "f32", "f64" or "u8"; u8 takes integers in [0, 255]."""
    values = np.asarray(values)
    if dtype not in DTYPE_CODES:
        raise ValueError(f"unsupported dtype {dtype!r}")
    if values.ndim == 0:
        raise ValueError("rank must be >= 1")
    if values.ndim > MAX_RANK:
        raise ValueError(f"rank {values.ndim} exceeds maximum {MAX_RANK}")
    if dtype == "u8" and not np.isin(values, np.arange(256)).all():
        raise ValueError("u8 values must be integers in [0, 255]")
    payload = np.ascontiguousarray(values, dtype=_CODE_TO_NP[DTYPE_CODES[dtype]])
    header = MAGIC + struct.pack(
        "<HBB", VERSION, DTYPE_CODES[dtype], values.ndim
    ) + struct.pack(f"<{values.ndim}I", *values.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a tensor file back as a float32, float64 or uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise TensorFormatError("magic", 0, f"expected {MAGIC!r}, got {data[:4]!r}")
    if len(data) < 8:
        raise TensorFormatError("header", 4, "file truncated before header end")
    version, dtype_code, rank = struct.unpack_from("<HBB", data, 4)
    if version != VERSION:
        raise TensorFormatError("version", 4, f"unsupported version {version}")
    if dtype_code not in _CODE_TO_NP:
        raise TensorFormatError("dtype", 6, f"unknown dtype code {dtype_code}")
    if not 1 <= rank <= MAX_RANK:
        raise TensorFormatError("rank", 7, f"rank {rank} outside 1..{MAX_RANK}")
    dims_end = 8 + 4 * rank
    if len(data) < dims_end:
        raise TensorFormatError("dims", 8, "file truncated inside dims")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    np_dtype = _CODE_TO_NP[dtype_code]
    expected = int(np.prod(dims)) * np_dtype.itemsize
    if len(data) - dims_end != expected:
        raise TensorFormatError(
            "payload", dims_end,
            f"expected {expected} bytes, found {len(data) - dims_end}",
        )
    return np.frombuffer(data, dtype=np_dtype, offset=dims_end).reshape(dims).copy()


def save_cameras(path, cameras: list[tuple[Intrinsics, Pose]]) -> None:
    lines = []
    for cam, pose in cameras:
        nums = [cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height]
        nums += list(pose.rotation.reshape(-1)) + list(pose.translation)
        lines.append(" ".join(repr(float(x)) for x in nums))
    Path(path).write_text("\n".join(lines) + "\n")


def load_cameras(path) -> list[tuple[Intrinsics, Pose]]:
    cameras = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vals = [float(x) for x in line.split()]
            if len(vals) != 18:
                raise ValueError(f"expected 18 values, got {len(vals)}")
            cam = Intrinsics(fx=vals[0], fy=vals[1], cx=vals[2], cy=vals[3],
                             width=vals[4], height=vals[5])
            pose = Pose(rotation=np.array(vals[6:15]).reshape(3, 3),
                        translation=np.array(vals[15:18]))
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from e
        cameras.append((cam, pose))
    return cameras


# --- dataset layout ---------------------------------------------------------

@dataclass
class SceneData:
    """One scene loaded into memory."""

    name: str
    images: np.ndarray      # (K, H, W, 3) float32 in [0, 1]
    depths: np.ndarray      # (K, H, W) float32, 0 = invalid
    masks: np.ndarray       # (K, H, W) uint8 silhouettes
    cameras: list[tuple[Intrinsics, Pose]]
    occupancy: np.ndarray   # (V, V, V) uint8
    meta: dict = field(default_factory=dict)

    @property
    def n_views(self) -> int:
        return len(self.cameras)

    @property
    def family(self) -> str:
        return self.meta.get("family", "unknown")


def write_scene(scene_dir, images, depths, masks, cameras, occupancy, meta) -> None:
    scene_dir = Path(scene_dir)
    scene_dir.mkdir(parents=True, exist_ok=True)
    for i in range(len(cameras)):
        write_tensor(scene_dir / f"view_{i:04d}.img.lsmt", images[i], "f32")
        write_tensor(scene_dir / f"view_{i:04d}.depth.lsmt", depths[i], "f32")
        write_tensor(scene_dir / f"view_{i:04d}.mask.lsmt", masks[i], "u8")
    save_cameras(scene_dir / "cameras.txt", cameras)
    write_tensor(scene_dir / "occupancy.lsmt", occupancy, "u8")
    (scene_dir / "scene.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def load_scene(scene_dir) -> SceneData:
    scene_dir = Path(scene_dir)
    cameras = load_cameras(scene_dir / "cameras.txt")
    images, depths, masks = [], [], []
    for i in range(len(cameras)):
        images.append(read_tensor(scene_dir / f"view_{i:04d}.img.lsmt"))
        depths.append(read_tensor(scene_dir / f"view_{i:04d}.depth.lsmt"))
        masks.append(read_tensor(scene_dir / f"view_{i:04d}.mask.lsmt"))
    shapes = {img.shape for img in images}
    if len(shapes) > 1:
        raise ValueError(f"{scene_dir}: views disagree on image shape: {shapes}")
    for i, (img, depth, mask) in enumerate(zip(images, depths, masks)):
        for kind, a in (("depth", depth), ("mask", mask)):
            if a.shape != img.shape[:2]:
                raise ValueError(f"{scene_dir}: view {i}: {kind} of shape {a.shape}, "
                                 f"its image is {img.shape[:2]}")
    occupancy = read_tensor(scene_dir / "occupancy.lsmt")
    if occupancy.ndim != 3 or len(set(occupancy.shape)) != 1:
        raise ValueError(f"{scene_dir}: occupancy of shape {occupancy.shape} is not a cube")
    meta = json.loads((scene_dir / "scene.json").read_text())
    return SceneData(
        name=scene_dir.name,
        images=np.stack(images),
        depths=np.stack(depths),
        masks=np.stack(masks),
        cameras=cameras,
        occupancy=occupancy,
        meta=meta,
    )


@dataclass
class DatasetManifest:
    """Directory of scenes; scenes are loaded lazily by name."""

    root: Path
    scenes: list[str]

    @classmethod
    def scan(cls, root) -> "DatasetManifest":
        root = Path(root)
        scenes = sorted(p.name for p in root.iterdir()
                        if p.is_dir() and (p / "scene.json").exists())
        if not scenes:
            raise FileNotFoundError(f"no scenes found under {root}")
        return cls(root=root, scenes=scenes)

    def load(self, name: str) -> SceneData:
        return load_scene(self.root / name)

    def load_all(self) -> list[SceneData]:
        return [self.load(name) for name in self.scenes]
