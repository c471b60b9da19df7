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

A dataset is a directory of scene folders. A scene of K views holds five
files: images.lsmt ((K, H, W, 3) f32 in [0, 1]), depths.lsmt ((K, H, W)
f32, finite and >= 0), occupancy.lsmt ((V, V, V) u8), cameras.txt (K
lines, each H x W) and scene.json. Depth 0 marks pixels off the object; a
silhouette is the pixels with depth. Every camera sees the whole unit cube
at the origin, the one voxel grid: its 8 corners lie in front of it and
inside its image, and every depth of its view lies within the cube's depth
range in that camera. load_scene rejects a scene that breaks any of these.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import CUBE_CORNERS, Z_EPS, Intrinsics, Pose, camera_z_range, project_points

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
    expected = math.prod(dims) * np_dtype.itemsize
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
    depths: np.ndarray      # (K, H, W) float32, 0 off the object
    cameras: list[tuple[Intrinsics, Pose]]
    occupancy: np.ndarray   # (V, V, V) uint8
    meta: dict = field(default_factory=dict)

    @property
    def masks(self) -> np.ndarray:
        """(K, H, W) uint8 silhouettes: the pixels with depth."""
        return (self.depths > 0).astype(np.uint8)

    @property
    def n_views(self) -> int:
        return len(self.cameras)

    @property
    def family(self) -> str:
        return self.meta.get("family", "unknown")


def write_scene(scene_dir, images, depths, cameras, occupancy, meta) -> None:
    scene_dir = Path(scene_dir)
    scene_dir.mkdir(parents=True, exist_ok=True)
    write_tensor(scene_dir / "images.lsmt", images, "f32")
    write_tensor(scene_dir / "depths.lsmt", depths, "f32")
    save_cameras(scene_dir / "cameras.txt", cameras)
    write_tensor(scene_dir / "occupancy.lsmt", occupancy, "u8")
    (scene_dir / "scene.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def _check_views_of_cube(scene_dir, cameras, depths) -> None:
    """Every camera sees all of the unit cube, and every depth lies in its range.

    One project_points call per camera places the cube's corners: each must
    lie in front of the camera (z > Z_EPS) and inside its pixel extent
    [-0.5, w - 0.5] x [-0.5, h - 0.5], wider than project_points' own
    [0, w - 1] x [0, h - 1] validity. Once every camera passes, one
    camera_z_range call per camera bounds its view's foreground depths, with
    the ends rounded to float32 like the depths: rounding is monotone, so a
    depth inside the range stays inside. A scene not centred at the origin
    breaks this.
    """
    for i, (cam, pose) in enumerate(cameras):
        uv, z, _ = project_points(CUBE_CORNERS, cam, pose)
        inside = (uv >= -0.5) & (uv <= [cam.width - 0.5, cam.height - 0.5])
        sees = (z > Z_EPS) & inside.all(axis=1)
        if not sees.all():
            raise ValueError(f"{scene_dir}: camera {i} of cameras.txt does not see the whole "
                             f"unit cube: {int((~sees).sum())} of its 8 corners lie behind it "
                             f"or outside its image")
    lo = np.where(depths > 0, depths, np.inf).min(axis=(1, 2))  # inf for an empty view
    hi = depths.max(axis=(1, 2))
    for i, (_, pose) in enumerate(cameras):
        z_near, z_far = np.float32(camera_z_range(pose))
        if lo[i] < z_near or hi[i] > z_far:
            raise ValueError(f"{scene_dir}: view {i} of depths.lsmt holds depths in "
                             f"[{lo[i]}, {hi[i]}], outside the unit cube's depth range "
                             f"[{z_near}, {z_far}] in its camera")


def load_scene(scene_dir) -> SceneData:
    scene_dir = Path(scene_dir)
    images = read_tensor(scene_dir / "images.lsmt")
    depths = read_tensor(scene_dir / "depths.lsmt")
    for name, values in (("images", images), ("depths", depths)):
        if values.dtype != np.float32:
            raise ValueError(f"{scene_dir}: {name}.lsmt is {values.dtype}, not float32")
    cameras = load_cameras(scene_dir / "cameras.txt")
    if images.ndim != 4 or images.shape[0] != len(cameras) or images.shape[3] != 3:
        raise ValueError(f"{scene_dir}: images of shape {images.shape}, expected "
                         f"({len(cameras)}, H, W, 3) for {len(cameras)} cameras")
    if depths.shape != images.shape[:3]:
        raise ValueError(f"{scene_dir}: depths of shape {depths.shape}, "
                         f"images are {images.shape[:3]}")
    h, w = images.shape[1:3]
    sizes = {(cam.height, cam.width) for cam, _ in cameras}
    if sizes != {(h, w)}:
        raise ValueError(f"{scene_dir}: cameras of (H, W) {sorted(sizes)}, images are {(h, w)}")
    # a NaN makes min and max NaN, which fails every comparison below
    if not (images.min(initial=0) >= 0 and images.max(initial=0) <= 1):
        raise ValueError(f"{scene_dir}: images.lsmt holds values outside [0, 1] or NaN")
    if not (depths.min(initial=0) >= 0 and depths.max(initial=0) < np.inf):
        raise ValueError(f"{scene_dir}: depths.lsmt holds negative or non-finite values")
    _check_views_of_cube(scene_dir, cameras, depths)
    occupancy = read_tensor(scene_dir / "occupancy.lsmt")
    if occupancy.dtype != np.uint8:
        raise ValueError(f"{scene_dir}: occupancy.lsmt is {occupancy.dtype}, not uint8")
    if occupancy.max(initial=0) > 1:
        raise ValueError(f"{scene_dir}: occupancy.lsmt holds values other than 0 and 1")
    if occupancy.ndim != 3 or len(set(occupancy.shape)) != 1:
        raise ValueError(f"{scene_dir}: occupancy of shape {occupancy.shape} is not a cube")
    meta = json.loads((scene_dir / "scene.json").read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{scene_dir}: scene.json holds a {type(meta).__name__}, "
                         "not a JSON object")
    return SceneData(name=scene_dir.name, images=images, depths=depths, cameras=cameras,
                     occupancy=occupancy, meta=meta)


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
        if name not in self.scenes:
            raise ValueError(f"{name!r} is not a scene of the dataset at {self.root}")
        return load_scene(self.root / name)

    def load_all(self) -> list[SceneData]:
        return [self.load(name) for name in self.scenes]
