"""Procedural ground truth: SDF shapes, posed renders, exact depth, voxels.

Scenes are compositions of exact primitive signed distance functions
(sphere, axis-aligned box, capped cylinder) combined by union (min) and
subtraction (max(a, -b)); negative means inside. Every scene must fit the
unit cube centered at the origin.

Rendering sphere-traces each pixel ray (max 256 steps, hit tolerance 1e-5)
and returns the textured Lambertian-shaded image and the exact camera-frame
depth, 0 at misses.

generate_dataset writes each scene in the five-file layout of tensorio, its
views stacked into one image tensor and one depth tensor. A view's
silhouette is exactly depth > 0, which SceneData.masks derives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import (Intrinsics, Pose, VoxelGridSpec, look_at, pixel_grid,
                       rays_through_pixels, voxel_centers)
from .tensorio import DatasetManifest, write_scene

MAX_MARCH_STEPS = 256
HIT_TOL = 1e-5
_LIGHT_DIR = np.array([0.45, 0.8, -0.4]) / np.linalg.norm([0.45, 0.8, -0.4])

# Texture: a 3D checker modulated by aperiodic value noise, since a bare periodic checker
# repeats correlation peaks along epipolar lines. In the near-isoluminant palette the
# checker stays visible in color while grayscale matching sees mostly the noise.
_CHECKER_CELL = 0.125
_NOISE_SCALE = 14.0
_COLOR_A = np.array([0.9, 0.35, 0.25])
_COLOR_B = np.array([0.25, 0.5, 0.95])

ORBIT_RADIUS = 2.0
AZIMUTH_RANGE = (0.0, 360.0)
ELEVATION_RANGE = (-20.0, 30.0)


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float

    def sdf(self, pts):
        return np.linalg.norm(pts - np.asarray(self.center), axis=-1) - self.radius


@dataclass(frozen=True)
class Box:
    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]

    def sdf(self, pts):
        q = np.abs(pts - np.asarray(self.center)) - np.asarray(self.half_extents)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(q.max(axis=-1), 0.0)
        return outside + inside


@dataclass(frozen=True)
class Cylinder:
    """Capped cylinder along a coordinate axis (0=x, 1=y, 2=z)."""

    center: tuple[float, float, float]
    axis: int
    radius: float
    height: float

    def sdf(self, pts):
        rel = pts - np.asarray(self.center)
        perp = np.delete(rel, self.axis, axis=-1)
        d_r = np.linalg.norm(perp, axis=-1) - self.radius
        d_a = np.abs(rel[..., self.axis]) - 0.5 * self.height
        q = np.stack([d_r, d_a], axis=-1)
        return np.minimum(q.max(axis=-1), 0.0) + np.linalg.norm(np.maximum(q, 0.0), axis=-1)


def _lattice_hash(ix, iy, iz, seed):
    """Deterministic pseudo-random [0, 1) value per integer lattice point."""
    seed_mix = np.uint64((int(seed) * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF)
    h = (ix.astype(np.int64).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         ^ iy.astype(np.int64).astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
         ^ iz.astype(np.int64).astype(np.uint64) * np.uint64(0x94D049BB133111EB)
         ^ seed_mix)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def value_noise(pts, scale, seed):
    """Smooth aperiodic noise in [0, 1]: trilinear blend of lattice hashes."""
    g = np.asarray(pts, dtype=np.float64) * scale
    i0 = np.floor(g)
    f = g - i0
    f = f * f * (3.0 - 2.0 * f)  # smoothstep
    out = np.zeros(g.shape[:-1])
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = ((f[..., 0] if dx else 1 - f[..., 0])
                     * (f[..., 1] if dy else 1 - f[..., 1])
                     * (f[..., 2] if dz else 1 - f[..., 2]))
                out += w * _lattice_hash(i0[..., 0] + dx, i0[..., 1] + dy,
                                         i0[..., 2] + dz, seed)
    return out


@dataclass
class SceneSpec:
    """Primitives combined left to right; ops are "union" or "subtract"."""

    nodes: list[tuple[str, object]]
    family: str = "composite"
    seed: int = 0

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("scene needs at least one primitive")
        if self.nodes[0][0] != "union":
            raise ValueError("first node must be a union")


def sdf_eval(scene: SceneSpec, pts) -> np.ndarray:
    """Signed distance of the composite shape at world points (..., 3)."""
    pts = np.asarray(pts, dtype=np.float64)
    d = None
    for op, prim in scene.nodes:
        dp = prim.sdf(pts)
        if d is None:
            d = dp
        elif op == "union":
            d = np.minimum(d, dp)
        elif op == "subtract":
            d = np.maximum(d, -dp)
        else:
            raise ValueError(f"unknown op {op!r}")
    return d


def sdf_normal(scene: SceneSpec, pts) -> np.ndarray:
    """Unit SDF gradient by central differences of step 1e-5."""
    pts = np.asarray(pts, dtype=np.float64)
    n = np.empty_like(pts)
    for a in range(3):
        off = np.zeros(3)
        off[a] = 1e-5
        n[..., a] = sdf_eval(scene, pts + off) - sdf_eval(scene, pts - off)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    return np.divide(n, norm, out=np.zeros_like(n), where=norm > 0)


def texture_color(scene: SceneSpec, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    parity = np.floor(pts / _CHECKER_CELL).sum(axis=-1) % 2
    base = np.where(parity[..., None] > 0.5, _COLOR_B, _COLOR_A)
    # three noise octaves: coarse disambiguates globally, fine sharpens peaks
    n = (0.35 * value_noise(pts + 17.3, 0.4 * _NOISE_SCALE, scene.seed + 2)
         + 0.45 * value_noise(pts, _NOISE_SCALE, scene.seed)
         + 0.20 * value_noise(pts + 31.7, 2.6 * _NOISE_SCALE, scene.seed + 1))
    return np.clip(base * (0.35 + 0.75 * n)[..., None], 0.0, 1.0)


def assert_inside_unit_cube(scene: SceneSpec) -> None:
    """The shape may not poke through the faces of the unit cube (33^2 samples each)."""
    lin = np.linspace(-0.5, 0.5, 33)
    a, b = np.meshgrid(lin, lin)
    for axis in range(3):
        for sign in (-0.5, 0.5):
            face = np.zeros(a.shape + (3,))
            face[..., axis] = sign
            face[..., (axis + 1) % 3] = a
            face[..., (axis + 2) % 3] = b
            if (sdf_eval(scene, face) < 0).any():
                raise ValueError(f"scene escapes the unit cube through face {axis}/{sign}")


def render_view(scene: SceneSpec, cam: Intrinsics, pose: Pose):
    """Sphere-trace one view; returns (image HxWx3, depth HxW).

    Depth is camera-frame z at the hit, 0 at misses; the background is white.
    """
    h, w = cam.height, cam.width
    origin, dirs = rays_through_pixels(pixel_grid(cam).reshape(-1, 2), cam, pose)
    n = dirs.shape[0]
    t = np.zeros(n)
    live = np.arange(n)  # the rays still marching
    hit = np.zeros(n, dtype=bool)
    t_max = np.linalg.norm(origin) + 2.0  # rays leaving this bound have missed
    for _ in range(MAX_MARCH_STEPS):
        if not live.size:
            break
        d = sdf_eval(scene, origin + t[live, None] * dirs[live])
        newly_hit = d < HIT_TOL
        hit[live[newly_hit]] = True
        t[live] += np.maximum(d, 0.0)
        live = live[~newly_hit & (t[live] <= t_max)]

    points = origin + t[:, None] * dirs
    z_cam = pose.transform(points)[:, 2]
    depth = np.where(hit, z_cam, 0.0).reshape(h, w)

    image = np.ones((n, 3))
    if hit.any():
        albedo = texture_color(scene, points[hit])
        lambert = np.clip(sdf_normal(scene, points[hit]) @ _LIGHT_DIR, 0.0, 1.0)
        image[hit] = np.clip(albedo * (0.25 + 0.75 * lambert)[:, None], 0.0, 1.0)
    return image.reshape(h, w, 3), depth


def voxelize(scene: SceneSpec, spec: VoxelGridSpec) -> np.ndarray:
    """Occupancy by the sign of the SDF at voxel centers."""
    d = sdf_eval(scene, voxel_centers(spec))
    v = spec.resolution
    return (d <= 0.0).reshape(v, v, v).astype(np.uint8)


def sample_poses(n: int, rng: np.random.Generator) -> list[Pose]:
    """n poses at ORBIT_RADIUS looking at the origin; per pose an azimuth, then an
    elevation (from the world x/z plane, +y up), uniform in degrees over its range."""
    poses = []
    for _ in range(n):
        az = np.deg2rad(rng.uniform(*AZIMUTH_RANGE))
        el = np.deg2rad(rng.uniform(*ELEVATION_RANGE))
        pos = ORBIT_RADIUS * np.array(
            [np.cos(el) * np.cos(az), np.sin(el), np.cos(el) * np.sin(az)]
        )
        poses.append(look_at(pos, [0.0, 0.0, 0.0]))
    return poses


def default_intrinsics(width: int, height: int) -> Intrinsics:
    """Focal length chosen so the unit cube fits comfortably at radius 2."""
    f = 0.9375 * min(width, height)
    return Intrinsics(fx=f, fy=f, cx=(width - 1) / 2, cy=(height - 1) / 2,
                      width=width, height=height)


# --- scene families -----------------------------------------------------------


def make_sphere_scene(rng: np.random.Generator) -> SceneSpec:
    r = rng.uniform(0.3, 0.45)
    c = rng.uniform(-0.04, 0.04, 3)
    c = np.clip(c, -(0.49 - r), 0.49 - r)
    return SceneSpec(nodes=[("union", Sphere(center=tuple(c), radius=float(r)))],
                     family="sphere")


def make_box_scene(rng: np.random.Generator) -> SceneSpec:
    he = rng.uniform(0.18, 0.42, 3)
    nodes = [("union", Box(center=(0.0, 0.0, 0.0), half_extents=tuple(he)))]
    if rng.random() < 0.5:
        axis = int(rng.integers(0, 3))
        nodes.append(("union", Cylinder(center=(0.0, 0.0, 0.0), axis=axis,
                                        radius=float(rng.uniform(0.08, 0.18)),
                                        height=float(rng.uniform(0.5, 0.9)))))
    return SceneSpec(nodes=nodes, family="box")


def make_composite_scene(rng: np.random.Generator) -> SceneSpec:
    """Concave shapes a silhouette hull cannot represent."""
    he = rng.uniform(0.3, 0.42, 3)
    nodes = [("union", Box(center=(0.0, 0.0, 0.0), half_extents=tuple(he)))]
    bite_r = rng.uniform(0.55, 0.8) * he.min()
    face_axis = int(rng.integers(0, 3))
    offset = np.zeros(3)
    offset[face_axis] = he[face_axis] * rng.choice([-1.0, 1.0])
    nodes.append(("subtract", Sphere(center=tuple(offset), radius=float(bite_r))))
    if rng.random() < 0.5:
        axis2 = (face_axis + 1) % 3
        hole = np.zeros(3)
        nodes.append(("subtract", Cylinder(center=tuple(hole), axis=axis2,
                                           radius=float(rng.uniform(0.4, 0.7) * bite_r),
                                           height=2.0)))
    return SceneSpec(nodes=nodes, family="composite")


_FAMILIES = {
    "sphere": make_sphere_scene,
    "box": make_box_scene,
    "composite": make_composite_scene,
}


def make_scene(family: str, seed: int) -> SceneSpec:
    scene = replace(_FAMILIES[family](np.random.default_rng(seed)), seed=seed)
    assert_inside_unit_cube(scene)
    return scene


def _scene_meta(scene: SceneSpec, seed: int) -> dict:
    prims = []
    for op, p in scene.nodes:
        entry = {"op": op, "kind": type(p).__name__.lower()}
        entry.update({k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in p.__dict__.items()})
        prims.append(entry)
    return {
        "family": scene.family,
        "seed": seed,
        "primitives": prims,
        "texture": {"kind": "checker", "cell": _CHECKER_CELL},
        "view_sampler": {"radius": ORBIT_RADIUS, "azimuth_range": list(AZIMUTH_RANGE),
                         "elevation_range": list(ELEVATION_RANGE)},
    }


def generate_dataset(
    n_scenes: int,
    views_per_scene: int,
    out_dir,
    seed: int,
    resolution: int = 32,
    image_size: tuple[int, int] = (64, 64),
) -> DatasetManifest:
    """Write a reproducible dataset; identical seeds give identical bytes."""
    if n_scenes < 1 or views_per_scene < 1:
        raise ValueError("need at least one scene and one view")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cam = default_intrinsics(*image_size)
    spec = VoxelGridSpec(resolution=resolution)
    for i in range(n_scenes):
        family = list(_FAMILIES)[i % len(_FAMILIES)]
        scene_seed = int(np.random.default_rng([seed, i]).integers(0, 2**31))
        scene = make_scene(family, scene_seed)
        poses = sample_poses(views_per_scene, np.random.default_rng([seed, i, 1]))
        images, depths = zip(*(render_view(scene, cam, pose) for pose in poses))
        occupancy = voxelize(scene, spec)
        if not occupancy.any():
            raise RuntimeError(f"scene {i} voxelizes to empty occupancy")
        write_scene(out_dir / f"scene_{i:04d}", np.stack(images), np.stack(depths),
                    [(cam, p) for p in poses], occupancy, _scene_meta(scene, scene_seed))
    return DatasetManifest.scan(out_dir)
