"""Pinhole cameras and metric voxel grids.

Conventions, fixed once for the whole package:

World frame:
  - Right handed. Generated scenes treat +y as up, but nothing here depends
    on that choice.

Camera frame (standard computer vision):
  - x right, y down, z forward; the camera looks down +z.
  - Extrinsics are world -> camera: X_cam = R @ X_world + t.
  - The camera center in world coordinates is -R.T @ t.

Pixels:
  - (u, v) = (column, row). Integer coordinates sit at sample centers;
    (0, 0) is the center of the top-left pixel, (width-1, height-1) the
    center of the bottom-right pixel.
  - u = fx * x_cam / z_cam + cx,  v = fy * y_cam / z_cam + cy.
  - Back-projection of pixel (u, v) at depth z inverts both maps:
    X_world = R.T @ (z * ((u - cx) / fx, (v - cy) / fy, 1) - t).

Depth is camera-frame z in world length units. Points with z <= Z_EPS are
behind (or numerically on) the camera plane and project invalidly.

Voxel grid:
  - Scenes live in the unit cube [-0.5, 0.5]^3 centred at the world origin,
    and every voxel grid splits exactly that cube; only its resolution
    varies. The plane sweep's depth range (camera_z_range over CUBE_CORNERS),
    evalkit's depth window (sqrt(3)/2 about the origin) and synthgen's scene
    bounds all rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Behind-camera rejection threshold, world units.
Z_EPS = 1e-6

# Orthonormality tolerance for rotation matrices.
_ROT_TOL = 1e-9

# World "up" of look_at's images.
_UP = np.array([0.0, 1.0, 0.0])

# The 8 corners of the unit cube at the origin, shape (8, 3).
CUBE_CORNERS = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (float(self.width).is_integer() and float(self.height).is_integer()):
            raise ValueError(f"width and height must be integers, "
                             f"got {self.width!r} and {self.height!r}")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )


@dataclass(frozen=True, eq=False)
class Pose:
    """World -> camera rigid transform: X_cam = rotation @ X_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        for name, value in (("rotation", r), ("translation", t)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has non-finite entries: {value.tolist()}")
        if not np.allclose(r.T @ r, np.eye(3), atol=_ROT_TOL):
            raise ValueError("rotation is not orthonormal")
        if not np.isclose(np.linalg.det(r), 1.0, atol=_ROT_TOL):
            raise ValueError(f"rotation determinant {np.linalg.det(r)} != 1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def camera_center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def transform(self, points: np.ndarray) -> np.ndarray:
        """World points (..., 3) to camera frame."""
        # a C-ordered R.T takes BLAS's faster no-transpose path, with the same
        # sums; the translation is added one column at a time, since a
        # broadcast over the length-3 last axis runs numpy's inner loop per point
        x_cam = np.asarray(points) @ np.ascontiguousarray(self.rotation.T)
        for j in range(3):
            x_cam[..., j] += self.translation[j]
        return x_cam


@dataclass(frozen=True, eq=False)
class VoxelGridSpec:
    """The unit cube at the origin split into resolution^3 voxels.

    Voxel (i, j, k) indexes (x, y, z); its center is
    (index + 0.5) / resolution - 0.5 per axis.
    """

    resolution: int = 32

    def __post_init__(self):
        if not (float(self.resolution).is_integer() and self.resolution >= 1):
            raise ValueError(f"resolution must be an integer >= 1, got {self.resolution!r}")
        object.__setattr__(self, "resolution", int(self.resolution))

    def axis_centers(self) -> np.ndarray:
        """Voxel center coordinates along any one axis."""
        v = self.resolution
        return (np.arange(v) + 0.5) / v - 0.5

    def world_to_grid(self, points: np.ndarray) -> np.ndarray:
        """Continuous grid coordinates: voxel center i maps exactly to i."""
        return (np.asarray(points, dtype=np.float64) + 0.5) * self.resolution - 0.5


def project_points(
    points: np.ndarray, cam: Intrinsics, pose: Pose
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world points (N, 3) -> pixel coords (N, 2), depths (N,), valid (N,).

    valid is True iff z > Z_EPS and (u, v) lies inside
    [0, width-1] x [0, height-1]. For z <= Z_EPS the (u, v) entries are
    computed against a clamped depth and carry no meaning.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x_cam = pose.transform(pts)
    z = x_cam[:, 2]
    in_front = z > Z_EPS
    z_safe = np.where(in_front, z, 1.0)
    uv = np.empty((len(pts), 2))
    valid = in_front  # narrowed in place to the points inside the image
    for j, (f, c, size) in enumerate(((cam.fx, cam.cx, cam.width), (cam.fy, cam.cy, cam.height))):
        coord = f * x_cam[:, j]  # f * x / z + c, then written into its column of uv
        coord /= z_safe
        coord += c
        uv[:, j] = coord
        valid &= coord >= 0
        valid &= coord <= size - 1
    return uv, z, valid


def _camera_rays(uv: np.ndarray, cam: Intrinsics) -> np.ndarray:
    """Camera-frame points ((u - cx) / fx, (v - cy) / fy, 1) for pixels uv (..., 2)."""
    return np.stack([(uv[..., 0] - cam.cx) / cam.fx, (uv[..., 1] - cam.cy) / cam.fy,
                     np.ones(uv.shape[:-1])], axis=-1)


def backproject(uv: np.ndarray, z: np.ndarray, cam: Intrinsics, pose: Pose) -> np.ndarray:
    """World points at camera depth z on the rays through pixels uv.

    uv (..., 2) broadcasts against z (...); returns (..., 3). Inverse of
    project_points for z > Z_EPS.
    """
    z = np.asarray(z, dtype=np.float64)
    x_cam = _camera_rays(np.asarray(uv, dtype=np.float64), cam) * z[..., None]
    for j in range(3):  # per column, as in Pose.transform
        x_cam[..., j] -= pose.translation[j]
    return x_cam @ pose.rotation  # R.T @ (x_cam - t), row form


def pixel_grid(cam: Intrinsics) -> np.ndarray:
    """(u, v) of every pixel center, shape (H, W, 2)."""
    uu, vv = np.meshgrid(np.arange(cam.width, dtype=np.float64),
                         np.arange(cam.height, dtype=np.float64))
    return np.stack([uu, vv], axis=-1)


def voxel_centers(spec: VoxelGridSpec) -> np.ndarray:
    """Centers of all voxels, shape (V^3, 3), index i slowest (row-major)."""
    c = spec.axis_centers()
    gx, gy, gz = np.meshgrid(c, c, c, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)


def rays_through_pixels(
    uv: np.ndarray, cam: Intrinsics, pose: Pose
) -> tuple[np.ndarray, np.ndarray]:
    """World-frame rays for pixel coords (N, 2).

    Returns (origin (3,), directions (N, 3)); directions are unit length and
    the origin is the camera center shared by all rays.
    """
    d_cam = _camera_rays(np.atleast_2d(np.asarray(uv, dtype=np.float64)), cam)
    d_world = d_cam @ pose.rotation  # R.T applied to each row
    d_world /= np.linalg.norm(d_world, axis=1, keepdims=True)
    return pose.camera_center, d_world


def camera_z_range(pose: Pose) -> tuple[float, float]:
    """Camera-frame depth interval covering the unit cube at the origin.

    z_near = max(Z_EPS, min corner depth), z_far = max corner depth; z_far is
    clamped so z_near <= z_far even for a cube entirely behind the camera.
    """
    z = pose.transform(CUBE_CORNERS)[:, 2]
    z_near = max(Z_EPS, float(z.min()))
    z_far = max(z_near, float(z.max()))
    return z_near, z_far


def look_at(position, target) -> Pose:
    """Pose of a camera at `position` looking toward `target`.

    Uses the y-down camera convention above with world +y as the image's
    "up", falling back to +z (or +x) when the viewing direction is parallel
    to +y.
    """
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    n = np.linalg.norm(forward)
    if n == 0:
        raise ValueError("camera position coincides with target")
    z_c = forward / n
    x_c = np.cross(z_c, _UP)
    if np.linalg.norm(x_c) < 1e-8:  # looking straight along up
        up = np.array([0.0, 0.0, 1.0]) if abs(z_c[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        x_c = np.cross(z_c, up)
    x_c /= np.linalg.norm(x_c)
    y_c = np.cross(z_c, x_c)
    r = np.stack([x_c, y_c, z_c], axis=0)
    return Pose(rotation=r, translation=-r @ position)


def scale_intrinsics(cam: Intrinsics, width: int, height: int) -> Intrinsics:
    """Intrinsics for the same camera resampled to width x height.

    Respects the pixel-center convention: continuous coordinate u maps to
    (u + 0.5) * scale - 0.5.
    """
    sx = width / cam.width
    sy = height / cam.height
    return Intrinsics(
        fx=cam.fx * sx,
        fy=cam.fy * sy,
        cx=(cam.cx + 0.5) * sx - 0.5,
        cy=(cam.cy + 0.5) * sy - 0.5,
        width=width,
        height=height,
    )
