"""Differentiable transfer of features between image space and the voxel grid.

Three linear (in the feature values) operators, each with an explicit
vector-Jacobian product:

  bilinear_sample   gather from a 2D map at continuous pixel coordinates
  unproject         replicate image features along viewing rays into the grid
                    by projecting every voxel center into the image
  project           sample the grid on equally spaced depth planes along each
                    pixel's ray and stack the samples in ascending-z channel
                    blocks

bilinear_sample is the package's one image sampler: unproject, and the
classical visual_hull and plane_sweep_depth, all read images through it.
Its edge rule: a sample is zero unless its point lies inside
[0, W-1] x [0, H-1], and its valid flag marks exactly those points; a
point only partly outside reads zero. plane_depths is likewise the one
placement of depth planes, shared with the plane sweep.

Feature maps are (H, W, C) arrays, feature grids (V, V, V, C) arrays indexed
like voxel_centers (axis 0 = x). Samples that fall outside the image or the
grid cube contribute zeros; gradients are taken with respect to feature
values only, never camera parameters or sample coordinates. Both VJPs
scatter with one np.bincount in a fixed order, so gradients are bitwise
reproducible.

Nearest-neighbor grid lookup rounds half-down (floor(x + 0.5 - eps)) so that
tie-breaking is identical on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (Intrinsics, Pose, VoxelGridSpec, backproject, camera_z_range,
                       pixel_grid, project_points, voxel_centers)

# Tie-break nudge for nearest-neighbor rounding; half-integer coordinates
# round down.
_TIE_EPS = 1e-9


@dataclass(frozen=True)
class GeomFeatureConfig:
    """Geometric channels appended during unprojection."""

    append_depth: bool = False
    append_ray_dir: bool = False

    def out_channels(self, c_in: int) -> int:
        return c_in + int(self.append_depth) + 3 * int(self.append_ray_dir)


def _bilinear_corners(fmap_shape, pts):
    """Flat indices and weights of the four bilinear interpolation corners.

    Returns (idx, weights, valid): idx and weights are 4-tuples of (N,)
    arrays for the corners (v0u0, v0u1, v1u0, v1u1), idx into the
    row-major (H * W) map; valid marks points inside [0, W-1] x [0, H-1].
    Coordinates are clamped first, so every index is in range: the lower
    corner stops one short of the last row and column, where the upper
    corner takes the whole weight.
    """
    h, w = fmap_shape[0], fmap_shape[1]
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    u, v = pts[:, 0], pts[:, 1]
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    u0 = np.clip(np.floor(uc).astype(np.int64), 0, max(w - 2, 0))
    v0 = np.clip(np.floor(vc).astype(np.int64), 0, max(h - 2, 0))
    du = uc - u0
    dv = vc - v0
    # a map one pixel wide (high) has no second column (row); du (dv) is 0
    step_u, step_v = min(1, w - 1), w * min(1, h - 1)
    i00 = v0 * w + u0
    idx = (i00, i00 + step_u, i00 + step_v, i00 + step_v + step_u)
    weights = ((1 - du) * (1 - dv), du * (1 - dv), (1 - du) * dv, du * dv)
    return idx, weights, valid


def _scatter_add(lin, weights, upstream, n_bins):
    """Sum of weights[k, n] * upstream[n] into row lin[k, n] of (n_bins, C).

    One np.bincount in (corner, point, channel) order: every bin adds its
    terms corner by corner, each corner in point order, on every run.
    """
    c = upstream.shape[1]
    idx = lin[..., None] * c + np.arange(c)
    vals = weights[..., None] * upstream
    return np.bincount(idx.reshape(-1), weights=vals.reshape(-1),
                       minlength=n_bins * c).reshape(n_bins, c)


def bilinear_sample(fmap: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample (H, W, C) at continuous (u, v) points (N, 2).

    valid[n] is True iff pts[n] lies inside [0, W-1] x [0, H-1]; every
    other sample is zero, including points only partly outside.
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    h, w, c = fmap.shape
    idx, weights, valid = _bilinear_corners(fmap.shape, pts)
    flat = fmap.reshape(h * w, c)
    out = weights[0][:, None] * flat[idx[0]]
    for k in range(1, 4):
        out += weights[k][:, None] * flat[idx[k]]
    return np.where(valid[:, None], out, 0.0), valid


def bilinear_sample_vjp(fmap: np.ndarray, pts: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of <bilinear_sample(fmap, pts), upstream> w.r.t. fmap."""
    h, w, c = np.shape(fmap)
    upstream = np.asarray(upstream, dtype=np.float64).reshape(-1, c)
    idx, weights, valid = _bilinear_corners((h, w), pts)
    weights = np.where(valid, np.stack(weights), 0.0)
    return _scatter_add(np.stack(idx), weights, upstream, h * w).reshape(h, w, c)


def _unproject_geometry(cam: Intrinsics, pose: Pose, spec: VoxelGridSpec):
    centers = voxel_centers(spec)
    uv, z, valid = project_points(centers, cam, pose)
    return centers, uv, z, valid


def unproject(
    fmap: np.ndarray,
    cam: Intrinsics,
    pose: Pose,
    spec: VoxelGridSpec,
    gcfg: GeomFeatureConfig = GeomFeatureConfig(),
) -> np.ndarray:
    """Lift a (H, W, C) map into a (V, V, V, C') grid along viewing rays.

    Every voxel center is projected into the image and bilinearly sampled;
    invalid projections (behind the camera or out of frame) get zero
    features. Geometric channels (camera depth, unit world ray direction)
    are filled for every voxel regardless of projection validity.
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    v = spec.resolution
    centers, uv, z, valid = _unproject_geometry(cam, pose, spec)
    vals, _ = bilinear_sample(fmap, uv)
    vals[~valid] = 0.0
    parts = [vals]
    if gcfg.append_depth:
        parts.append(z[:, None])
    if gcfg.append_ray_dir:
        rays = centers - pose.camera_center
        norms = np.linalg.norm(rays, axis=1, keepdims=True)
        parts.append(np.divide(rays, norms, out=np.zeros_like(rays), where=norms > 0))
    return np.concatenate(parts, axis=1).reshape(v, v, v, -1)


def unproject_vjp(
    fmap: np.ndarray,
    cam: Intrinsics,
    pose: Pose,
    spec: VoxelGridSpec,
    gcfg: GeomFeatureConfig,
    upstream: np.ndarray,
) -> np.ndarray:
    """Gradient of <unproject(fmap, ...), upstream> w.r.t. fmap.

    Geometric channels do not touch fmap and contribute nothing.
    """
    fmap = np.asarray(fmap)
    c_in = fmap.shape[2]
    _, uv, _, valid = _unproject_geometry(cam, pose, spec)
    up = np.asarray(upstream, dtype=np.float64).reshape(-1, gcfg.out_channels(c_in))
    up_feat = up[:, :c_in] * valid[:, None]
    return bilinear_sample_vjp(fmap, uv, up_feat)


def plane_depths(
    spec: VoxelGridSpec, cam: Intrinsics, pose: Pose, n_planes: int
) -> tuple[np.ndarray, float]:
    """Midpoint depth samples of [z_near, z_far] and their spacing."""
    z_near, z_far = camera_z_range(spec, cam, pose)
    spacing = (z_far - z_near) / n_planes
    return z_near + (np.arange(n_planes) + 0.5) * spacing, spacing


def _project_geometry(spec: VoxelGridSpec, cam: Intrinsics, pose: Pose, n_planes: int,
                      interp: str):
    """Flat voxel indices and weights of the ray samples of project.

    Samples run over (plane, row, column) of the pixel raster. Returns
    (lin, weights), each (n_corners, N_z * H * W); out-of-grid corners carry
    weight 0 and index 0.
    """
    z_values, _ = plane_depths(spec, cam, pose, n_planes)
    points = backproject(pixel_grid(cam), z_values[:, None, None], cam, pose)
    v = spec.resolution
    g = spec.world_to_grid(points.reshape(-1, 3))
    if interp == "nearest":
        idx = np.floor(g + 0.5 - _TIE_EPS).astype(np.int64)[None]
        weights = np.ones((1, len(g)))
    elif interp == "trilinear":
        g0 = np.floor(g).astype(np.int64)
        frac = g - g0
        corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        idx = g0[None] + corners[:, None, :]
        w = np.where(corners[:, None, :] == 1, frac[None], 1.0 - frac[None])
        weights = w.prod(axis=2)
    else:
        raise ValueError(f"unknown interpolation {interp!r}")
    inside = ((idx >= 0) & (idx < v)).all(axis=2)
    lin = (idx[..., 0] * v + idx[..., 1]) * v + idx[..., 2]
    return np.where(inside, lin, 0), np.where(inside, weights, 0.0)


def project(
    grid: np.ndarray,
    spec: VoxelGridSpec,
    cam: Intrinsics,
    pose: Pose,
    n_planes: int = 32,
    interp: str = "nearest",
) -> np.ndarray:
    """Sample a (V, V, V, C) grid along each pixel's ray at n_planes depths.

    Returns (H, W, n_planes * C) with plane k's channels at
    [k*C, (k+1)*C), ascending in z. Samples outside the grid cube are zero.
    """
    grid = np.asarray(grid, dtype=np.float64)
    c = grid.shape[3]
    lin, weights = _project_geometry(spec, cam, pose, n_planes, interp)
    out = np.einsum("kn,knc->nc", weights, grid.reshape(-1, c)[lin])
    # (N_z, H, W, C) -> (H, W, N_z * C)
    return out.reshape(n_planes, cam.height, cam.width, c).transpose(1, 2, 0, 3).reshape(
        cam.height, cam.width, n_planes * c
    )


def project_vjp(
    grid: np.ndarray,
    spec: VoxelGridSpec,
    cam: Intrinsics,
    pose: Pose,
    n_planes: int,
    interp: str,
    upstream: np.ndarray,
) -> np.ndarray:
    """Gradient of <project(grid, ...), upstream> w.r.t. grid values."""
    shape = np.shape(grid)
    c = shape[3]
    lin, weights = _project_geometry(spec, cam, pose, n_planes, interp)
    up = np.asarray(upstream, dtype=np.float64).reshape(
        cam.height, cam.width, n_planes, c
    ).transpose(2, 0, 1, 3).reshape(-1, c)
    return _scatter_add(lin, weights, up, spec.resolution ** 3).reshape(shape)
