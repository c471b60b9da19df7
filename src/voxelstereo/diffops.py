"""Differentiable transfer of features between image space and the voxel grid.

Three linear (in the feature values) operators; unproject and project each
have an explicit vector-Jacobian product:

  bilinear_sample   gather from a 2D map at continuous pixel coordinates
  unproject         replicate image features along viewing rays into the grid
                    by projecting every voxel center into the image
  project           sample the grid's nearest voxel on equally spaced depth
                    planes along each pixel's ray and stack the samples in
                    ascending-z channel blocks

_bilinear_matrix is the package's one image-sampling rule:
bilinear_sample (through which the classical plane_sweep_depth reads
images) and unproject (through which the classical visual_hull reads
masks) both build their sampling matrix with it. Its edge rule: a sample
is zero unless its point lies inside [0, W-1] x [0, H-1], and its valid
flag marks exactly those points; a point only partly outside reads zero.
bilinear_sample has no public VJP: its adjoint is S.T, which
unproject_vjp applies itself. plane_depths is likewise the one placement
of depth planes, shared with the plane sweep.

Feature maps are (H, W, C) arrays, feature grids (V, V, V, C) arrays indexed
like voxel_centers (axis 0 = x). Samples that fall outside the image or the
grid cube contribute zeros; gradients are taken with respect to feature
values only, never camera parameters or sample coordinates.

Each operator is one sparse sampling matrix S (scipy CSR), with one row per
sample and one column per map pixel or grid voxel; a row holds the sample's
bilinear weights, or project's one nearest voxel, and an invalid sample is a
zero row. The forward is S @ values.reshape(-1, C) and the VJP is S.T @
upstream, so the adjoint identity holds by construction. CSR products add
each output's terms in a fixed order, so forwards and gradients repeat
bitwise. project's rows run over (pixel row, pixel column, plane), so its
(H, W, N_z * C) output is a plain reshape of S @ grid, and its VJP's
upstream a plain reshape to (H * W * N_z, C).

nearest_index is the one nearest-neighbor rounding, used by project's grid
lookup and the classical cross-checked sweep's pixel lookup: it rounds
half down (floor(x + 0.5 - eps)), so that ties break the same way on every
platform, where np.round would round half to even.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .geometry import (Intrinsics, Pose, VoxelGridSpec, backproject, camera_z_range,
                       pixel_grid, project_points, voxel_centers)

# Tie-break nudge for nearest-neighbor rounding; half-integer coordinates
# round down.
_TIE_EPS = 1e-9


@dataclass(frozen=True)
class GeomFeatureConfig:
    """Whether unprojection appends, as LSM does, each voxel's camera depth
    and unit world viewing-ray direction (four channels, in that order)."""

    geometric: bool = False

    def out_channels(self, c_in: int) -> int:
        return c_in + 4 * self.geometric


def nearest_index(x: np.ndarray) -> np.ndarray:
    """Nearest integer to each coordinate as int64; half-integers round down."""
    return np.floor(x + 0.5 - _TIE_EPS).astype(np.int64)


def _sampling_matrix(lin, weights, n_cols):
    """CSR matrix whose row n holds weights[n, k] at column lin[n, k].

    lin and weights are (N, K) in row order, so they are the CSR index and
    data arrays as they stand; a row of zero weights samples zero.
    """
    n, k = lin.shape
    return csr_array((weights.reshape(-1), lin.reshape(-1), np.arange(0, n * k + 1, k)),
                     shape=(n, n_cols))


def _bilinear_matrix(fmap_shape, pts, valid=True):
    """Sampling matrix (N, H * W) of bilinear_sample, and its inside flags.

    Row n holds the four corner weights (v0u0, v0u1, v1u0, v1u1) of pts[n]
    over the row-major map; it is zero unless pts[n] lies inside
    [0, W-1] x [0, H-1] and valid[n] holds. Coordinates are clamped first,
    so every index is in range: the lower corner stops one short of the last
    row and column, where the upper corner takes the whole weight.
    """
    h, w = fmap_shape[0], fmap_shape[1]
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    u, v = pts[:, 0], pts[:, 1]
    inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    uc = np.clip(u, 0, w - 1)
    vc = np.clip(v, 0, h - 1)
    u0 = np.clip(np.floor(uc).astype(np.int64), 0, max(w - 2, 0))
    v0 = np.clip(np.floor(vc).astype(np.int64), 0, max(h - 2, 0))
    du = uc - u0
    dv = vc - v0
    # a map one pixel wide (high) has no second column (row); du (dv) is 0
    step_u, step_v = min(1, w - 1), w * min(1, h - 1)
    i00 = v0 * w + u0
    lin = np.stack([i00, i00 + step_u, i00 + step_v, i00 + step_v + step_u], axis=1)
    eu, ev = 1 - du, 1 - dv
    weights = np.empty((len(pts), 4))
    np.multiply(eu, ev, out=weights[:, 0])
    np.multiply(du, ev, out=weights[:, 1])
    np.multiply(eu, dv, out=weights[:, 2])
    np.multiply(du, dv, out=weights[:, 3])
    weights[~(inside & valid)] = 0.0
    return _sampling_matrix(lin, weights, h * w), inside


def bilinear_sample(fmap: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample (H, W, C) at continuous (u, v) points (N, 2).

    valid[n] is True iff pts[n] lies inside [0, W-1] x [0, H-1]; every
    other sample is zero, including points only partly outside.
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    h, w, c = fmap.shape
    s, valid = _bilinear_matrix(fmap.shape, pts)
    return s @ fmap.reshape(h * w, c), valid


def _unproject_geometry(fmap_shape, cam: Intrinsics, pose: Pose, spec: VoxelGridSpec):
    """Voxel centers, their camera depths and unproject's sampling matrix."""
    if tuple(fmap_shape[:2]) != (cam.height, cam.width):
        raise ValueError(f"map of (H, W) {tuple(fmap_shape[:2])} for a camera of "
                         f"(H, W) {(cam.height, cam.width)}")
    centers = voxel_centers(spec)
    uv, z, valid = project_points(centers, cam, pose)
    s, _ = _bilinear_matrix(fmap_shape, uv, valid)
    return centers, z, s


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
    h, w, c = fmap.shape
    v = spec.resolution
    centers, z, s = _unproject_geometry(fmap.shape, cam, pose, spec)
    parts = [s @ fmap.reshape(h * w, c)]
    if gcfg.geometric:
        rays = centers - pose.camera_center
        norms = np.linalg.norm(rays, axis=1, keepdims=True)
        parts += [z[:, None], np.divide(rays, norms, out=np.zeros_like(rays), where=norms > 0)]
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
    h, w, c = np.shape(fmap)
    _, _, s = _unproject_geometry((h, w), cam, pose, spec)
    up = np.asarray(upstream, dtype=np.float64).reshape(-1, gcfg.out_channels(c))
    return (s.T @ up[:, :c]).reshape(h, w, c)


def plane_depths(
    spec: VoxelGridSpec, cam: Intrinsics, pose: Pose, n_planes: int
) -> tuple[np.ndarray, float]:
    """Midpoint depth samples of [z_near, z_far] and their spacing."""
    if n_planes < 1:
        raise ValueError(f"n_planes must be >= 1, got {n_planes}")
    z_near, z_far = camera_z_range(spec, cam, pose)
    spacing = (z_far - z_near) / n_planes
    return z_near + (np.arange(n_planes) + 0.5) * spacing, spacing


def _project_matrix(spec: VoxelGridSpec, cam: Intrinsics, pose: Pose, n_planes: int):
    """Sampling matrix (H * W * N_z, V^3) of project.

    Rows run over (row, column, plane) of the pixel raster and the depth
    planes; each holds a 1 at the sample's nearest voxel if that is in the grid.
    """
    z_values, _ = plane_depths(spec, cam, pose, n_planes)
    points = backproject(pixel_grid(cam)[:, :, None], z_values, cam, pose)
    v = spec.resolution
    g = spec.world_to_grid(points.reshape(-1, 3))
    idx = nearest_index(g)
    inside = ((idx >= 0) & (idx < v)).all(axis=1, keepdims=True)
    lin = (idx[:, :1] * v + idx[:, 1:2]) * v + idx[:, 2:]
    return _sampling_matrix(np.where(inside, lin, 0), inside.astype(np.float64), v ** 3)


def project(
    grid: np.ndarray,
    spec: VoxelGridSpec,
    cam: Intrinsics,
    pose: Pose,
    n_planes: int,
) -> np.ndarray:
    """Sample a (V, V, V, C) grid along each pixel's ray at n_planes depths.

    Returns (H, W, n_planes * C) with plane k's channels at
    [k*C, (k+1)*C), ascending in z. Samples outside the grid cube are zero.
    """
    grid = np.asarray(grid, dtype=np.float64)
    c = grid.shape[3]
    s = _project_matrix(spec, cam, pose, n_planes)
    return (s @ grid.reshape(-1, c)).reshape(cam.height, cam.width, n_planes * c)


def project_vjp(
    grid: np.ndarray,
    spec: VoxelGridSpec,
    cam: Intrinsics,
    pose: Pose,
    n_planes: int,
    upstream: np.ndarray,
) -> np.ndarray:
    """Gradient of <project(grid, ...), upstream> w.r.t. grid values."""
    shape = np.shape(grid)
    s = _project_matrix(spec, cam, pose, n_planes)
    up = np.asarray(upstream, dtype=np.float64).reshape(-1, shape[3])
    return (s.T @ up).reshape(shape)
