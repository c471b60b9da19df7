"""Differentiable transfer of features between image space and the voxel grid.

Three linear (in the feature values) operators; unproject and project each
have an explicit vector-Jacobian product:

  bilinear_sample   gather from a 2D map at continuous pixel coordinates
  unproject         replicate image features along viewing rays into the grid
                    by projecting every voxel center into the image
  project           sample the grid's nearest voxel on V equally spaced depth
                    planes along each pixel's ray: a (V, V, V, C) grid gives
                    (H, W, V * C), one ascending-z channel block per plane

_bilinear_corners is the package's one image-sampling rule: one corner
table, four (index, weight) pairs per point, with two consumers.
bilinear_sample (through which the classical plane_sweep_depth reads
images) gathers from it, 0.0 + w0 f[i0] + w1 f[i1] + w2 f[i2] + w3 f[i3];
unproject (through which the classical visual_hull reads masks) builds its
sampling matrix S from it, and a CSR product adds the same terms in the
same order, so both read the same bits. Its edge rule: a sample is zero
unless its point lies inside [0, W-1] x [0, H-1]; a point only partly
outside, or with a NaN or infinite coordinate, reads zero, exactly +0.0
for a finite map.
bilinear_sample has no public VJP: its adjoint is S.T, which
unproject_vjp applies itself. plane_depths is likewise the one placement
of depth planes, shared with the plane sweep.

Feature maps are (H, W, C) arrays, feature grids (V, V, V, C) arrays indexed
like voxel_centers (axis 0 = x). Samples that fall outside the image or the
grid cube contribute zeros; gradients are taken with respect to feature
values only, never camera parameters or sample coordinates.

unproject and project are each one sparse sampling matrix S (scipy CSR),
with one row per sample and one column per map pixel or grid voxel; a row
holds the sample's bilinear weights, or project's one nearest voxel, and an
invalid sample is a zero row. The forward is S @ values.reshape(-1, C) and
the VJP is S.T @ upstream, so the adjoint identity holds by construction.
unproject's product is its output: S times the map with one zero column
appended per geometric channel, whose feature columns are the row sums of
S @ values; the geometric channels are then written over the zero columns.
CSR products add each output's terms in a fixed order, so forwards and
gradients repeat bitwise. project's rows run over (pixel row, pixel column,
plane), so its (H, W, V * C) output is a plain reshape of S @ grid, and
its VJP's upstream a plain reshape to (H * W * V, C).

compare_exchange_sort is the package's one elementwise sort: an odd-even
transposition network of np.minimum / np.maximum over a list of
equal-shape arrays. tape.mean_stack calls it on one flat block of the views
at a time and adds its output in ascending order, so the mean does not
depend on the order of the views and its scratch is a few blocks, not a
few grids; the plane sweep takes its best view scores from the top of it.

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


def compare_exchange_sort(arrays):
    """Elementwise ascending sort of equal-shape arrays, as a new list.

    An odd-even transposition network: len(arrays) rounds of np.minimum /
    np.maximum between neighbours, so out[i] holds at each position the
    i-th smallest of the inputs' values there, and no stacked copy is made.
    Unlike np.sort, which puts NaN last, a NaN spreads through every
    exchange it meets, and -0.0 and +0.0 compare equal, so either may come
    out; an ascending sum that starts from +0.0 is unaffected by the latter.
    """
    out = list(arrays)
    for start in range(len(out)):
        for i in range(start % 2, len(out) - 1, 2):
            a, b = out[i], out[i + 1]
            # after the first round every out[i] with i < len - 1 is an array
            # made here, so the maximum overwrites it once the minimum is read
            out[i], out[i + 1] = np.minimum(a, b), np.maximum(a, b, out=a if start else None)
    return out


def _sampling_matrix(lin, weights, n_cols):
    """CSR matrix whose row n holds weights[n, k] at column lin[n, k].

    lin and weights are (N, K), so flattened in row order they are the CSR
    index and data arrays; a row of zero weights samples zero.
    """
    n, k = lin.shape
    return csr_array((weights.reshape(-1), lin.reshape(-1), np.arange(0, n * k + 1, k)),
                     shape=(n, n_cols))


def _bilinear_corners(fmap_shape, pts, valid=True):
    """Corner table (lin, weights), each (4, N), of bilinear sampling.

    Column n holds the linear indices and weights of the four corners
    (v0u0, v0u1, v1u0, v1u1) of pts[n] over the row-major map; its weights
    are zero unless pts[n] lies inside [0, W-1] x [0, H-1] and valid[n]
    holds. Coordinates are clamped first, so every index is in range: the
    lower corner stops one short of the last row and column, where the upper
    corner takes the whole weight. A NaN coordinate clamps to 0, so its
    point takes index 0 and zero weights, and a NaN or infinite point reads
    exactly +0.0 from a finite map. A clamped coordinate of -0.0 is +0.0, so
    the table's bytes do not depend on where in the array a point sits.
    """
    h, w = fmap_shape[0], fmap_shape[1]
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    u, v = pts[:, 0], pts[:, 1]
    # fmax/fmin drop a NaN where np.clip would keep it; fmax(-0.0, 0) is +0.0
    # in numpy's SIMD body and -0.0 in its scalar tail, and + 0.0 makes both +0.0
    uc = np.fmin(np.fmax(u, 0), w - 1)
    uc += 0.0
    vc = np.fmin(np.fmax(v, 0), h - 1)
    vc += 0.0
    keep = uc == u
    keep &= vc == v
    keep &= valid
    u0 = uc.astype(np.int64)  # uc, vc >= 0: the cast truncates to the floor
    v0 = vc.astype(np.int64)
    np.minimum(u0, max(w - 2, 0), out=u0)
    np.minimum(v0, max(h - 2, 0), out=v0)
    du = np.subtract(uc, u0, out=uc)
    dv = np.subtract(vc, v0, out=vc)
    # a map one pixel wide (high) has no second column (row); du (dv) is 0
    step_u, step_v = min(1, w - 1), w * min(1, h - 1)
    v0 *= w
    v0 += u0
    lin = v0 + np.array([[0], [step_u], [step_v], [step_v + step_u]])
    weights = np.empty((4, len(pts)))
    eu, ev = np.subtract(1, du, out=weights[0]), np.subtract(1, dv, out=weights[3])
    np.multiply(du, ev, out=weights[1])
    np.multiply(eu, dv, out=weights[2])
    np.multiply(eu, ev, out=weights[0])
    np.multiply(du, dv, out=weights[3])
    # indexing the dropped columns took half the time of a where= broadcast
    # over (4, N), and a boolean index 1.5 times as long; scaling by keep
    # would keep the sign of a -0.0 factor, which a -0.0 coordinate gives
    weights[:, np.flatnonzero(~keep)] = 0.0
    return lin, weights


def _bilinear_matrix(fmap_shape, pts, valid=True):
    """Sampling matrix (N, H * W): row n is column n of the corner table."""
    lin, weights = _bilinear_corners(fmap_shape, pts, valid)
    return _sampling_matrix(lin.T, weights.T, fmap_shape[0] * fmap_shape[1])


def bilinear_sample(fmap: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) at continuous (u, v) points (N, 2) into (N, C).

    A sample is zero unless its point lies inside [0, W-1] x [0, H-1]; a
    point only partly outside, or not finite, reads zero.
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    h, w, c = fmap.shape
    lin, weights = _bilinear_corners(fmap.shape, pts)
    terms = np.take(fmap.reshape(h * w, c), lin, axis=0)
    terms *= weights[..., None]
    # 0.0 + w0 f[i0] + w1 f[i1] + ...: the terms and order of the CSR product
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out


def _unproject_geometry(fmap_shape, cam: Intrinsics, pose: Pose, spec: VoxelGridSpec):
    """Voxel centers, their camera depths and unproject's sampling matrix."""
    if tuple(fmap_shape[:2]) != (cam.height, cam.width):
        raise ValueError(f"map of (H, W) {tuple(fmap_shape[:2])} for a camera of "
                         f"(H, W) {(cam.height, cam.width)}")
    centers = voxel_centers(spec)
    uv, z, valid = project_points(centers, cam, pose)
    return centers, z, _bilinear_matrix(fmap_shape, uv, valid)


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
    are filled for every voxel regardless of projection validity. The map
    gets a zero column per geometric channel, so the product of S with it
    is the output, and the sampling matrix is freed before the geometric
    channels are written over their zero columns.
    """
    fmap = np.asarray(fmap, dtype=np.float64)
    h, w, c = fmap.shape
    v = spec.resolution
    centers, z, s = _unproject_geometry(fmap.shape, cam, pose, spec)
    out = s @ np.pad(fmap.reshape(h * w, c), ((0, 0), (0, gcfg.out_channels(c) - c)))
    del s
    if gcfg.geometric:
        out[:, c] = z
        # one column at a time: a broadcast over the length-3 last axis runs
        # numpy's inner loop once per voxel; the norm sums in np.linalg.norm's order
        rays = [centers[:, j] - pose.camera_center[j] for j in range(3)]
        norms = np.sqrt(rays[0] * rays[0] + rays[1] * rays[1] + rays[2] * rays[2])
        live = norms > 0
        for j, ray in enumerate(rays):
            np.divide(ray, norms, out=out[:, c + 1 + j], where=live)
    return out.reshape(v, v, v, -1)


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


def plane_depths(pose: Pose, n_planes: int) -> tuple[np.ndarray, float]:
    """Midpoint depth samples of camera_z_range(pose) and their spacing."""
    if n_planes < 1:
        raise ValueError(f"n_planes must be >= 1, got {n_planes}")
    z_near, z_far = camera_z_range(pose)
    spacing = (z_far - z_near) / n_planes
    return z_near + (np.arange(n_planes) + 0.5) * spacing, spacing


def _project_matrix(grid_shape, cam: Intrinsics, pose: Pose):
    """Sampling matrix (H * W * V, V^3) of project on a grid of grid_shape.

    Rows run over (row, column, plane) of the pixel raster and the V depth
    planes; each holds a 1 at the sample's nearest voxel if that is in the grid.
    """
    if len(grid_shape) != 4 or not grid_shape[0] == grid_shape[1] == grid_shape[2]:
        raise ValueError(f"grid of shape {tuple(grid_shape)} is not (V, V, V, C)")
    v = grid_shape[0]
    z_values, _ = plane_depths(pose, v)
    points = backproject(pixel_grid(cam)[:, :, None], z_values, cam, pose)
    idx = nearest_index(VoxelGridSpec(v).world_to_grid(points.reshape(-1, 3)))
    inside = ((idx >= 0) & (idx < v)).all(axis=1, keepdims=True)
    lin = (idx[:, :1] * v + idx[:, 1:2]) * v + idx[:, 2:]
    return _sampling_matrix(np.where(inside, lin, 0), inside.astype(np.float64), v ** 3)


def project(grid: np.ndarray, cam: Intrinsics, pose: Pose) -> np.ndarray:
    """Sample a (V, V, V, C) grid along each pixel's ray at V depths.

    V is the grid's edge. Returns (H, W, V * C) with plane k's channels at
    [k*C, (k+1)*C), ascending in z. Samples outside the grid cube are zero.
    """
    grid = np.asarray(grid, dtype=np.float64)
    s = _project_matrix(grid.shape, cam, pose)
    return (s @ grid.reshape(-1, grid.shape[3])).reshape(cam.height, cam.width, -1)


def project_vjp(grid: np.ndarray, cam: Intrinsics, pose: Pose,
                upstream: np.ndarray) -> np.ndarray:
    """Gradient of <project(grid, ...), upstream> w.r.t. grid values."""
    shape = np.shape(grid)
    s = _project_matrix(shape, cam, pose)
    up = np.asarray(upstream, dtype=np.float64).reshape(-1, shape[3])
    return (s.T @ up).reshape(shape)
