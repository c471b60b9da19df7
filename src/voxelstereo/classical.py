"""Non-learned baselines: silhouette carving and ZNCC plane-sweep stereo.

The plane sweep scores fronto-parallel depth hypotheses (equally spaced in
reference-camera z, placed at bin midpoints of the depth range the unit
cube spans in the reference camera) by warping each other view onto the
reference via the plane-induced point transfer and correlating square
windows with zero-mean normalized cross correlation. Depth is
winner-take-all over planes with a single parabolic refinement across the
argmax neighborhood.

Image sampling (diffops.bilinear_sample), depth-plane placement
(diffops.plane_depths) and pixel back-projection (geometry.backproject)
are the ones the learned pipeline uses, and the visual hull reads its
masks through diffops.unproject, so both baselines see the same geometry
as the network.

Validity: a window score requires every warped sample of the window to land
inside the other view and both windows to carry variance above 1e-12; a
pixel is invalid when no plane collects the configured minimum number of
valid view scores. Textureless regions therefore drop out instead of
producing arbitrary depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import minimum_filter, uniform_filter

from .diffops import bilinear_sample, plane_depths, unproject
from .geometry import Intrinsics, Pose, VoxelGridSpec, backproject, pixel_grid, project_points

_VAR_EPS = 1e-12
_LUMA = np.array([0.299, 0.587, 0.114])


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Luminance conversion used for all matching."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image
    return image @ _LUMA


def zncc(patch_a: np.ndarray, patch_b: np.ndarray) -> tuple[float, bool]:
    """Zero-mean normalized cross correlation of two equal-size patches.

    Returns (score in [-1, 1], valid); invalid when either patch has
    variance below 1e-12.
    """
    a = np.asarray(patch_a, dtype=np.float64)
    b = np.asarray(patch_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"patch shapes differ: {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    var_a = (da * da).mean()
    var_b = (db * db).mean()
    if var_a < _VAR_EPS or var_b < _VAR_EPS:
        return 0.0, False
    score = (da * db).mean() / np.sqrt(var_a * var_b)
    return float(np.clip(score, -1.0, 1.0)), True


@dataclass(frozen=True)
class PlaneSweepConfig:
    """top_k_views: per plane, average the k best view scores instead of all
    valid ones. With cameras spread over the whole viewing sphere most
    surface points are occluded in several views, and averaging those in
    drowns the true peak; best-k averaging is the standard occlusion-robust
    variant. k is capped at the number of valid views."""

    window: int = 5
    n_planes: int = 300
    min_views_for_score: int = 1
    top_k_views: int = 3

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd >= 3, got {self.window}")
        if self.n_planes < 2:
            raise ValueError(f"need at least 2 planes, got {self.n_planes}")
        if self.top_k_views < 1:
            raise ValueError(f"top_k_views must be >= 1, got {self.top_k_views}")


def _window_stats(img, window):
    mean = uniform_filter(img, size=window, mode="constant")
    sq = uniform_filter(img * img, size=window, mode="constant")
    return mean, sq - mean * mean


def plane_sweep_depth(
    ref_image: np.ndarray,
    other_images: list[np.ndarray],
    ref_camera: tuple[Intrinsics, Pose],
    other_cameras: list[tuple[Intrinsics, Pose]],
    cfg: PlaneSweepConfig = PlaneSweepConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winner-take-all plane-sweep stereo for one reference view.

    Returns (depth, score, valid), each (H, W). Depth is reference-camera z.
    """
    if not other_images:
        raise ValueError("need at least one non-reference view")
    if len(other_images) != len(other_cameras):
        raise ValueError(
            f"{len(other_images)} other images for {len(other_cameras)} other cameras")
    cam, pose = ref_camera
    h, w = cam.height, cam.width
    ref = to_grayscale(ref_image)
    if ref.shape != (h, w):
        raise ValueError(f"reference image {ref.shape} does not match camera {(h, w)}")

    z_planes, spacing = plane_depths(VoxelGridSpec(), cam, pose, cfg.n_planes)

    ref_mean, ref_var = _window_stats(ref, cfg.window)
    ref_textured = ref_var >= _VAR_EPS

    pixels = pixel_grid(cam).reshape(-1, 2)
    grays = [to_grayscale(im) for im in other_images]
    score_volume = np.full((cfg.n_planes, h, w), -np.inf)

    for k_plane, z in enumerate(z_planes):
        pts_world = backproject(pixels, z, cam, pose)
        view_scores = np.full((len(grays), h, w), -np.inf)
        for j, (gray, (ocam, opose)) in enumerate(zip(grays, other_cameras)):
            uv, z_o, _ = project_points(pts_world, ocam, opose)
            warped, sample_ok = bilinear_sample(gray[..., None], uv)
            warped = warped.reshape(h, w)
            sample_ok = (sample_ok & (z_o > 0)).reshape(h, w)
            # whole window must be sampled validly
            window_ok = minimum_filter(sample_ok.astype(np.uint8), size=cfg.window,
                                       mode="constant") > 0
            w_mean, w_var = _window_stats(warped, cfg.window)
            cross = uniform_filter(ref * warped, size=cfg.window, mode="constant")
            cov = cross - ref_mean * w_mean
            ok = window_ok & ref_textured & (w_var >= _VAR_EPS)
            denom = np.sqrt(np.where(ok, ref_var * w_var, 1.0))
            view_scores[j] = np.where(ok, np.clip(cov / denom, -1.0, 1.0), -np.inf)
        n_valid = np.isfinite(view_scores).sum(axis=0)
        enough = n_valid >= cfg.min_views_for_score
        # sum of the k best valid view scores over a fixed denominator k:
        # a plane seen validly by fewer views cannot outscore one with full
        # support on a single chance correlation
        k = min(cfg.top_k_views, len(grays))
        ranked = -np.sort(-view_scores, axis=0)[:k]
        top_sum = np.where(np.isfinite(ranked), ranked, 0.0).sum(axis=0)
        score_volume[k_plane] = np.where(enough, top_sum / k, -np.inf)

    valid = np.isfinite(score_volume).any(axis=0)
    best_k = np.argmax(score_volume, axis=0)
    best_score = np.take_along_axis(score_volume, best_k[None], axis=0)[0]

    # parabolic refinement over (k-1, k, k+1) where all three are finite
    depth = z_planes[best_k]
    interior = (best_k > 0) & (best_k < cfg.n_planes - 1) & valid
    km = np.clip(best_k - 1, 0, cfg.n_planes - 1)
    kp = np.clip(best_k + 1, 0, cfg.n_planes - 1)
    s_m = np.take_along_axis(score_volume, km[None], axis=0)[0]
    s_p = np.take_along_axis(score_volume, kp[None], axis=0)[0]
    refinable = interior & np.isfinite(s_m) & np.isfinite(s_p)
    s_m = np.where(refinable, s_m, 0.0)
    s_p = np.where(refinable, s_p, 0.0)
    s_0 = np.where(refinable, best_score, 0.0)
    denom = s_m - 2.0 * s_0 + s_p
    safe = refinable & (np.abs(denom) > 1e-12)
    offset = np.where(safe, 0.5 * (s_m - s_p) / np.where(safe, denom, 1.0), 0.0)
    depth += np.clip(offset, -0.5, 0.5) * spacing

    depth = np.where(valid, depth, 0.0)
    best_score = np.where(valid, best_score, 0.0)
    return depth, best_score, valid


def cross_checked_sweep(
    images: list[np.ndarray],
    cameras: list[tuple[Intrinsics, Pose]],
    ref_index: int,
    cfg: PlaneSweepConfig = PlaneSweepConfig(),
    tol_planes: float = 3.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plane sweep for one view with cross-view consistency validation.

    A second sweep is run from the camera nearest the reference; reference
    pixels whose 3D point disagrees with the partner's depth estimate by
    more than tol_planes plane spacings are invalidated. This is the
    classical fix for foreground fattening at occluding contours, where
    window matching is confidently wrong.
    """
    if len(images) != len(cameras):
        raise ValueError(f"{len(images)} images for {len(cameras)} cameras")
    if len(images) < 2:
        raise ValueError("cross-checked sweep needs at least two views")

    def sweep(index):
        others = [im for i, im in enumerate(images) if i != index]
        ocams = [c for i, c in enumerate(cameras) if i != index]
        return plane_sweep_depth(images[index], others, cameras[index], ocams, cfg)

    cam, pose = cameras[ref_index]
    depth, score, valid = sweep(ref_index)
    ref_center = pose.camera_center
    partner = min((i for i in range(len(cameras)) if i != ref_index),
                  key=lambda i: np.linalg.norm(cameras[i][1].camera_center - ref_center))
    pcam, ppose = cameras[partner]
    pdepth, _, pvalid = sweep(partner)

    _, spacing = plane_depths(VoxelGridSpec(), cam, pose, cfg.n_planes)
    vs, us = np.nonzero(valid)
    pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
    uv, z_partner, ok = project_points(pts, pcam, ppose)
    ui = np.clip(np.round(uv[:, 0]).astype(np.int64), 0, pcam.width - 1)
    vi = np.clip(np.round(uv[:, 1]).astype(np.int64), 0, pcam.height - 1)
    consistent = ok & pvalid[vi, ui] & (np.abs(pdepth[vi, ui] - z_partner) <= tol_planes * spacing)
    checked = np.zeros_like(valid)
    checked[vs[consistent], us[consistent]] = True
    return np.where(checked, depth, 0.0), np.where(checked, score, 0.0), checked


@dataclass(frozen=True)
class HullConfig:
    """min_fraction: fraction of views a voxel must be silhouetted in to
    count as occupied when binarizing; the raw hull output is the fraction
    itself. Evaluation binarizes probabilistic hulls at threshold 0.75."""

    min_fraction: float = 1.0
    binarize_threshold: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.min_fraction <= 1.0:
            raise ValueError(f"min_fraction must be in (0, 1], got {self.min_fraction}")


def visual_hull(
    masks: np.ndarray,
    cameras: list[tuple[Intrinsics, Pose]],
    spec: VoxelGridSpec,
) -> np.ndarray:
    """Fraction of views whose silhouette contains each voxel center.

    Voxels behind a camera or out of its frame count as outside for that
    view. Returns (V, V, V) floats in [0, 1].
    """
    masks = np.asarray(masks)
    if len(masks) == 0:
        raise ValueError("need at least one mask")
    if len(masks) != len(cameras):
        raise ValueError(f"{len(masks)} masks for {len(cameras)} cameras")
    inside_count = np.zeros((spec.resolution,) * 3)
    for mask, (cam, pose) in zip(masks, cameras):
        # sub-pixel silhouette test: the unprojected mask, zero for an invalid
        # projection, above one half
        inside_count += unproject(mask[..., None], cam, pose, spec)[..., 0] > 0.5
    return inside_count / len(masks)


def depth_to_pointcloud(
    depth: np.ndarray,
    cam: Intrinsics,
    pose: Pose,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Unproject a depth map to world points (N, 3); depth <= 0 is skipped."""
    depth = np.asarray(depth, dtype=np.float64)
    valid = depth > 0
    if mask is not None:
        valid &= np.asarray(mask).astype(bool)
    vs, us = np.nonzero(valid)
    return backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
