"""Non-learned baselines: silhouette carving and ZNCC plane-sweep stereo.

The plane sweep scores fronto-parallel depth hypotheses (equally spaced in
reference-camera z, placed at bin midpoints of the depth range that the
unit cube at the origin, the one voxel grid, spans in the reference
camera) by warping each other view onto the reference via the
plane-induced point transfer and correlating square 5 x 5 windows with
zero-mean normalized cross correlation. Depth is winner-take-all over
planes with a single parabolic refinement across the argmax neighborhood.

window_zncc is the package's one ZNCC: the sweep builds it once per
reference view and scores every warped other view through it. The sweep's
5 x 5 window, its best-3-views averaging and the cross-check's 3-plane
tolerance are module constants; only the number of planes is an argument.

Image sampling (diffops.bilinear_sample), depth-plane placement
(diffops.plane_depths), nearest-pixel rounding (diffops.nearest_index) and
pixel back-projection (geometry.backproject) are the ones the learned
pipeline uses, and the visual hull reads its masks through
diffops.unproject, so both baselines see the same geometry as the network.

Validity: a window score requires every warped sample of the window to be
valid in the other view as project_points decides it (in front of the
camera and inside the image) and both windows to carry variance above
1e-12; a pixel is invalid when no plane collects a valid view score.
Textureless regions therefore drop out instead of producing arbitrary
depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import minimum_filter, uniform_filter

from .diffops import bilinear_sample, nearest_index, plane_depths, unproject
from .geometry import Intrinsics, Pose, VoxelGridSpec, backproject, pixel_grid, project_points

_VAR_EPS = 1e-12
_LUMA = np.array([0.299, 0.587, 0.114])


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Luminance conversion used for all matching."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image
    return image @ _LUMA


# The sweep's fixed settings. Per plane it averages the _TOP_K_VIEWS best
# view scores instead of all valid ones: with cameras spread over the whole
# viewing sphere most surface points are occluded in several views, and
# averaging those in drowns the true peak; best-k averaging is the standard
# occlusion-robust variant. k is capped at the number of other views.
_WINDOW = 5
_TOP_K_VIEWS = 3
_TOL_PLANES = 3.0


def _window_stats(img):
    mean = uniform_filter(img, size=_WINDOW, mode="constant")
    sq = uniform_filter(img * img, size=_WINDOW, mode="constant")
    return mean, sq - mean * mean


def window_zncc(ref: np.ndarray):
    """Windowed zero-mean normalized cross correlation against one image.

    Returns score(other) -> (zncc, ok), each the shape of ref: zncc[i, j]
    correlates the 5 x 5 windows centred at (i, j) in ref and
    other, clipped to [-1, 1]; ok is False, and zncc 0, where either window
    has variance below 1e-12. Windows past the border read zeros. The
    reference's window statistics are computed once, here.
    """
    ref = np.asarray(ref, dtype=np.float64)
    ref_mean, ref_var = _window_stats(ref)
    ref_textured = ref_var >= _VAR_EPS

    def score(other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        other = np.asarray(other, dtype=np.float64)
        if other.shape != ref.shape:
            raise ValueError(f"image shapes differ: {ref.shape} vs {other.shape}")
        w_mean, w_var = _window_stats(other)
        cross = uniform_filter(ref * other, size=_WINDOW, mode="constant")
        cov = cross - ref_mean * w_mean
        ok = ref_textured & (w_var >= _VAR_EPS)
        denom = np.sqrt(np.where(ok, ref_var * w_var, 1.0))
        return np.where(ok, np.clip(cov / denom, -1.0, 1.0), 0.0), ok

    return score


def plane_sweep_depth(
    ref_image: np.ndarray,
    other_images: list[np.ndarray],
    ref_camera: tuple[Intrinsics, Pose],
    other_cameras: list[tuple[Intrinsics, Pose]],
    n_planes: int = 300,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winner-take-all plane-sweep stereo for one reference view.

    Returns (depth, score, valid), each (H, W). Depth is reference-camera z.
    """
    if n_planes < 2:
        raise ValueError(f"need at least 2 planes, got {n_planes}")
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
    grays = [to_grayscale(im) for im in other_images]
    for j, (gray, (ocam, _)) in enumerate(zip(grays, other_cameras)):
        if gray.shape != (ocam.height, ocam.width):
            raise ValueError(f"other image {j} {gray.shape} does not match its camera "
                             f"{(ocam.height, ocam.width)}")

    z_planes, spacing = plane_depths(VoxelGridSpec(), cam, pose, n_planes)
    score = window_zncc(ref)
    pixels = pixel_grid(cam).reshape(-1, 2)
    score_volume = np.full((n_planes, h, w), -np.inf)

    for k_plane, z in enumerate(z_planes):
        pts_world = backproject(pixels, z, cam, pose)
        view_scores = np.full((len(grays), h, w), -np.inf)
        for j, (gray, (ocam, opose)) in enumerate(zip(grays, other_cameras)):
            uv, _, sample_ok = project_points(pts_world, ocam, opose)
            warped, _ = bilinear_sample(gray[..., None], uv)
            # whole window must be sampled validly
            window_ok = minimum_filter(sample_ok.reshape(h, w).astype(np.uint8),
                                       size=_WINDOW, mode="constant") > 0
            zncc, ok = score(warped.reshape(h, w))
            view_scores[j] = np.where(window_ok & ok, zncc, -np.inf)
        # sum of the k best valid view scores over a fixed denominator k:
        # a plane seen validly by fewer views cannot outscore one with full
        # support on a single chance correlation; with no valid view (the
        # best is -inf) the plane gets no score
        k = min(_TOP_K_VIEWS, len(grays))
        ranked = -np.sort(-view_scores, axis=0)[:k]
        top_sum = np.where(np.isfinite(ranked), ranked, 0.0).sum(axis=0)
        score_volume[k_plane] = np.where(np.isfinite(ranked[0]), top_sum / k, -np.inf)

    valid = np.isfinite(score_volume).any(axis=0)
    best_k = np.argmax(score_volume, axis=0)
    best_score = np.take_along_axis(score_volume, best_k[None], axis=0)[0]

    # parabolic refinement over (k-1, k, k+1) where all three are finite
    depth = z_planes[best_k]
    interior = (best_k > 0) & (best_k < n_planes - 1) & valid
    km = np.clip(best_k - 1, 0, n_planes - 1)
    kp = np.clip(best_k + 1, 0, n_planes - 1)
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
    n_planes: int = 300,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plane sweep for one view with cross-view consistency validation.

    A second sweep is run from the camera nearest the reference; reference
    pixels whose 3D point disagrees with the partner's depth estimate by
    more than _TOL_PLANES (3) plane spacings are invalidated. This is the
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
        return plane_sweep_depth(images[index], others, cameras[index], ocams, n_planes)

    cam, pose = cameras[ref_index]
    depth, score, valid = sweep(ref_index)
    ref_center = pose.camera_center
    partner = min((i for i in range(len(cameras)) if i != ref_index),
                  key=lambda i: np.linalg.norm(cameras[i][1].camera_center - ref_center))
    pcam, ppose = cameras[partner]
    pdepth, _, pvalid = sweep(partner)

    _, spacing = plane_depths(VoxelGridSpec(), cam, pose, n_planes)
    vs, us = np.nonzero(valid)
    pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
    uv, z_partner, ok = project_points(pts, pcam, ppose)
    ui = np.clip(nearest_index(uv[:, 0]), 0, pcam.width - 1)
    vi = np.clip(nearest_index(uv[:, 1]), 0, pcam.height - 1)
    consistent = ok & pvalid[vi, ui] & (np.abs(pdepth[vi, ui] - z_partner) <= _TOL_PLANES * spacing)
    checked = np.zeros_like(valid)
    checked[vs[consistent], us[consistent]] = True
    return np.where(checked, depth, 0.0), np.where(checked, score, 0.0), checked


@dataclass(frozen=True)
class HullConfig:
    """Evaluation binarizes the hull's view fraction at this threshold."""

    binarize_threshold: float = 0.75


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
