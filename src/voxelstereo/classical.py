"""Non-learned baselines: silhouette carving and ZNCC plane-sweep stereo.

The plane sweep scores fronto-parallel depth hypotheses (equally spaced in
reference-camera z, placed at bin midpoints of the depth range that the
unit cube at the origin, the one voxel grid, spans in the reference
camera) by warping each other view onto the reference via the
plane-induced point transfer and correlating square 5 x 5 windows with
zero-mean normalized cross correlation. Depth is winner-take-all over
planes with a single parabolic refinement across the argmax neighborhood.

The sweep scores the planes in chunks of 10: per chunk it back-projects
the reference pixels onto every plane of the chunk at once and, per other
view, projects and samples them in one call each, then filters and scores
the (planes, H, W) stack over its last two axes only. The per-view scores
are ordered by diffops.compare_exchange_sort, and the best three (all of
them with fewer other views), added best first, make the plane's score.
Every plane's score is the one a plane-by-plane sweep computes, bit for
bit. Chunks are scored concurrently, on one thread per usable core, and
each writes only its own planes of the score volume, so the result's bits
do not depend on the number of workers.

window_zncc is the package's one ZNCC: the sweep builds it once per
reference view and scores every chunk of warped planes of every other
view through it. The sweep's 300 planes, its 5 x 5 window, its
best-3-views averaging, its chunk of 10 planes and the cross-check's
3-plane tolerance are module constants.

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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import minimum_filter, uniform_filter

from .diffops import (bilinear_sample, compare_exchange_sort, nearest_index, plane_depths,
                      unproject)
from .geometry import Intrinsics, Pose, VoxelGridSpec, backproject, pixel_grid, project_points

_VAR_EPS = 1e-12
_LUMA = np.array([0.299, 0.587, 0.114])


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Luminance conversion used for all matching."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image
    return image @ _LUMA


# The sweep's fixed settings. _PLANES planes over the unit cube's depth
# range lie under a fifth of a 32^3 voxel apart from a camera 2 away, so the
# sweep resolves depth finer than the learned grid. Per plane it averages
# the _TOP_K_VIEWS best view scores instead of all valid ones: with cameras
# spread over the whole viewing sphere most surface points are occluded in
# several views, and averaging those in drowns the true peak; best-k
# averaging is the standard occlusion-robust variant. k is capped at the
# number of other views.
# _CHUNK planes are warped and scored per pass: chunks of 5 and 20 planes
# ran as fast as 10, chunks of 50 and of all 300 planes ran slower.
# _WORKERS threads, one per usable core, score chunks at once: the chunk's
# numpy and scipy.ndimage work releases the GIL. Where the OS cannot report
# this process's cores (macOS, Windows), every core counts as usable.
_PLANES = 300
_WINDOW = 5
_TOP_K_VIEWS = 3
_TOL_PLANES = 3.0
_CHUNK = 10
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Windows span the last two (row, column) axes only; the axes before them
# index a stack of images.
_IMAGE_AXES = (-2, -1)


def _window_stats(img):
    mean = uniform_filter(img, size=_WINDOW, mode="constant", axes=_IMAGE_AXES)
    sq = uniform_filter(img * img, size=_WINDOW, mode="constant", axes=_IMAGE_AXES)
    return mean, sq - mean * mean


def window_zncc(ref: np.ndarray):
    """Windowed zero-mean normalized cross correlation against one image.

    Returns score(other) -> (zncc, ok), each the shape of other, which is
    one image the shape of ref or a stack (..., H, W) of them: zncc[..., i, j]
    correlates the 5 x 5 windows centred at (i, j) in ref and in each image
    of other, clipped to [-1, 1]; ok is False, and zncc 0, where either window
    has variance below 1e-12. Windows past the border read zeros. The
    reference's window statistics are computed once, here.
    """
    ref = np.asarray(ref, dtype=np.float64)
    ref_mean, ref_var = _window_stats(ref)
    ref_textured = ref_var >= _VAR_EPS

    def score(other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        other = np.asarray(other, dtype=np.float64)
        if other.shape[-2:] != ref.shape:
            raise ValueError(f"image shapes differ: {ref.shape} vs {other.shape}")
        # cov / sqrt(ref_var * w_var), written into the buffers made here
        w_mean, w_var = _window_stats(other)
        cov = uniform_filter(ref * other, size=_WINDOW, mode="constant", axes=_IMAGE_AXES)
        cov -= np.multiply(ref_mean, w_mean, out=w_mean)
        ok = w_var >= _VAR_EPS
        ok &= ref_textured
        denom = np.multiply(ref_var, w_var, out=w_var)
        np.copyto(denom, 1.0, where=~ok)
        cov /= np.sqrt(denom, out=denom)
        np.clip(cov, -1.0, 1.0, out=cov)
        np.copyto(cov, 0.0, where=~ok)
        return cov, ok

    return score


def plane_sweep_depth(
    ref_image: np.ndarray,
    other_images: list[np.ndarray],
    ref_camera: tuple[Intrinsics, Pose],
    other_cameras: list[tuple[Intrinsics, Pose]],
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
    grays = [to_grayscale(im) for im in other_images]
    for j, (gray, (ocam, _)) in enumerate(zip(grays, other_cameras)):
        if gray.shape != (ocam.height, ocam.width):
            raise ValueError(f"other image {j} {gray.shape} does not match its camera "
                             f"{(ocam.height, ocam.width)}")

    z_planes, spacing = plane_depths(pose, _PLANES)
    score = window_zncc(ref)
    pixels = pixel_grid(cam).reshape(-1, 2)
    k = min(_TOP_K_VIEWS, len(grays))
    score_volume = np.empty((_PLANES, h, w))

    def score_chunk(start):
        z = z_planes[start:start + _CHUNK]
        pts_world = backproject(pixels, z[:, None], cam, pose).reshape(-1, 3)
        view_scores = []
        for gray, (ocam, opose) in zip(grays, other_cameras):
            uv, _, sample_ok = project_points(pts_world, ocam, opose)
            warped = bilinear_sample(gray[..., None], uv).reshape(len(z), h, w)
            # whole window must be sampled validly
            window_ok = minimum_filter(sample_ok.reshape(len(z), h, w).astype(np.uint8),
                                       size=_WINDOW, mode="constant", axes=_IMAGE_AXES) > 0
            zncc, ok = score(warped)
            ok &= window_ok
            np.copyto(zncc, -np.inf, where=~ok)
            view_scores.append(zncc)
        # sum of the k best valid view scores over a fixed denominator k:
        # a plane seen validly by fewer views cannot outscore one with full
        # support on a single chance correlation; with no valid view (the
        # best is -inf) the plane gets no score. The best k are the sort's
        # last k, added best first to +0.0.
        ranked = compare_exchange_sort(view_scores)[::-1][:k]
        seen = np.isfinite(ranked[0])
        top_sum = np.zeros((len(z), h, w))
        for r in ranked:
            np.copyto(r, 0.0, where=~np.isfinite(r))
            top_sum += r
        planes = np.divide(top_sum, k, out=score_volume[start:start + len(z)])
        np.copyto(planes, -np.inf, where=~seen)

    # each chunk writes only its own planes; list() raises a worker's error here
    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        list(pool.map(score_chunk, range(0, _PLANES, _CHUNK)))

    valid = np.isfinite(score_volume).any(axis=0)
    best_k = np.argmax(score_volume, axis=0)
    best_score = np.take_along_axis(score_volume, best_k[None], axis=0)[0]

    # parabolic refinement over (k-1, k, k+1) where all three are finite
    depth = z_planes[best_k]
    interior = (best_k > 0) & (best_k < _PLANES - 1) & valid
    km = np.clip(best_k - 1, 0, _PLANES - 1)
    kp = np.clip(best_k + 1, 0, _PLANES - 1)
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
    if not 0 <= ref_index < len(images):
        raise ValueError(f"ref_index {ref_index} is outside [0, {len(images)})")

    def sweep(index):
        others = [im for i, im in enumerate(images) if i != index]
        ocams = [c for i, c in enumerate(cameras) if i != index]
        return plane_sweep_depth(images[index], others, cameras[index], ocams)

    cam, pose = cameras[ref_index]
    depth, score, valid = sweep(ref_index)
    ref_center = pose.camera_center
    partner = min((i for i in range(len(cameras)) if i != ref_index),
                  key=lambda i: np.linalg.norm(cameras[i][1].camera_center - ref_center))
    pcam, ppose = cameras[partner]
    pdepth, _, pvalid = sweep(partner)

    _, spacing = plane_depths(pose, _PLANES)
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
