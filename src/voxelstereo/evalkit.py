"""Metrics: voxel IoU, depth error and the view-count sweep.

Voxel IoU binarizes predictions at the caller's threshold (0.4 for learned
methods, 0.75 for the probabilistic visual hull) and aggregates per-scene
values to per-class means, then averages the class means.

Depth error is the per-view median absolute difference over valid pixels;
a pixel is valid when ground truth is present, the prediction is present,
and the ground-truth depth lies within DEPTH_HALF_RANGE of the camera's
distance to the origin: the unit cube's half-diagonal, the farthest any
surface can be from the cube's center. Aggregation follows the IoU scheme.
Both metrics reject a prediction whose shape is not its ground truth's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import CUBE_CORNERS, Pose

DEPTH_HALF_RANGE = np.linalg.norm(CUBE_CORNERS, axis=1).max()


def voxel_iou(pred: np.ndarray, gt: np.ndarray, threshold: float = 0.4) -> float:
    """Intersection over union of pred >= threshold against binary gt.

    Defined as 1.0 when both sets are empty.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, gt {gt.shape}")
    p = pred >= threshold
    g = gt > 0.5
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


def _per_class_mean(per_item: list[tuple[str, str, float]]):
    classes: dict[str, list[float]] = {}
    for _, family, value in per_item:
        classes.setdefault(family, []).append(value)
    class_means = {fam: float(np.mean(vals)) for fam, vals in sorted(classes.items())}
    overall = float(np.mean(list(class_means.values()))) if class_means else float("nan")
    return class_means, overall


@dataclass
class IoUReport:
    per_scene: list[tuple[str, str, float]]      # (scene, family, iou)
    class_means: dict[str, float] = field(init=False)
    mean: float = field(init=False)

    def __post_init__(self):
        self.class_means, self.mean = _per_class_mean(self.per_scene)


def iou_report(entries: list[tuple[str, str, np.ndarray, np.ndarray]],
               threshold: float = 0.4) -> IoUReport:
    """entries: (scene_name, family, predicted grid, ground-truth grid)."""
    per_scene = [(name, family, voxel_iou(pred, gt, threshold))
                 for name, family, pred, gt in entries]
    return IoUReport(per_scene=per_scene)


@dataclass
class DepthErrorReport:
    per_view: list[tuple[str, str, float]]       # (view id, family, median abs error)
    class_means: dict[str, float] = field(init=False)
    mean: float = field(init=False)

    def __post_init__(self):
        self.class_means, self.mean = _per_class_mean(self.per_view)


def depth_valid_mask(gt_depth: np.ndarray, pose: Pose, pred_depth: np.ndarray) -> np.ndarray:
    """Pixels that enter the depth metric for one view."""
    ref_dist = float(np.linalg.norm(pose.camera_center))
    return ((gt_depth > 0) & (np.abs(gt_depth - ref_dist) <= DEPTH_HALF_RANGE)
            & (pred_depth > 0))


def depth_error(entries: list[tuple[str, str, np.ndarray, np.ndarray, Pose]]) -> DepthErrorReport:
    """entries: (view id, family, predicted depth, ground-truth depth, pose).

    Views without any valid pixel are excluded with a warning.
    """
    per_view = []
    for name, family, pred, gt, pose in entries:
        pred, gt = np.asarray(pred), np.asarray(gt)
        if pred.shape != gt.shape:
            raise ValueError(f"view {name}: shape mismatch: pred {pred.shape}, gt {gt.shape}")
        valid = depth_valid_mask(gt, pose, pred)
        if not valid.any():
            warnings.warn(f"view {name}: no valid pixels, excluded from depth report")
            continue
        err = float(np.median(np.abs(pred[valid] - gt[valid])))
        per_view.append((name, family, err))
    return DepthErrorReport(per_view=per_view)


def view_count_sweep(reconstruct, scenes, view_counts, threshold: float) -> dict:
    """Mean IoU per view count for a reconstruct(scene, n_views) -> grid method.

    Scenes are SceneData records; the same leading views are used at every
    count so the sweep isolates the effect of adding views.
    """
    table = {}
    for n in view_counts:
        entries = []
        for scene in scenes:
            if scene.n_views < n:
                raise ValueError(f"scene {scene.name} has only {scene.n_views} views")
            grid = reconstruct(scene, n)
            entries.append((scene.name, scene.family, grid, scene.occupancy))
        table[n] = iou_report(entries, threshold).mean
    return table
