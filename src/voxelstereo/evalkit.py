"""Metrics and perturbation harnesses.

Voxel IoU binarizes predictions at a per-method threshold (0.4 for learned
methods, 0.75 for the probabilistic visual hull) and aggregates per-scene
values to per-class means, then averages the class means.

Depth error is the per-view median absolute difference over valid pixels;
a pixel is valid when ground truth is present, the prediction is present,
and the ground-truth depth lies within sqrt(3)/2 of the camera's distance
to the origin (the deepest possible surface of a unit cube). Aggregation
follows the IoU scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose

DEPTH_HALF_RANGE = np.sqrt(3.0) / 2.0


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


def _report_lines(title, per_item, class_means, mean) -> list[str]:
    out = [title]
    out += [f"  {name:16s} {family:10s} {value:.4f}" for name, family, value in per_item]
    out += [f"  class {fam:16s} {m:.4f}" for fam, m in class_means.items()]
    out.append(f"  mean {mean:.4f}")
    return out


@dataclass
class IoUReport:
    threshold: float
    per_scene: list[tuple[str, str, float]]      # (scene, family, iou)
    class_means: dict[str, float] = field(default_factory=dict)
    mean: float = float("nan")

    def __post_init__(self):
        self.class_means, self.mean = _per_class_mean(self.per_scene)

    def lines(self) -> list[str]:
        return _report_lines(f"voxel IoU @ {self.threshold}", self.per_scene,
                             self.class_means, self.mean)


def iou_report(entries: list[tuple[str, str, np.ndarray, np.ndarray]],
               threshold: float = 0.4) -> IoUReport:
    """entries: (scene_name, family, predicted grid, ground-truth grid)."""
    per_scene = [(name, family, voxel_iou(pred, gt, threshold))
                 for name, family, pred, gt in entries]
    return IoUReport(threshold=threshold, per_scene=per_scene)


@dataclass
class DepthErrorReport:
    per_view: list[tuple[str, str, float]]       # (view id, family, median abs error)
    class_means: dict[str, float] = field(default_factory=dict)
    mean: float = float("nan")

    def __post_init__(self):
        self.class_means, self.mean = _per_class_mean(self.per_view)

    def lines(self) -> list[str]:
        return _report_lines("median absolute depth error", self.per_view,
                             self.class_means, self.mean)


def depth_valid_mask(gt_depth: np.ndarray, pose: Pose,
                     pred_depth: np.ndarray | None = None) -> np.ndarray:
    """Pixels that enter the depth metric for one view."""
    ref_dist = float(np.linalg.norm(pose.camera_center))
    valid = (gt_depth > 0) & (np.abs(gt_depth - ref_dist) <= DEPTH_HALF_RANGE)
    if pred_depth is not None:
        valid &= np.asarray(pred_depth) > 0
    return valid


def depth_error(entries: list[tuple[str, str, np.ndarray, np.ndarray, Pose]]) -> DepthErrorReport:
    """entries: (view id, family, predicted depth, ground-truth depth, pose).

    Views without any valid pixel are excluded with a warning.
    """
    per_view = []
    for name, family, pred, gt, pose in entries:
        valid = depth_valid_mask(np.asarray(gt), pose, np.asarray(pred))
        if not valid.any():
            warnings.warn(f"view {name}: no valid pixels, excluded from depth report")
            continue
        err = float(np.median(np.abs(np.asarray(pred)[valid] - np.asarray(gt)[valid])))
        per_view.append((name, family, err))
    return DepthErrorReport(per_view=per_view)


def perturb_pose(pose: Pose, theta_max_deg: float, seed: int) -> Pose:
    """Tilt the viewing axis by an angle drawn uniformly in [0, theta_max].

    The rotation axis is perpendicular to the current viewing axis so the
    tilt angle is exact; the axis is resampled (up to a cap) until the
    perturbed optical axis still passes within the unit cube's bounding
    sphere, keeping the camera pointed at the object. The same seed draws
    the same axis and unit angle for every theta, so perturbation families
    are nested in theta.
    """
    if theta_max_deg < 0:
        raise ValueError(f"theta_max must be >= 0, got {theta_max_deg}")
    rng = np.random.default_rng(seed)
    view_axis = pose.rotation[2]  # camera z in world coordinates
    center = pose.camera_center
    for _ in range(64):
        angle = np.deg2rad(theta_max_deg) * rng.random()
        phi = rng.uniform(0.0, 2.0 * np.pi)
        # orthonormal basis of the plane perpendicular to the viewing axis
        a = pose.rotation[0]
        b = pose.rotation[1]
        axis = np.cos(phi) * a + np.sin(phi) * b
        rot = _axis_angle(axis, angle)
        new_r = pose.rotation @ rot.T
        new_axis = new_r[2]
        # closest approach of the new optical axis to the origin
        t_close = -center @ new_axis
        miss = np.linalg.norm(center + t_close * new_axis)
        if t_close > 0 and miss <= np.sqrt(3.0) / 2.0:
            return Pose(rotation=new_r, translation=-new_r @ center)
    raise RuntimeError("could not find a perturbation that keeps the object in view")


def _axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


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
