"""Metric definitions, aggregation scheme, and the view-count sweep."""

import numpy as np
import pytest

from voxelstereo.classical import visual_hull
from voxelstereo.evalkit import (
    DEPTH_HALF_RANGE,
    depth_error,
    depth_valid_mask,
    view_count_sweep,
    voxel_iou,
)
from voxelstereo.geometry import VoxelGridSpec, look_at
from voxelstereo.synthgen import (
    SceneSpec,
    Sphere,
    default_intrinsics,
    render_view,
    sample_poses,
    voxelize,
)
from voxelstereo.tensorio import SceneData


class TestVoxelIou:
    def test_identical_binary(self):
        g = np.random.default_rng(0).integers(0, 2, (4, 4, 4))
        assert voxel_iou(g.astype(float), g, 0.5) == 1.0

    def test_one_third(self):
        pred = np.zeros((2, 2, 2))
        gt = np.zeros((2, 2, 2))
        pred[0, 0, 0] = 1.0   # a
        pred[0, 0, 1] = 1.0   # b
        gt[0, 0, 1] = 1.0     # b
        gt[0, 1, 0] = 1.0     # c
        assert voxel_iou(pred, gt, 0.5) == pytest.approx(1.0 / 3.0)

    def test_threshold_selects_voxels(self):
        pred = np.full((2, 2, 2), 0.5)
        gt = np.ones((2, 2, 2))
        assert voxel_iou(pred, gt, threshold=0.4) == 1.0
        assert voxel_iou(pred, gt, threshold=0.75) == 0.0

    def test_empty_union_is_one(self):
        assert voxel_iou(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), 0.4) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            voxel_iou(np.zeros((2, 2, 2)), np.zeros((3, 3, 3)), 0.4)

    def test_symmetric_after_binarization(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, (4, 4, 4)).astype(float)
        b = rng.integers(0, 2, (4, 4, 4)).astype(float)
        assert voxel_iou(a, b, 0.5) == voxel_iou(b, a, 0.5)

    def test_monotone_under_correct_additions(self):
        gt = np.zeros((3, 3, 3))
        gt[1] = 1.0
        pred = np.zeros((3, 3, 3))
        pred[1, 0] = 1.0
        low = voxel_iou(pred, gt, 0.5)
        pred[1, 1] = 1.0  # add correctly predicted voxels
        assert voxel_iou(pred, gt, 0.5) > low


class TestAggregation:
    def test_per_class_then_mean(self):
        def scene(name, family):
            return SceneData(name=name, images=np.zeros((1, 4, 4, 3), np.float32),
                             depths=np.zeros((1, 4, 4), np.float32),
                             cameras=[(default_intrinsics(4, 4), look_at([2, 0, 0], [0, 0, 0]))],
                             occupancy=np.ones((1, 1, 1), np.uint8), meta={"family": family})

        scenes = [scene("s0", "sphere"), scene("s1", "sphere"), scene("s2", "box")]
        predicted = {"s0": np.ones((1, 1, 1)), "s1": np.zeros((1, 1, 1)),
                     "s2": np.ones((1, 1, 1))}

        def mean_iou(family=None):
            chosen = [sc for sc in scenes if family in (None, sc.family)]
            return view_count_sweep(lambda sc, n: predicted[sc.name], chosen, [1], 0.5)[1]

        assert mean_iou("sphere") == pytest.approx(0.5)
        assert mean_iou("box") == pytest.approx(1.0)
        # mean of class means, not of scenes
        assert mean_iou() == pytest.approx(0.75)


class TestDepthError:
    def test_exact_prediction(self):
        pose = look_at([2.0, 0.0, 0.0], [0, 0, 0])
        gt = np.full((8, 8), 2.0)
        report = depth_error([("v0", "sphere", gt.copy(), gt, pose)])
        assert report.per_view[0][2] == 0.0

    def test_constant_offset(self):
        pose = look_at([2.0, 0.0, 0.0], [0, 0, 0])
        gt = np.full((8, 8), 2.1)
        report = depth_error([("v0", "sphere", gt + 0.05, gt, pose)])
        assert report.per_view[0][2] == pytest.approx(0.05)

    def test_valid_range_excludes_far_pixels(self):
        pose = look_at([2.0, 0.0, 0.0], [0, 0, 0])
        gt = np.full((4, 4), 2.0)
        gt[0, 0] = 2.0 + DEPTH_HALF_RANGE + 0.01   # beyond the cube
        gt[0, 1] = 0.0                              # missing
        valid = depth_valid_mask(gt, pose, np.ones_like(gt))
        assert not valid[0, 0] and not valid[0, 1]
        assert valid[1:].all()

    def test_view_without_valid_pixels_warns_and_skips(self):
        pose = look_at([2.0, 0.0, 0.0], [0, 0, 0])
        gt = np.zeros((4, 4))
        with pytest.warns(UserWarning, match="no valid pixels"):
            report = depth_error([("v0", "sphere", gt, gt, pose)])
        assert report.per_view == []

    @pytest.mark.parametrize("shape", [(1, 8), (8,), (8, 8, 1)])
    def test_prediction_not_shaped_like_ground_truth_rejected(self, shape):
        pose = look_at([2.0, 0.0, 0.0], [0, 0, 0])
        gt = np.full((8, 8), 2.0)
        with pytest.raises(ValueError, match=r"view v3: shape mismatch"):
            depth_error([("v3", "sphere", np.full(shape, 2.0), gt, pose)])


class TestViewCountSweep:
    def test_hull_sweep_nondecreasing(self):
        scene = SceneSpec(nodes=[("union", Sphere(center=(0, 0, 0), radius=0.4))],
                          family="sphere")
        spec = VoxelGridSpec(resolution=16)
        cam = default_intrinsics(48, 48)
        poses = sample_poses(4, np.random.default_rng(5))
        views = [render_view(scene, cam, p) for p in poses]
        data = SceneData(
            name="s0",
            images=np.stack([v[0].astype(np.float32) for v in views]),
            depths=np.stack([v[1].astype(np.float32) for v in views]),
            cameras=[(cam, p) for p in poses],
            occupancy=voxelize(scene, spec),
            meta={"family": "sphere"},
        )

        def reconstruct(sc, n):
            return visual_hull(sc.masks[:n], sc.cameras[:n], spec)

        table = view_count_sweep(reconstruct, [data], view_counts=[1, 2, 3, 4],
                                 threshold=1.0)
        vals = list(table.values())
        assert all(b >= a - 0.01 for a, b in zip(vals, vals[1:]))

    def test_sweep_rejects_missing_views(self):
        data = SceneData(name="s", images=np.zeros((1, 4, 4, 3), np.float32),
                         depths=np.zeros((1, 4, 4), np.float32),
                         cameras=[(default_intrinsics(4, 4),
                                   look_at([2, 0, 0], [0, 0, 0]))],
                         occupancy=np.zeros((2, 2, 2), np.uint8),
                         meta={"family": "box"})
        with pytest.raises(ValueError, match="only"):
            view_count_sweep(lambda sc, n: sc.occupancy, [data], [2], 0.4)
