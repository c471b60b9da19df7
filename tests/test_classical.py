"""Window ZNCC, plane sweep, visual hull and depth back-projection.

Plane-sweep accuracy is checked against scenes with analytically known
depth (a textured fronto-parallel plane) and against the sphere-traced
renderer's exact depth maps.
"""

import numpy as np
import pytest

from voxelstereo.classical import (
    cross_checked_sweep,
    plane_sweep_depth,
    visual_hull,
    window_zncc,
)
from voxelstereo.evalkit import voxel_iou
from voxelstereo.geometry import (
    Intrinsics,
    Pose,
    VoxelGridSpec,
    backproject,
    camera_z_range,
    look_at,
    project_points,
)
from voxelstereo.synthgen import (
    SceneSpec,
    Sphere,
    ViewSampler,
    default_intrinsics,
    make_scene,
    render_view,
    sdf_eval,
    voxelize,
)


INNER = np.s_[2:-2, 2:-2]  # pixels whose 5 x 5 window lies inside the image


def zncc_reference(a, b):
    """Direct ZNCC of two equal-size patches: (score in [-1, 1], valid)."""
    da = a - a.mean()
    db = b - b.mean()
    var_a = (da * da).mean()
    var_b = (db * db).mean()
    if var_a < 1e-12 or var_b < 1e-12:
        return 0.0, False
    return float(np.clip((da * db).mean() / np.sqrt(var_a * var_b), -1.0, 1.0)), True


class TestZncc:
    def test_identical_patches(self):
        a = np.random.default_rng(0).random((12, 12))
        score, ok = window_zncc(a)(a)
        assert ok.all()
        np.testing.assert_allclose(score, 1.0, atol=1e-12)

    def test_anticorrelated(self):
        a = np.random.default_rng(1).random((12, 12))
        score, ok = window_zncc(a)(-a + 3.7)
        assert ok[INNER].all()
        np.testing.assert_allclose(score[INNER], -1.0, atol=1e-12)

    def test_constant_patch_invalid(self):
        a = np.full((12, 12), 2.0)
        b = np.random.default_rng(2).random((12, 12))
        score, ok = window_zncc(a)(b)
        assert not ok[INNER].any()
        assert (score[INNER] == 0).all()

    def test_brightness_and_contrast_invariance(self):
        a = np.random.default_rng(3).random((14, 14))
        b = np.random.default_rng(4).random((14, 14))
        base, _ = window_zncc(a)(b)
        shifted, _ = window_zncc(a + 5.0)(2.0 * b - 1.0)
        np.testing.assert_allclose(shifted[INNER], base[INNER], atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            score, ok = window_zncc(rng.random((12, 12)))(rng.random((12, 12)))
            assert ok.any()
            assert (score[ok] >= -1.0).all() and (score[ok] <= 1.0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            window_zncc(np.zeros((3, 3)))(np.zeros((5, 5)))

    def test_matches_direct_formula_on_interior_windows(self):
        rng = np.random.default_rng(6)
        a = rng.random((16, 16))
        b = 0.5 * a + rng.random((16, 16))
        a[4:10, 4:10] = 0.3  # a flat patch: windows inside it are invalid
        score, ok = window_zncc(a)(b)
        for i in range(2, 14):
            for j in range(2, 14):
                expected, valid = zncc_reference(a[i - 2:i + 3, j - 2:j + 3],
                                                 b[i - 2:i + 3, j - 2:j + 3])
                assert ok[i, j] == valid, (i, j)
                assert abs(score[i, j] - expected) <= 1e-12, (i, j)
        assert not ok[INNER].all()


def plane_texture(pts_xy, seed=0):
    """Band-limited random texture, smooth enough to interpolate."""
    rng = np.random.default_rng(seed)
    val = np.zeros(pts_xy.shape[:-1])
    for _ in range(8):
        freq = rng.uniform(15.0, 45.0, 2)
        phase = rng.uniform(0, 2 * np.pi)
        val += rng.uniform(0.3, 1.0) * np.sin(pts_xy[..., 0] * freq[0]
                                              + pts_xy[..., 1] * freq[1] + phase)
    return 0.5 + val / 10.0


def render_plane(cam, cam_center, z_plane, seed=0):
    """Image of a textured world plane z = z_plane from a translated camera."""
    uu, vv = np.meshgrid(np.arange(cam.width, dtype=float), np.arange(cam.height, dtype=float))
    depth = z_plane - cam_center[2]
    x = cam_center[0] + depth * (uu - cam.cx) / cam.fx
    y = cam_center[1] + depth * (vv - cam.cy) / cam.fy
    return plane_texture(np.stack([x, y], axis=-1), seed)


class TestPlaneSweep:
    def test_textured_plane_known_depth(self):
        cam = Intrinsics(fx=60.0, fy=60.0, cx=15.5, cy=15.5, width=32, height=32)
        z_plane = 0.2
        centers = [np.array([0.0, 0.0, -2.0]), np.array([0.25, 0.1, -2.0])]
        poses = [Pose(rotation=np.eye(3), translation=-c) for c in centers]
        images = [render_plane(cam, c, z_plane) for c in centers]
        depth, score, valid = plane_sweep_depth(
            images[0], [images[1]], (cam, poses[0]), [(cam, poses[1])], n_planes=50)
        spacing = 1.0 / 50
        gt = z_plane + 2.0
        err = np.abs(depth[valid] - gt)
        assert valid.mean() > 0.5
        assert np.median(err) < spacing

    def test_textureless_mostly_invalid(self):
        cam = Intrinsics(fx=60.0, fy=60.0, cx=15.5, cy=15.5, width=32, height=32)
        pose_a = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        pose_b = Pose(rotation=np.eye(3), translation=np.array([-0.2, 0.0, 2.0]))
        flat = np.full((32, 32), 0.7)
        depth, _, valid = plane_sweep_depth(flat, [flat], (cam, pose_a), [(cam, pose_b)],
                                            n_planes=20)
        assert valid.mean() < 0.01
        assert (depth[~valid] == 0).all()

    def test_rendered_scene_against_ray_marched_depth(self):
        # fast sanity version of the acceptance configuration (which runs
        # 128px images and 300 planes)
        cam = default_intrinsics(96, 96)
        scene = make_scene("composite", seed=14)
        poses = ViewSampler(azimuth_range=(0.0, 120.0)).sample(8, np.random.default_rng(2))
        views = [render_view(scene, cam, p) for p in poses]
        depth, _, valid = cross_checked_sweep(
            [v[0] for v in views], [(cam, p) for p in poses], 0, n_planes=100)
        gt = views[0][1]
        z_near, z_far = camera_z_range(VoxelGridSpec(), cam, poses[0])
        spacing = (z_far - z_near) / 100
        fg = valid & (gt > 0)
        assert fg.sum() > 400
        frac = (np.abs(depth[fg] - gt[fg]) <= 2 * spacing).mean()
        assert frac >= 0.75

    def test_brightness_offset_invariance(self):
        cam = Intrinsics(fx=60.0, fy=60.0, cx=15.5, cy=15.5, width=32, height=32)
        centers = [np.array([0.0, 0.0, -2.0]), np.array([0.2, 0.0, -2.0])]
        poses = [Pose(rotation=np.eye(3), translation=-c) for c in centers]
        images = [render_plane(cam, c, 0.1) for c in centers]
        d0, _, v0 = plane_sweep_depth(images[0], [images[1]], (cam, poses[0]),
                                      [(cam, poses[1])], n_planes=40)
        d1, _, v1 = plane_sweep_depth(images[0] + 0.3, [images[1] + 0.3],
                                      (cam, poses[0]), [(cam, poses[1])], n_planes=40)
        np.testing.assert_array_equal(v0, v1)
        both = v0 & v1
        np.testing.assert_allclose(d0[both], d1[both], atol=1e-6)

    def test_requires_other_views(self):
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="non-reference"):
            plane_sweep_depth(np.zeros((8, 8)), [], (cam, pose), [])

    def test_rejects_image_camera_count_mismatch(self):
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        images = list(np.random.default_rng(0).random((4, 8, 8)))
        with pytest.raises(ValueError, match="3 other images for 1 other cameras"):
            plane_sweep_depth(images[0], images[1:], (cam, pose), [(cam, pose)], n_planes=4)

    def test_rejects_other_image_not_of_its_camera_size(self):
        # a 4x4 image read through an 8x8 camera is sampled in the wrong frame
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        others = [np.ones((8, 8)), np.ones((4, 4))]
        with pytest.raises(ValueError, match=r"other image 1 \(4, 4\).*\(8, 8\)"):
            plane_sweep_depth(np.ones((8, 8)), others, (cam, pose), [(cam, pose)] * 2)


SPHERE04 = SceneSpec(nodes=[("union", Sphere(center=(0, 0, 0), radius=0.4))], family="sphere")


def sphere_views(n, img=64, seed=0):
    cam = default_intrinsics(img, img)
    poses = ViewSampler().sample(n, np.random.default_rng(seed))
    masks = [render_view(SPHERE04, cam, p)[2] for p in poses]
    return np.stack(masks), [(cam, p) for p in poses]


class TestVisualHull:
    # the oracle tests binarize at 1.0, inside every view's silhouette; the
    # 0.75 threshold is the evaluation setting for noisy probabilistic hulls

    def test_eight_views_of_sphere_iou(self):
        spec = VoxelGridSpec(resolution=32)
        masks, cams = sphere_views(8)
        hull = visual_hull(masks, cams, spec)
        gt = voxelize(SPHERE04, spec)
        assert voxel_iou(hull, gt, threshold=1.0) >= 0.85

    def test_iou_nondecreasing_in_views(self):
        spec = VoxelGridSpec(resolution=32)
        masks, cams = sphere_views(8)
        gt = voxelize(SPHERE04, spec)
        ious = [voxel_iou(visual_hull(masks[:k], cams[:k], spec), gt, 1.0)
                for k in range(1, 9)]
        assert all(b >= a - 0.01 for a, b in zip(ious, ious[1:])), ious
        assert ious[0] < ious[-1]  # the single-view cone is much worse

    def test_single_view_is_a_cone(self):
        spec = VoxelGridSpec(resolution=16)
        masks, cams = sphere_views(1)
        hull = visual_hull(masks, cams, spec) >= 1.0
        gt = voxelize(SPHERE04, spec).astype(bool)
        # the cube-clipped cone roughly doubles the sphere's volume
        assert hull.sum() > 1.5 * gt.sum()
        assert (hull & gt).sum() > 0.95 * gt.sum()

    def test_hull_is_superset_of_shape(self):
        # every ground-truth voxel whose center falls inside all silhouettes
        # must be carved in
        spec = VoxelGridSpec(resolution=16)
        scene = make_scene("composite", seed=9)
        cam = default_intrinsics(48, 48)
        poses = ViewSampler().sample(6, np.random.default_rng(1))
        masks = np.stack([render_view(scene, cam, p)[2] for p in poses])
        cams = [(cam, p) for p in poses]
        hull = visual_hull(masks, cams, spec)
        gt = voxelize(scene, spec).astype(bool)
        # gt voxels not in the hull can only be those whose center projects
        # outside some silhouette (raster quantization at the boundary)
        missing = gt & (hull < 1.0)
        assert missing.mean() < 0.05

    def test_fraction_output_range_and_errors(self):
        spec = VoxelGridSpec(resolution=8)
        masks, cams = sphere_views(3)
        hull = visual_hull(masks, cams, spec)
        assert (hull >= 0).all() and (hull <= 1).all()
        with pytest.raises(ValueError, match="mask"):
            visual_hull(np.zeros((0, 8, 8)), [], spec)


class TestDepthToPointcloud:
    """Rendered depth maps, back-projected through geometry.backproject."""

    def test_central_pixel(self):
        cam = Intrinsics(fx=100.0, fy=100.0, cx=16.0, cy=16.0, width=33, height=33)
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        depth = np.zeros((33, 33))
        depth[16, 16] = 2.0
        vs, us = np.nonzero(depth > 0)
        pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
        np.testing.assert_allclose(pts, [[0.0, 0.0, 0.0]], atol=1e-12)

    def test_round_trip_projection(self):
        cam = default_intrinsics(32, 32)
        pose = look_at([1.0, 0.6, -1.4], [0, 0, 0])
        scene = make_scene("box", seed=2)
        _, depth, mask = render_view(scene, cam, pose)
        vs, us = np.nonzero(mask)
        pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
        uv, z, valid = project_points(pts, cam, pose)
        np.testing.assert_allclose(uv[:, 0], us, atol=1e-6)
        np.testing.assert_allclose(uv[:, 1], vs, atol=1e-6)

    def test_points_on_sdf_surface(self):
        cam = default_intrinsics(32, 32)
        pose = look_at([0.5, 0.8, 1.7], [0, 0, 0])
        _, depth, _ = render_view(SPHERE04, cam, pose)
        vs, us = np.nonzero(depth > 0)
        pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
        assert len(pts) > 0
        assert (np.abs(sdf_eval(SPHERE04, pts)) < 1e-3).all()
