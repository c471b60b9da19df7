"""Window ZNCC, plane sweep, visual hull and depth back-projection.

Plane-sweep accuracy is checked against scenes with analytically known
depth (a textured fronto-parallel plane) and against the sphere-traced
renderer's exact depth maps.
"""

import sys
import threading

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from helpers import plane_sweep_reference

from voxelstereo import classical
from voxelstereo.classical import (
    cross_checked_sweep,
    plane_sweep_depth,
    visual_hull,
    window_zncc,
)
from voxelstereo.diffops import plane_depths
from voxelstereo.evalkit import voxel_iou
from voxelstereo.geometry import (
    Intrinsics,
    Pose,
    VoxelGridSpec,
    backproject,
    camera_z_range,
    look_at,
    pixel_grid,
    project_points,
)
from voxelstereo.synthgen import (
    SceneSpec,
    Sphere,
    default_intrinsics,
    make_scene,
    render_view,
    sample_poses,
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

    def test_stack_scores_each_image_alone(self):
        rng = np.random.default_rng(7)
        a = rng.random((12, 10))
        score = window_zncc(a)
        stack = 0.5 * a + rng.random((4, 12, 10))
        stack[1] = 0.3  # a flat image: every window inside it invalid
        zncc, ok = score(stack)
        for i, image in enumerate(stack):
            one, one_ok = score(image)
            assert zncc[i].tobytes() == one.tobytes(), i
            np.testing.assert_array_equal(ok[i], one_ok)
        assert not ok[1][INNER].any()
        nested, nested_ok = score(stack.reshape(2, 2, 12, 10))
        assert nested.tobytes() == zncc.tobytes()
        np.testing.assert_array_equal(nested_ok.reshape(ok.shape), ok)

    def test_stack_of_other_shape_rejected(self):
        with pytest.raises(ValueError, match="image shapes differ"):
            window_zncc(np.zeros((6, 5)))(np.zeros((3, 5, 6)))

    def test_bytes_match_the_array_expressions(self):
        rng = np.random.default_rng(8)
        a = rng.random((14, 12))
        stack = 0.5 * a + rng.random((3, 14, 12))
        stack[1] = 0.3  # a flat image: every window inside it invalid

        def windowed(img):
            return uniform_filter(img, size=5, mode="constant", axes=(-2, -1))

        a_mean, s_mean = windowed(a), windowed(stack)
        a_var = windowed(a * a) - a_mean * a_mean
        s_var = windowed(stack * stack) - s_mean * s_mean
        cov = windowed(a * stack) - a_mean * s_mean
        ok = (a_var >= 1e-12) & (s_var >= 1e-12)
        want = np.where(ok, np.clip(cov / np.sqrt(np.where(ok, a_var * s_var, 1.0)), -1.0, 1.0),
                        0.0)
        zncc, got_ok = window_zncc(a)(stack)
        assert zncc.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got_ok, ok)

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
    def test_textured_plane_known_depth(self, monkeypatch):
        monkeypatch.setattr(classical, "_PLANES", 50)
        cam = Intrinsics(fx=60.0, fy=60.0, cx=15.5, cy=15.5, width=32, height=32)
        z_plane = 0.2
        centers = [np.array([0.0, 0.0, -2.0]), np.array([0.25, 0.1, -2.0])]
        poses = [Pose(rotation=np.eye(3), translation=-c) for c in centers]
        images = [render_plane(cam, c, z_plane) for c in centers]
        depth, score, valid = plane_sweep_depth(
            images[0], [images[1]], (cam, poses[0]), [(cam, poses[1])])
        spacing = 1.0 / 50
        gt = z_plane + 2.0
        err = np.abs(depth[valid] - gt)
        assert valid.mean() > 0.5
        assert np.median(err) < spacing

    def test_textureless_mostly_invalid(self, monkeypatch):
        monkeypatch.setattr(classical, "_PLANES", 20)
        cam = Intrinsics(fx=60.0, fy=60.0, cx=15.5, cy=15.5, width=32, height=32)
        pose_a = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        pose_b = Pose(rotation=np.eye(3), translation=np.array([-0.2, 0.0, 2.0]))
        flat = np.full((32, 32), 0.7)
        depth, _, valid = plane_sweep_depth(flat, [flat], (cam, pose_a), [(cam, pose_b)])
        assert valid.mean() < 0.01
        assert (depth[~valid] == 0).all()

    def test_rendered_scene_against_ray_marched_depth(self, monkeypatch):
        # fast sanity version of the acceptance configuration (which runs
        # 128px images and 300 planes)
        monkeypatch.setattr(classical, "_PLANES", 100)
        cam = default_intrinsics(96, 96)
        scene = make_scene("composite", seed=14)
        # eight views within 120 degrees of azimuth, drawn as sample_poses draws
        rng = np.random.default_rng(2)
        poses = []
        for _ in range(8):
            az, el = np.deg2rad(rng.uniform(0.0, 120.0)), np.deg2rad(rng.uniform(-20.0, 30.0))
            pos = 2.0 * np.array([np.cos(el) * np.cos(az), np.sin(el), np.cos(el) * np.sin(az)])
            poses.append(look_at(pos, [0.0, 0.0, 0.0]))
        views = [render_view(scene, cam, p) for p in poses]
        depth, _, valid = cross_checked_sweep(
            [v[0] for v in views], [(cam, p) for p in poses], 0)
        gt = views[0][1]
        z_near, z_far = camera_z_range(poses[0])
        spacing = (z_far - z_near) / 100
        fg = valid & (gt > 0)
        assert fg.sum() > 400
        frac = (np.abs(depth[fg] - gt[fg]) <= 2 * spacing).mean()
        assert frac >= 0.75

    def test_brightness_offset_invariance(self, monkeypatch):
        monkeypatch.setattr(classical, "_PLANES", 40)
        cam = Intrinsics(fx=60.0, fy=60.0, cx=15.5, cy=15.5, width=32, height=32)
        centers = [np.array([0.0, 0.0, -2.0]), np.array([0.2, 0.0, -2.0])]
        poses = [Pose(rotation=np.eye(3), translation=-c) for c in centers]
        images = [render_plane(cam, c, 0.1) for c in centers]
        d0, _, v0 = plane_sweep_depth(images[0], [images[1]], (cam, poses[0]),
                                      [(cam, poses[1])])
        d1, _, v1 = plane_sweep_depth(images[0] + 0.3, [images[1] + 0.3],
                                      (cam, poses[0]), [(cam, poses[1])])
        np.testing.assert_array_equal(v0, v1)
        both = v0 & v1
        np.testing.assert_allclose(d0[both], d1[both], atol=1e-6)

    @pytest.mark.parametrize("ref_index", [-1, 3])
    def test_cross_checked_sweep_rejects_a_reference_outside_the_views(self, ref_index):
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        images = list(np.random.default_rng(0).random((3, 8, 8)))
        with pytest.raises(ValueError, match=rf"ref_index {ref_index} is outside \[0, 3\)"):
            cross_checked_sweep(images, [(cam, pose)] * 3, ref_index)

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
            plane_sweep_depth(images[0], images[1:], (cam, pose), [(cam, pose)])

    def test_rejects_other_image_not_of_its_camera_size(self):
        # a 4x4 image read through an 8x8 camera is sampled in the wrong frame
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        others = [np.ones((8, 8)), np.ones((4, 4))]
        with pytest.raises(ValueError, match=r"other image 1 \(4, 4\).*\(8, 8\)"):
            plane_sweep_depth(np.ones((8, 8)), others, (cam, pose), [(cam, pose)] * 2)


class TestChunkedSweep:
    """The sweep scores planes in chunks; it must return the per-plane
    reference sweep's bytes."""

    N_PLANES = 23  # two full chunks of classical._CHUNK = 10 planes and a partial one

    @pytest.fixture(autouse=True)
    def planes(self, monkeypatch):
        monkeypatch.setattr(classical, "_PLANES", self.N_PLANES)

    @pytest.fixture(scope="class")
    def views(self):
        cam = default_intrinsics(32, 32)
        scene = make_scene("composite", seed=3)
        poses = sample_poses(5, np.random.default_rng(19))
        images = [render_view(scene, cam, p)[0] for p in poses]
        return images, [(cam, p) for p in poses]

    def test_each_plane_leaves_each_other_image_in_part(self, views):
        _, cameras = views
        cam, pose = cameras[0]
        z_planes, _ = plane_depths(pose, self.N_PLANES)
        pixels = pixel_grid(cam).reshape(-1, 2)
        for z in z_planes:
            pts = backproject(pixels, z, cam, pose)
            for ocam, opose in cameras[1:]:
                ok = project_points(pts, ocam, opose)[2]
                assert 0 < ok.sum() < ok.size

    @pytest.mark.parametrize("n_other", [1, 3, 4])
    def test_equals_per_plane_reference(self, views, n_other):
        images, cameras = views
        args = (images[0], images[1:1 + n_other], cameras[0], cameras[1:1 + n_other])
        out = plane_sweep_depth(*args)
        self.assert_reference_bytes(out, plane_sweep_reference(*args, self.N_PLANES))
        assert out[2].any() and not out[2].all()

    def assert_reference_bytes(self, out, ref):
        for name, got, want in zip(("depth", "score", "valid"), out, ref):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    # 3 workers exceed the cores of a 2-core machine; 1 runs the threaded
    # path too, so a 1-core machine still tests it
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_other", [1, 3, 4])
    def test_bytes_do_not_depend_on_worker_count(self, views, n_other, workers, monkeypatch):
        monkeypatch.setattr(classical, "_WORKERS", workers)
        images, cameras = views
        args = (images[0], images[1:1 + n_other], cameras[0], cameras[1:1 + n_other])
        self.assert_reference_bytes(plane_sweep_depth(*args),
                                    plane_sweep_reference(*args, self.N_PLANES))

    def test_concurrent_sweeps_each_get_reference_bytes(self, views, monkeypatch):
        monkeypatch.setattr(classical, "_WORKERS", 3)
        images, cameras = views
        args = (images[0], images[1:4], cameras[0], cameras[1:4])
        ref = plane_sweep_reference(*args, self.N_PLANES)
        before = threading.active_count()
        outs = [None, None]

        def run(i):
            outs[i] = plane_sweep_depth(*args)

        callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so interleavings vary
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for out in outs:
            self.assert_reference_bytes(out, ref)
        assert threading.active_count() == before

    def test_worker_error_is_raised_from_the_sweep(self, views, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sampler failed")

        monkeypatch.setattr(classical, "bilinear_sample", broken)
        images, cameras = views
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sampler failed"):
            plane_sweep_depth(images[0], images[1:3], cameras[0], cameras[1:3])
        assert threading.active_count() == before


SPHERE04 = SceneSpec(nodes=[("union", Sphere(center=(0, 0, 0), radius=0.4))], family="sphere")


def sphere_views(n, img=64, seed=0):
    cam = default_intrinsics(img, img)
    poses = sample_poses(n, np.random.default_rng(seed))
    masks = [render_view(SPHERE04, cam, p)[1] > 0 for p in poses]
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
        poses = sample_poses(6, np.random.default_rng(1))
        masks = np.stack([render_view(scene, cam, p)[1] > 0 for p in poses])
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
        _, depth = render_view(scene, cam, pose)
        vs, us = np.nonzero(depth > 0)
        pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
        uv, z, valid = project_points(pts, cam, pose)
        np.testing.assert_allclose(uv[:, 0], us, atol=1e-6)
        np.testing.assert_allclose(uv[:, 1], vs, atol=1e-6)

    def test_points_on_sdf_surface(self):
        cam = default_intrinsics(32, 32)
        pose = look_at([0.5, 0.8, 1.7], [0, 0, 0])
        _, depth = render_view(SPHERE04, cam, pose)
        vs, us = np.nonzero(depth > 0)
        pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
        assert len(pts) > 0
        assert (np.abs(sdf_eval(SPHERE04, pts)) < 1e-3).all()
