"""SDF correctness, render/depth/mask consistency, voxelization, datasets."""

import numpy as np
import pytest

from voxelstereo.geometry import Pose, VoxelGridSpec, backproject, look_at, voxel_centers
from voxelstereo.synthgen import (
    Box,
    Cylinder,
    SceneSpec,
    Sphere,
    ViewSampler,
    assert_inside_unit_cube,
    default_intrinsics,
    generate_dataset,
    make_scene,
    render_view,
    sdf_eval,
    voxelize,
)

SPHERE = SceneSpec(nodes=[("union", Sphere(center=(0, 0, 0), radius=0.4))], family="sphere")


class TestSdf:
    def test_sphere_center_value(self):
        assert sdf_eval(SPHERE, [[0.0, 0.0, 0.0]])[0] == pytest.approx(-0.4)

    def test_sphere_surface_zero(self):
        p = np.array([0.4, 0.0, 0.0])
        assert abs(sdf_eval(SPHERE, p[None])[0]) < 1e-12

    def test_union_is_min(self):
        two = SceneSpec(nodes=[("union", Sphere(center=(0.2, 0, 0), radius=0.2)),
                               ("union", Sphere(center=(-0.2, 0, 0), radius=0.2))])
        pts = np.random.default_rng(0).uniform(-0.5, 0.5, (100, 3))
        d = sdf_eval(two, pts)
        d1 = Sphere(center=(0.2, 0, 0), radius=0.2).sdf(pts)
        d2 = Sphere(center=(-0.2, 0, 0), radius=0.2).sdf(pts)
        assert (d <= d1 + 1e-12).all() and (d <= d2 + 1e-12).all()
        np.testing.assert_allclose(d, np.minimum(d1, d2))

    def test_subtraction_carves(self):
        carved = SceneSpec(nodes=[("union", Box(center=(0, 0, 0), half_extents=(0.4, 0.4, 0.4))),
                                  ("subtract", Sphere(center=(0.4, 0, 0), radius=0.3))])
        # a point inside the bite is now outside the shape
        assert sdf_eval(carved, [[0.3, 0.0, 0.0]])[0] > 0
        # a point far from the bite is still inside
        assert sdf_eval(carved, [[-0.3, 0.0, 0.0]])[0] < 0

    def test_box_exact_distances(self):
        box = Box(center=(0, 0, 0), half_extents=(0.2, 0.3, 0.4))
        assert box.sdf(np.array([[0.5, 0.0, 0.0]]))[0] == pytest.approx(0.3)
        assert box.sdf(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(-0.2)

    def test_cylinder_exact_distances(self):
        cyl = Cylinder(center=(0, 0, 0), axis=1, radius=0.2, height=0.6)
        assert cyl.sdf(np.array([[0.5, 0.0, 0.0]]))[0] == pytest.approx(0.3)
        assert cyl.sdf(np.array([[0.0, 0.5, 0.0]]))[0] == pytest.approx(0.2)
        assert cyl.sdf(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(-0.2)

    def test_unit_cube_assertion(self):
        big = SceneSpec(nodes=[("union", Sphere(center=(0, 0, 0), radius=0.7))])
        with pytest.raises(ValueError, match="unit cube"):
            assert_inside_unit_cube(big)
        assert_inside_unit_cube(SPHERE)  # fits


class TestRender:
    def test_central_depth_of_sphere(self):
        cam = default_intrinsics(33, 33)  # odd size: integer principal pixel
        pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        _, depth, mask = render_view(SPHERE, cam, pose)
        assert mask[16, 16] == 1
        assert depth[16, 16] == pytest.approx(1.6, abs=1e-4)

    def test_mask_grows_with_radius(self):
        cam = default_intrinsics(32, 32)
        pose = look_at([0.0, 0.5, -1.9], [0, 0, 0])
        counts = []
        for r in (0.2, 0.3, 0.4):
            scene = SceneSpec(nodes=[("union", Sphere(center=(0, 0, 0), radius=r))])
            _, _, mask = render_view(scene, cam, pose)
            counts.append(int(mask.sum()))
        assert counts[0] < counts[1] < counts[2]

    def test_depth_points_lie_on_surface(self):
        cam = default_intrinsics(32, 32)
        pose = look_at([1.2, 0.7, -1.3], [0, 0, 0])
        scene = make_scene("composite", seed=5)
        _, depth, mask = render_view(scene, cam, pose)
        vs, us = np.nonzero(mask)
        pts = backproject(np.stack([us, vs], axis=1), depth[vs, us], cam, pose)
        assert (np.abs(sdf_eval(scene, pts)) < 1e-3).all()

    def test_depth_hits_match_mask(self):
        cam = default_intrinsics(32, 32)
        pose = look_at([0.3, 0.4, 2.0], [0, 0, 0])
        _, depth, mask = render_view(SPHERE, cam, pose)
        np.testing.assert_array_equal(depth > 0, mask.astype(bool))

    def test_textureless_render_is_flat(self):
        cam = default_intrinsics(32, 32)
        pose = look_at([0.0, 0.3, -2.0], [0, 0, 0])
        scene = make_scene("sphere", seed=1, textureless=True)
        img, _, mask = render_view(scene, cam, pose)
        fg = img[mask.astype(bool)]
        assert np.ptp(fg, axis=0).max() == 0.0  # constant albedo


class TestVoxelize:
    def test_sphere_volume_within_two_percent(self):
        spec = VoxelGridSpec(resolution=32)
        occ = voxelize(SPHERE, spec)
        analytic = 4.0 / 3.0 * np.pi * 0.4**3 * 32**3
        assert occ.sum() == pytest.approx(analytic, rel=0.02)

    def test_empty_scene_all_zero(self):
        tiny = SceneSpec(nodes=[("union", Sphere(center=(0.0, 0.0, 0.0), radius=1e-4))])
        occ = voxelize(tiny, VoxelGridSpec(resolution=8))
        assert occ.sum() == 0

    def test_translation_by_one_voxel_shifts_occupancy(self):
        spec = VoxelGridSpec(resolution=32)
        step = 1.0 / spec.resolution
        a = voxelize(SceneSpec(nodes=[("union", Sphere(center=(0, 0, 0), radius=0.3))]), spec)
        b = voxelize(SceneSpec(nodes=[("union", Sphere(center=(step, 0, 0), radius=0.3))]), spec)
        np.testing.assert_array_equal(b[1:], a[:-1])

    def test_matches_sign_of_sdf_at_centers(self):
        spec = VoxelGridSpec(resolution=16)
        scene = make_scene("composite", seed=3)
        occ = voxelize(scene, spec).reshape(-1)
        d = sdf_eval(scene, voxel_centers(spec))
        np.testing.assert_array_equal(occ.astype(bool), d <= 0)


class TestViewSampler:
    def test_cameras_look_at_origin_from_radius(self):
        sampler = ViewSampler()
        poses = sampler.sample(20, np.random.default_rng(0))
        for pose in poses:
            c = pose.camera_center
            assert np.linalg.norm(c) == pytest.approx(2.0)
            x_cam = pose.transform(np.zeros(3))
            np.testing.assert_allclose(x_cam[:2], 0.0, atol=1e-12)

    def test_elevations_in_range(self):
        sampler = ViewSampler()
        poses = sampler.sample(200, np.random.default_rng(1))
        for pose in poses:
            el = np.rad2deg(np.arcsin(pose.camera_center[1] / 2.0))
            assert -20.0 - 1e-9 <= el <= 30.0 + 1e-9


class TestGenerateDataset:
    def test_same_seed_byte_identical(self, tmp_path):
        kwargs = dict(n_scenes=2, views_per_scene=2, seed=7, resolution=8,
                      image_size=(24, 24))
        generate_dataset(out_dir=tmp_path / "a", **kwargs)
        generate_dataset(out_dir=tmp_path / "b", **kwargs)
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_layout_and_validity(self, tmp_path):
        manifest = generate_dataset(3, 2, tmp_path / "d", seed=0, resolution=8,
                                    image_size=(24, 24))
        assert manifest.scenes == ["scene_0000", "scene_0001", "scene_0002"]
        families = []
        for name in manifest.scenes:
            scene = manifest.load(name)
            assert scene.images.shape == (2, 24, 24, 3)
            assert scene.occupancy.shape == (8, 8, 8)
            assert scene.occupancy.any()
            assert scene.n_views == 2
            families.append(scene.family)
        assert families == ["sphere", "box", "composite"]

    def test_depth_mask_consistency(self, tmp_path):
        manifest = generate_dataset(1, 2, tmp_path / "d", seed=3, resolution=8,
                                    image_size=(24, 24))
        scene = manifest.load(manifest.scenes[0])
        for k in range(scene.n_views):
            np.testing.assert_array_equal(scene.depths[k] > 0, scene.masks[k].astype(bool))
