"""Projection, rays and grid coordinate conventions.

Expected values are hand-computed from the pinhole equations
u = fx*x/z + cx, v = fy*y/z + cy with X_cam = R @ X + t.
"""

import numpy as np
import pytest

from voxelstereo.geometry import (
    Intrinsics,
    Pose,
    VoxelGridSpec,
    Z_EPS,
    camera_z_range,
    look_at,
    pixel_grid,
    project_points,
    rays_through_pixels,
    scale_intrinsics,
    voxel_centers,
)


def default_cam(width=224, height=224, f=100.0):
    return Intrinsics(fx=f, fy=f, cx=(width - 1) / 2 + 0.5, cy=(height - 1) / 2 + 0.5,
                      width=width, height=height)


CAM = Intrinsics(fx=100.0, fy=100.0, cx=112.0, cy=112.0, width=224, height=224)
POSE_Z2 = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))


class TestProjectPoint:
    def test_optical_axis_point_hits_principal_point(self):
        uv, z, valid = project_points([0.0, 0.0, 0.0], CAM, POSE_Z2)
        assert (uv[0, 0], uv[0, 1], z[0]) == (112.0, 112.0, 2.0)
        assert valid[0]

    def test_off_axis_point(self):
        # u = 100 * 0.1 / 2 + 112 = 117
        uv, z, valid = project_points([0.1, 0.0, 0.0], CAM, POSE_Z2)
        assert uv[0, 0] == pytest.approx(117.0)
        assert uv[0, 1] == pytest.approx(112.0)
        assert z[0] == pytest.approx(2.0)
        assert valid[0]

    def test_behind_camera_rejected(self):
        _, z, valid = project_points([0.0, 0.0, -3.0], CAM, POSE_Z2)
        assert z[0] == pytest.approx(-1.0)
        assert not valid[0]

    def test_out_of_frame_invalid(self):
        _, z, valid = project_points([10.0, 0.0, 0.0], CAM, POSE_Z2)  # u = 612
        assert z[0] > 0
        assert not valid[0]

    def test_scale_consistency(self):
        # Projecting X and the scaled camera-frame point lam * x_cam agree.
        rng = np.random.default_rng(0)
        r = look_at([1.0, 0.8, -1.5], [0, 0, 0]).rotation
        pose = Pose(rotation=r, translation=np.array([0.1, -0.2, 2.0]))
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 3)
            x_cam = pose.transform(x)
            if x_cam[2] < 0.1:
                continue
            lam = rng.uniform(0.5, 3.0)
            scaled_pose = Pose(rotation=np.eye(3), translation=np.zeros(3))
            a, _, _ = project_points(x, CAM, pose)
            b, _, _ = project_points(lam * x_cam, CAM, scaled_pose)
            assert a[0, 0] == pytest.approx(b[0, 0], abs=1e-9)
            assert a[0, 1] == pytest.approx(b[0, 1], abs=1e-9)


    def test_bytes_match_the_pinhole_expressions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pose = look_at(rng.uniform(-3, 3, 3), rng.uniform(-0.3, 0.3, 3))
            x = rng.uniform(-3, 3, (500, 3))
            x_cam = x @ pose.rotation.T + pose.translation
            z = x_cam[:, 2]
            z_safe = np.where(z > Z_EPS, z, 1.0)
            u = CAM.fx * x_cam[:, 0] / z_safe + CAM.cx
            v = CAM.fy * x_cam[:, 1] / z_safe + CAM.cy
            valid = (z > Z_EPS) & (u >= 0) & (u <= CAM.width - 1) & (v >= 0) & (v <= CAM.height - 1)
            assert valid.any() and not valid.all()
            assert pose.transform(x).tobytes() == x_cam.tobytes()
            got_uv, got_z, got_valid = project_points(x, CAM, pose)
            assert got_uv.tobytes() == np.stack([u, v], axis=1).tobytes()
            assert got_z.tobytes() == z.tobytes()
            np.testing.assert_array_equal(got_valid, valid)


class TestVoxelCenters:
    def test_degenerate_single_voxel(self):
        c = voxel_centers(VoxelGridSpec(resolution=1))
        np.testing.assert_allclose(c, [[0.0, 0.0, 0.0]])

    def test_two_per_axis(self):
        c = voxel_centers(VoxelGridSpec(resolution=2))
        expected = {(sx * 0.25, sy * 0.25, sz * 0.25)
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert {tuple(row) for row in c} == expected

    def test_first_center_at_v32(self):
        c = voxel_centers(VoxelGridSpec(resolution=32))
        np.testing.assert_allclose(c[0], [-0.484375] * 3)

    def test_row_major_index_order(self):
        spec = VoxelGridSpec(resolution=4)
        c = voxel_centers(spec)
        # index (i, j, k) -> flat i*V*V + j*V + k, i indexes x
        i, j, k = 1, 2, 3
        expected = [spec.axis_centers()[i], spec.axis_centers()[j], spec.axis_centers()[k]]
        np.testing.assert_allclose(c[i * 16 + j * 4 + k], expected)

    def test_centers_inside_cube_and_evenly_spaced(self):
        spec = VoxelGridSpec(resolution=8)
        c = voxel_centers(spec).reshape(8, 8, 8, 3)
        assert (c > -0.5).all() and (c < 0.5).all()
        np.testing.assert_allclose(np.diff(c[:, 0, 0, 0]), 1 / 8)
        np.testing.assert_allclose(np.diff(c[0, :, 0, 1]), 1 / 8)
        np.testing.assert_allclose(np.diff(c[0, 0, :, 2]), 1 / 8)

    def test_grid_world_round_trip(self):
        # voxel center (i, j, k) maps exactly to grid coordinate (i, j, k)
        spec = VoxelGridSpec(resolution=16)
        index = np.stack(np.meshgrid(*[np.arange(16)] * 3, indexing="ij"), axis=-1)
        np.testing.assert_allclose(spec.world_to_grid(voxel_centers(spec)),
                                   index.reshape(-1, 3), atol=1e-12)


class TestRays:
    def test_principal_point_ray(self):
        origin, d = rays_through_pixels([112.0, 112.0], CAM, POSE_Z2)
        np.testing.assert_allclose(origin, [0.0, 0.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(d[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_round_trip_through_projection(self):
        rng = np.random.default_rng(7)
        pose = look_at([1.3, 0.6, -1.2], [0, 0, 0])
        uv = rng.uniform(0, 223, (50, 2))
        origin, dirs = rays_through_pixels(uv, CAM, pose)
        pts = origin + 1.7 * dirs
        uv_back, z, valid = project_points(pts, CAM, pose)
        assert valid.all()
        np.testing.assert_allclose(uv_back, uv, atol=1e-6)

    def test_directions_unit_norm(self):
        uv = np.random.default_rng(3).uniform(0, 223, (100, 2))
        _, dirs = rays_through_pixels(uv, CAM, POSE_Z2)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_reconstructs_point_from_valid_projection(self):
        pose = look_at([0.9, -0.7, 1.8], [0, 0, 0])
        x = np.array([0.12, -0.05, 0.2])
        uv, z, valid = project_points(x, CAM, pose)
        assert valid[0]
        origin, dirs = rays_through_pixels(uv[0], CAM, pose)
        d = dirs[0]
        # camera-frame z of origin + s*d is s * (R @ d)[2]
        dz = (pose.rotation @ d)[2]
        np.testing.assert_allclose(origin + (z[0] / dz) * d, x, atol=1e-9)


class TestCameraZRange:
    def test_axis_aligned_camera(self):
        z_near, z_far = camera_z_range(POSE_Z2)
        assert z_near == pytest.approx(1.5)
        assert z_far == pytest.approx(2.5)

    def test_camera_inside_cube_clamps(self):
        pose = Pose(rotation=np.eye(3), translation=np.zeros(3))
        z_near, z_far = camera_z_range(pose)
        assert z_near == Z_EPS
        assert z_far == pytest.approx(0.5)

    def test_range_contains_all_voxel_center_depths(self):
        spec = VoxelGridSpec(resolution=9)
        pose = look_at([1.1, 1.4, -1.0], [0, 0, 0])
        z_near, z_far = camera_z_range(pose)
        z = pose.transform(voxel_centers(spec))[:, 2]
        assert (z >= z_near - 1e-12).all() and (z <= z_far + 1e-12).all()


class TestValidation:
    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            Pose(rotation=np.eye(3) * 1.001, translation=np.zeros(3))

    def test_reflection_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(rotation=r, translation=np.zeros(3))

    def test_negative_focal_rejected(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_intrinsics_rejected(self, field, value):
        kwargs = dict(fx=100.0, fy=100.0, cx=16.0, cy=16.0, width=32, height=32)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Intrinsics(**kwargs)

    @pytest.mark.parametrize("field", ["rotation", "translation"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_pose_rejected(self, field, value):
        kwargs = dict(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
        kwargs[field].flat[0] = value
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries"):
            Pose(**kwargs)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            VoxelGridSpec(resolution=0)

    @pytest.mark.parametrize("kwargs", [dict(side=2.0), dict(center=(0.3, 0.0, 0.0))])
    def test_grid_spec_is_only_the_unit_cube_at_the_origin(self, kwargs):
        with pytest.raises(TypeError):
            VoxelGridSpec(**kwargs)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(resolution=2.5), "resolution"), (dict(resolution=np.nan), "resolution"),
    ])
    def test_grid_spec_rejects_non_finite_and_non_integral(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            VoxelGridSpec(**kwargs)

    def test_grid_spec_stores_an_integral_resolution_as_int(self):
        spec = VoxelGridSpec(resolution=4.0)
        assert type(spec.resolution) is int and len(voxel_centers(spec)) == 64

    @pytest.mark.parametrize("size", [dict(width=8.5), dict(height=7.25)])
    def test_intrinsics_reject_non_integral_size(self, size):
        kwargs = dict(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8) | size
        with pytest.raises(ValueError, match="width and height must be integers"):
            Intrinsics(**kwargs)

    def test_intrinsics_store_integral_sizes_as_int(self):
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8.0, height=np.int64(6))
        assert (type(cam.width), type(cam.height)) == (int, int)
        assert pixel_grid(cam).shape == (6, 8, 2)


class TestHelpers:
    def test_look_at_points_camera_at_target(self):
        pose = look_at([2.0, 1.0, -1.0], [0, 0, 0])
        # target projects onto the optical axis: x_cam = (0, 0, |C - target|)
        x_cam = pose.transform(np.zeros(3))
        np.testing.assert_allclose(x_cam[:2], 0.0, atol=1e-12)
        assert x_cam[2] == pytest.approx(np.sqrt(6.0))

    def test_scale_intrinsics_preserves_ray_directions(self):
        cam = default_cam(64, 64, f=60.0)
        small = scale_intrinsics(cam, 16, 16)
        pose = POSE_Z2
        # pixel centers correspond: u_small maps to (u_small + .5) * 4 - .5
        for u_s, v_s in [(0.0, 0.0), (7.5, 7.5), (15.0, 3.0)]:
            u_f, v_f = (u_s + 0.5) * 4 - 0.5, (v_s + 0.5) * 4 - 0.5
            _, d_small = rays_through_pixels([u_s, v_s], small, pose)
            _, d_full = rays_through_pixels([u_f, v_f], cam, pose)
            np.testing.assert_allclose(d_small[0], d_full[0], atol=1e-12)
