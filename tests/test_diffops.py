"""Forward semantics, VJP identities and geometric properties of the
image <-> grid transfer operators.

Derived expectations come from independent oracles computed in-test:
brute-force projection of all voxel centers, a straightforward per-pixel
ray march, finite differences, and adjoint dot-product identities.
"""

import re
import warnings

import numpy as np
import pytest

from helpers import assert_vjp_matches_fd, bilinear_corners_reference

from voxelstereo.diffops import (
    GeomFeatureConfig,
    _bilinear_corners,
    _bilinear_matrix,
    bilinear_sample,
    compare_exchange_sort,
    nearest_index,
    plane_depths,
    project,
    project_vjp,
    unproject,
    unproject_vjp,
)
from voxelstereo.geometry import (
    Intrinsics,
    Pose,
    VoxelGridSpec,
    look_at,
    project_points,
    voxel_centers,
)

CAM = Intrinsics(fx=100.0, fy=100.0, cx=31.5, cy=31.5, width=64, height=64)
POSE_Z2 = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0]))
NO_GEOM = GeomFeatureConfig()
FULL_GEOM = GeomFeatureConfig(geometric=True)


class TestBilinearSample:
    def test_constant_map(self):
        fmap = np.full((5, 6, 2), 3.0)
        vals = bilinear_sample(fmap, [[2.3, 1.7], [0.0, 0.0], [4.99, 3.99]])
        np.testing.assert_allclose(vals, 3.0)

    def test_2x2_center(self):
        fmap = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None]  # rows are v
        vals = bilinear_sample(fmap, [[0.5, 0.5]])
        assert vals[0, 0] == pytest.approx(1.5)

    def test_2x2_asymmetric_point(self):
        fmap = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None]
        # (u, v) = (0.25, 0.75): rows weighted 0.25/0.75, cols 0.75/0.25
        expected = (0.75 * 0.25) * 0 + (0.25 * 0.25) * 1 + (0.75 * 0.75) * 2 + (0.25 * 0.75) * 3
        vals = bilinear_sample(fmap, [[0.25, 0.75]])
        assert vals[0, 0] == pytest.approx(expected)

    def test_outside_is_zero_and_invalid(self):
        fmap = np.ones((4, 4, 1))
        vals = bilinear_sample(fmap, [[-1.0, -1.0]])
        assert vals[0, 0] == 0.0

    def test_partial_overlap_zero_padded(self):
        fmap = np.ones((4, 4, 1))
        vals = bilinear_sample(fmap, [[-0.5, 0.0]])
        assert vals[0, 0] == 0.0  # half outside counts as outside

    def test_edge_point_valid(self):
        fmap = np.arange(16.0).reshape(4, 4, 1)
        vals = bilinear_sample(fmap, [[3.0, 3.0]])
        assert vals[0, 0] == 15.0


class TestGatherMatchesSamplingMatrix:
    """bilinear_sample gathers from the corner table that unproject's CSR
    matrix is built from; both must give the same bits."""

    @staticmethod
    def points(h, w, rng):
        inside = rng.uniform([0, 0], [w - 1, h - 1], size=(40, 2))
        outside = rng.uniform([-3, -3], [w + 2, h + 2], size=(40, 2))
        edges = [[w - 1, 0.0], [0.0, h - 1], [w - 1, h - 1], [0.5 * (w - 1), h - 1],
                 [w - 1, 0.5 * (h - 1)], [-0.0, -0.0], [w - 1 + 1e-12, 0.0],
                 [np.nextafter(w - 1, 0), np.nextafter(h - 1, 0)]]
        return np.concatenate([inside, outside, edges])

    @pytest.mark.parametrize("hw", [(7, 5), (1, 6), (6, 1), (1, 1)])
    @pytest.mark.parametrize("c", [1, 3])
    def test_bitwise_equal(self, hw, c):
        rng = np.random.default_rng(hw[0] * 10 + hw[1] + c)
        fmap = rng.standard_normal(hw + (c,))
        pts = self.points(*hw, rng)
        want = _bilinear_matrix(fmap.shape, pts) @ fmap.reshape(-1, c)
        got = bilinear_sample(fmap, pts)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_outside_reads_positive_zero(self):
        fmap = -np.ones((4, 4, 2))
        vals = bilinear_sample(fmap, [[-0.5, 1.0], [1.0, 3.5], [9.0, 9.0]])
        assert vals.tobytes() == np.zeros((3, 2)).tobytes()

    def test_nonfinite_points_read_positive_zero_without_warning(self):
        fmap = -np.ones((4, 5, 2))
        pts = [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [np.inf, 1.0], [-np.inf, 1.0],
               [1.0, np.inf], [1.0, -np.inf], [np.inf, np.nan], [-np.inf, -np.inf]]
        zeros = np.zeros((len(pts), 2)).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lin, weights = _bilinear_corners(fmap.shape, pts)
            assert bilinear_sample(fmap, pts).tobytes() == zeros
            assert (_bilinear_matrix(fmap.shape, pts) @ fmap.reshape(-1, 2)).tobytes() == zeros
        assert ((lin >= 0) & (lin < 20)).all()
        assert not weights.any()


class TestCornerTable:
    """_bilinear_corners zeroes dropped weights with one boolean index; its
    bytes must be those of the broadcast where= form."""

    @pytest.mark.parametrize("hw", [(7, 5), (1, 6), (6, 1), (1, 1), (64, 64)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bytes_match_the_where_form(self, hw, masked):
        h, w = hw
        rng = np.random.default_rng(h * 100 + w + masked)
        pts = np.concatenate([
            TestGatherMatchesSamplingMatrix.points(h, w, rng),
            [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [-np.inf, 0.0], [0.0, np.inf],
             [0.0, -np.inf], [np.nan, np.inf], [-0.0, 0.0], [w - 1, -0.0]]])
        valid = rng.random(len(pts)) < 0.7 if masked else True
        lin, weights = _bilinear_corners((h, w), pts, valid)
        want_lin, want_weights = bilinear_corners_reference((h, w), pts, valid)
        assert lin.dtype == want_lin.dtype and lin.shape == want_lin.shape == (4, len(pts))
        assert lin.tobytes() == want_lin.tobytes()
        assert weights.dtype == want_weights.dtype and weights.shape == want_weights.shape
        assert weights.tobytes() == want_weights.tobytes()
        if masked:
            assert not weights[:, ~valid].any()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_a_negative_zero_coordinate_gets_the_same_bytes_anywhere(self, axis):
        # numpy's fmax(-0.0, 0) is +0.0 in its SIMD body and -0.0 in its
        # scalar tail: with 65 points the first and last fall in each
        pts = np.full((65, 2), 1.5)
        pts[[0, 64], axis] = -0.0
        lin, weights = _bilinear_corners((4, 4), pts)
        assert lin[:, 0].tobytes() == lin[:, 64].tobytes()
        assert weights[:, 0].tobytes() == weights[:, 64].tobytes()
        assert not np.signbit(weights).any()


class TestCompareExchangeSort:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_np_sort_with_ties(self, n):
        rng = np.random.default_rng(n)
        arrays = [rng.integers(-2, 3, size=(5, 7)).astype(np.float64) for _ in range(n)]
        arrays[0][0] = np.inf
        arrays[-1][1] = -np.inf
        want = np.sort(np.stack(arrays), axis=0)
        got = compare_exchange_sort(arrays)
        assert len(got) == n
        assert np.stack(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_leaves_inputs_alone(self, n):
        arrays = list(np.random.default_rng(10 + n).standard_normal((n, 4, 3)))
        copies = [a.copy() for a in arrays]
        got = compare_exchange_sort(arrays)
        for a, c in zip(arrays, copies):
            assert a.tobytes() == c.tobytes()
        if n > 1:  # every output is a new array
            assert not {id(a) for a in arrays} & {id(g) for g in got}


class TestUnproject:
    def test_map_not_of_the_camera_size_raises(self):
        # a 32x32 map read through a 64x64 camera is sampled in the wrong frame
        spec = VoxelGridSpec(resolution=8)
        fmap = np.ones((32, 32, 1))
        with pytest.raises(ValueError, match=r"\(32, 32\).*\(64, 64\)"):
            unproject(fmap, CAM, POSE_Z2, spec, NO_GEOM)
        with pytest.raises(ValueError, match=r"\(32, 32\).*\(64, 64\)"):
            unproject_vjp(fmap, CAM, POSE_Z2, spec, NO_GEOM, np.ones((8, 8, 8, 1)))

    def test_constant_map_fills_grid(self):
        spec = VoxelGridSpec(resolution=8)
        fmap = np.full((64, 64, 2), 1.25)
        grid = unproject(fmap, CAM, POSE_Z2, spec, NO_GEOM)
        # the whole cube projects inside this camera's frame
        _, _, valid = project_points(voxel_centers(spec), CAM, POSE_Z2)
        assert valid.all()
        np.testing.assert_allclose(grid, 1.25)

    def test_same_ray_voxels_share_features(self):
        spec = VoxelGridSpec(resolution=8)
        # camera sits on the line of centers with x/y index (2, 5)
        cx, cy = spec.axis_centers()[2], spec.axis_centers()[5]
        center = np.array([cx, cy, -2.0])
        pose = Pose(rotation=np.eye(3), translation=-center)
        fmap = np.random.default_rng(0).random((64, 64, 3))
        grid = unproject(fmap, CAM, pose, spec, NO_GEOM)
        col = grid[2, 5, :, :]
        np.testing.assert_allclose(col, np.broadcast_to(col[0], col.shape), atol=1e-12)

    def test_delta_image_brute_force(self):
        spec = VoxelGridSpec(resolution=16)
        fmap = np.zeros((64, 64, 1))
        fmap[40, 25, 0] = 1.0  # (v, u) = (40, 25)
        grid = unproject(fmap, CAM, POSE_Z2, spec, NO_GEOM).reshape(-1)
        uv, _, valid = project_points(voxel_centers(spec), CAM, POSE_Z2)
        within = valid & (np.abs(uv[:, 0] - 25) < 1) & (np.abs(uv[:, 1] - 40) < 1)
        np.testing.assert_array_equal(grid > 0, within)

    def test_geometric_channels(self):
        spec = VoxelGridSpec(resolution=4)
        fmap = np.zeros((64, 64, 2))
        grid = unproject(fmap, CAM, POSE_Z2, spec, FULL_GEOM)
        assert grid.shape == (4, 4, 4, 6)
        centers = voxel_centers(spec)
        z = POSE_Z2.transform(centers)[:, 2]
        np.testing.assert_allclose(grid[..., 2].reshape(-1), z)
        rays = centers - POSE_Z2.camera_center
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        np.testing.assert_allclose(grid[..., 3:].reshape(-1, 3), rays)
        np.testing.assert_allclose(np.linalg.norm(grid[..., 3:], axis=-1), 1.0)

    def test_behind_camera_voxels_zeroed(self):
        spec = VoxelGridSpec(resolution=4)
        pose = Pose(rotation=np.eye(3), translation=np.zeros(3))  # camera at center
        fmap = np.full((64, 64, 1), 2.0)
        grid = unproject(fmap, CAM, pose, spec, NO_GEOM)
        z = pose.transform(voxel_centers(spec))[:, 2]
        behind = (z <= 0).reshape(4, 4, 4)
        assert (grid[behind] == 0).all()

    def test_linearity(self):
        spec = VoxelGridSpec(resolution=6)
        rng = np.random.default_rng(5)
        f1, f2 = rng.random((64, 64, 2)), rng.random((64, 64, 2))
        a, b = 1.7, -0.3
        lhs = unproject(a * f1 + b * f2, CAM, POSE_Z2, spec, NO_GEOM)
        rhs = a * unproject(f1, CAM, POSE_Z2, spec, NO_GEOM) + b * unproject(
            f2, CAM, POSE_Z2, spec, NO_GEOM)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestUnprojectVjp:
    def test_zero_upstream(self):
        spec = VoxelGridSpec(resolution=4)
        fmap = np.random.default_rng(0).random((16, 16, 2))
        cam = Intrinsics(fx=20.0, fy=20.0, cx=7.5, cy=7.5, width=16, height=16)
        grad = unproject_vjp(fmap, cam, POSE_Z2, spec, FULL_GEOM,
                             np.zeros((4, 4, 4, 6)))
        np.testing.assert_array_equal(grad, 0.0)

    @pytest.mark.parametrize("shape", [(64, 6), (4, 4, 4, 6, 1), (4, 16, 6), (4, 4, 4, 2)])
    def test_upstream_not_shaped_like_the_output_rejected(self, shape):
        # all but the last hold the output's 384 values, which a reshape would take
        spec = VoxelGridSpec(resolution=4)
        cam = Intrinsics(fx=20.0, fy=20.0, cx=7.5, cy=7.5, width=16, height=16)
        with pytest.raises(ValueError, match=re.escape(
                f"upstream of shape {shape} for an output of shape (4, 4, 4, 6)")):
            unproject_vjp(np.ones((16, 16, 2)), cam, POSE_Z2, spec, FULL_GEOM, np.ones(shape))

    def test_single_voxel_locality(self):
        spec = VoxelGridSpec(resolution=8)
        fmap = np.zeros((64, 64, 1))
        upstream = np.zeros((8, 8, 8, 1))
        upstream[3, 4, 5, 0] = 1.0
        grad = unproject_vjp(fmap, CAM, POSE_Z2, spec, NO_GEOM, upstream)
        center = voxel_centers(spec).reshape(8, 8, 8, 3)[3, 4, 5]
        uv, _, _ = project_points(center[None], CAM, POSE_Z2)
        nonzero_v, nonzero_u = np.nonzero(grad[:, :, 0])
        assert 1 <= len(nonzero_u) <= 4
        assert (np.abs(nonzero_u - uv[0, 0]) < 1).all()
        assert (np.abs(nonzero_v - uv[0, 1]) < 1).all()

    def test_matches_finite_differences(self):
        spec = VoxelGridSpec(resolution=4)
        cam = Intrinsics(fx=14.0, fy=15.0, cx=5.5, cy=6.0, width=12, height=13)
        pose = look_at([0.6, 0.5, -1.8], [0, 0, 0])
        rng = np.random.default_rng(11)
        fmap = rng.random((13, 12, 2))
        upstream = rng.standard_normal((4, 4, 4, 6))
        assert_vjp_matches_fd(
            lambda f: unproject(f, cam, pose, spec, FULL_GEOM),
            lambda f, up: unproject_vjp(f, cam, pose, spec, FULL_GEOM, up),
            fmap, upstream,
        )

    def test_adjoint_dot_product(self):
        spec = VoxelGridSpec(resolution=16)
        rng = np.random.default_rng(7)
        fmap = rng.random((32, 32, 8))
        cam = Intrinsics(fx=40.0, fy=40.0, cx=15.5, cy=15.5, width=32, height=32)
        pose = look_at([1.0, 0.8, -1.5], [0, 0, 0])
        up = rng.standard_normal((16, 16, 16, 8))
        lhs = float(np.sum(unproject(fmap, cam, pose, spec, NO_GEOM) * up))
        rhs = float(np.sum(fmap * unproject_vjp(fmap, cam, pose, spec, NO_GEOM, up)))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))


def ray_march_oracle(grid, spec, cam, pose, n_planes, u, v):
    """Independent nearest-neighbor sampling along one pixel's ray."""
    z_values, _ = plane_depths(pose, n_planes)
    out = []
    for zk in z_values:
        x_cam = np.array([(u - cam.cx) / cam.fx * zk, (v - cam.cy) / cam.fy * zk, zk])
        x = pose.rotation.T @ (x_cam - pose.translation)
        g = spec.world_to_grid(x)
        idx = np.floor(g + 0.5 - 1e-9).astype(int)
        if ((idx >= 0) & (idx < spec.resolution)).all():
            out.append(grid[idx[0], idx[1], idx[2]])
        else:
            out.append(np.zeros(grid.shape[3]))
    return np.concatenate(out)


def test_nearest_index_rounds_ties_down():
    ties = np.array([0.5, 1.5, 2.5])
    np.testing.assert_array_equal(nearest_index(ties), [0, 1, 2])
    np.testing.assert_array_equal(np.round(ties), [0, 2, 2])  # half to even
    out = nearest_index(np.array([-0.5, -0.4, 0.4999, 0.5001, 3.0, 6.7]))
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [-1, 0, 0, 1, 3, 7])


class TestProject:
    def test_constant_grid(self):
        spec = VoxelGridSpec(resolution=8)
        grid = np.full((8, 8, 8, 2), 4.5)
        out = project(grid, CAM, POSE_Z2)
        assert out.shape == (64, 64, 16)
        # oracle: a channel is 4.5 exactly when its sample point is in the cube
        for (u, v) in [(31.5, 31.5), (10.0, 50.0), (0.0, 0.0)]:
            expected = ray_march_oracle(grid, spec, CAM, POSE_Z2, 8, u, v)
            np.testing.assert_allclose(out[int(v), int(u)], expected)
        center_channels = out[32, 32]
        assert (center_channels == 4.5).any()

    def test_delta_grid_against_ray_march(self):
        spec = VoxelGridSpec(resolution=32)
        grid = np.zeros((32, 32, 32, 1))
        grid[15, 15, 15, 0] = 1.0  # voxel nearest the origin under half-down ties
        out = project(grid, CAM, POSE_Z2)
        # full-map agreement with the per-pixel oracle on a probe set
        rng = np.random.default_rng(0)
        for u, v in rng.integers(0, 64, (20, 2)):
            expected = ray_march_oracle(grid, spec, CAM, POSE_Z2, 32, float(u), float(v))
            np.testing.assert_array_equal(out[v, u], expected)
        # the principal pixel's ray passes through that voxel; its response
        # sits in the channel block whose z_k is nearest the voxel depth
        center_voxel_depth = 2.0 + spec.axis_centers()[15]
        z_values, spacing = plane_depths(POSE_Z2, 32)
        hit_blocks = np.nonzero(out[31, 31])[0]
        assert len(hit_blocks) >= 1
        assert (np.abs(z_values[hit_blocks] - center_voxel_depth) <= spacing).all()

    def test_project_after_unproject_recovers_delta_pixel(self):
        # camera centered on a voxel-center column so the delta pixel's ray
        # passes exactly through voxel centers
        spec = VoxelGridSpec(resolution=16)
        cam = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
        col_x = spec.axis_centers()[6]
        col_y = spec.axis_centers()[9]
        pose = Pose(rotation=np.eye(3), translation=-np.array([col_x, col_y, -2.0]))
        fmap = np.zeros((64, 64, 1))
        fmap[32, 32, 0] = 1.0  # the principal pixel
        grid = unproject(fmap, cam, pose, spec, NO_GEOM)
        assert grid[6, 9].sum() == pytest.approx(16.0)  # whole column lit
        out = project(grid, cam, pose)
        vals = out[32, 32].reshape(16, 1)
        z_values, _ = plane_depths(pose, 16)
        # every plane inside the cube re-samples a voxel on the delta ray
        inside = (z_values > 1.5) & (z_values < 2.5)
        assert (vals[inside, 0] > 0).all()
        assert (vals[~inside, 0] == 0).all()

    def test_linearity(self):
        rng = np.random.default_rng(9)
        g1, g2 = rng.random((6, 6, 6, 2)), rng.random((6, 6, 6, 2))
        lhs = project(2.0 * g1 - 0.5 * g2, CAM, POSE_Z2)
        rhs = 2.0 * project(g1, CAM, POSE_Z2) - 0.5 * project(g2, CAM, POSE_Z2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestProjectVjp:
    def test_zero_upstream(self):
        grid = np.ones((4, 4, 4, 1))
        grad = project_vjp(grid, CAM, POSE_Z2, np.zeros((64, 64, 4)))
        np.testing.assert_array_equal(grad, 0.0)

    def test_nearest_scatter_counts(self):
        # adjoint of gather is scatter: each voxel's grad is the sum of the
        # upstream entries that sampled it
        spec = VoxelGridSpec(resolution=4)
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        grid = np.zeros((4, 4, 4, 1))
        up = np.ones((8, 8, 4))
        grad = project_vjp(grid, cam, POSE_Z2, up)
        total = 0
        for u in range(8):
            for v in range(8):
                samples = ray_march_oracle(np.ones((4, 4, 4, 1)), spec, cam, POSE_Z2,
                                           4, float(u), float(v))
                total += samples.sum()
        assert grad.sum() == pytest.approx(total)

    def test_adjoint_dot_product(self):
        rng = np.random.default_rng(21)
        grid = rng.random((16, 16, 16, 8))
        cam = Intrinsics(fx=40.0, fy=40.0, cx=15.5, cy=15.5, width=32, height=32)
        pose = look_at([-1.2, 0.9, 1.4], [0, 0, 0])
        up = rng.standard_normal((32, 32, 16 * 8))
        lhs = float(np.sum(project(grid, cam, pose) * up))
        rhs = float(np.sum(grid * project_vjp(grid, cam, pose, up)))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))

    @pytest.mark.parametrize("shape", [(64, 4), (8, 8, 2, 2), (4, 8, 8), (8, 8, 2)])
    def test_upstream_not_shaped_like_the_output_rejected(self, shape):
        # all but the last hold the output's 256 values, which a reshape would take
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        with pytest.raises(ValueError, match=re.escape(
                f"upstream of shape {shape} for an output of shape (8, 8, 4)")):
            project_vjp(np.ones((4, 4, 4, 1)), cam, POSE_Z2, np.ones(shape))

    @pytest.mark.parametrize("shape", [(4, 8, 2, 1), (8, 8, 4, 1), (4, 4, 4)])
    def test_grid_not_a_cube_of_channels_rejected(self, shape):
        # (4, 8, 2, 1) holds the 64 voxels of a 4^3 grid, so a reshape alone
        # would read it in the wrong layout
        cam = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
        grid = np.ones(shape)
        message = rf"grid of shape {re.escape(str(shape))} is not \(V, V, V, C\)"
        with pytest.raises(ValueError, match=message):
            project(grid, cam, POSE_Z2)
        with pytest.raises(ValueError, match=message):
            project_vjp(grid, cam, POSE_Z2, np.ones((8, 8, 4)))


class TestEpipolarConsistency:
    def test_planted_features_meet_at_the_same_voxel(self):
        # a 7x7 constant patch centered on each projection guarantees both
        # views sample value 1 at the voxel containing the world point
        spec = VoxelGridSpec(resolution=32)
        rng = np.random.default_rng(99)
        failures = 0
        for _ in range(100):
            x = rng.uniform(-0.3, 0.3, 3)
            az = rng.uniform(0, 2 * np.pi, 2)
            el = rng.uniform(-0.3, 0.5, 2)
            grids = []
            for a, e in zip(az, el):
                c = 2.0 * np.array([np.cos(e) * np.cos(a), np.sin(e), np.cos(e) * np.sin(a)])
                pose = look_at(c, [0, 0, 0])
                uv, _, valid = project_points(x[None], CAM, pose)
                assert valid[0]
                fmap = np.zeros((64, 64, 1))
                pu, pv = int(round(uv[0, 0])), int(round(uv[0, 1]))
                fmap[max(pv - 3, 0):pv + 4, max(pu - 3, 0):pu + 4, 0] = 1.0
                grids.append(unproject(fmap, CAM, pose, spec, NO_GEOM))
            idx = np.floor(spec.world_to_grid(x) + 0.5 - 1e-9).astype(int)
            a = grids[0][idx[0], idx[1], idx[2], 0]
            b = grids[1][idx[0], idx[1], idx[2], 0]
            if not (a == pytest.approx(1.0) and b == pytest.approx(1.0)):
                failures += 1
        assert failures == 0


class TestPlaneDepths:
    def test_midpoint_placement(self):
        z, spacing = plane_depths(POSE_Z2, 4)
        assert spacing == pytest.approx(0.25)
        np.testing.assert_allclose(z, [1.625, 1.875, 2.125, 2.375])

    def test_ascending(self):
        z, _ = plane_depths(look_at([1.5, 1.0, -0.5], [0, 0, 0]), 32)
        assert (np.diff(z) > 0).all()

    @pytest.mark.parametrize("n_planes", [0, -2])
    def test_fewer_than_one_plane_rejected(self, n_planes):
        with pytest.raises(ValueError, match="n_planes must be >= 1"):
            plane_depths(POSE_Z2, n_planes)
